"""CSV and SVG artifact emission with a sha256 manifest.

Floats are rendered with 17 significant digits so repeated runs diff
byte-identically.  Files stream to disk and into their sha256 in chunks;
``raw_channel.csv`` is formatted ``RAW_CHUNK_ROWS`` rows at a time.
"""

from __future__ import annotations

import hashlib
import json
import os
from itertools import chain
from typing import Iterable

import numpy as np

from .scenario import ReportBundle, config_to_dict

# Rows of raw_channel.csv formatted at a time (~4 MiB of text)
RAW_CHUNK_ROWS = 2 ** 16


def fmt(x) -> str:
    return format(float(x), ".17g")


def _centers(edges: np.ndarray) -> np.ndarray:
    return 0.5 * (edges[:-1] + edges[1:])


def _cdf_points(values: np.ndarray) -> tuple:
    """(value, cdf) pairs of sorted samples at their unique values: the
    right-continuous empirical CDF (#samples <= value) / n."""
    uniq, counts = np.unique(values, return_counts=True)
    return uniq, np.cumsum(counts) / len(values)


def histogram_rows(hist: dict) -> Iterable[str]:
    centers = _centers(hist["edges"])
    for (i, j), count in np.ndenumerate(hist["counts"]):
        yield f"{fmt(centers[i])},{fmt(centers[j])},{count}"


def ecdf_rows(values: np.ndarray) -> Iterable[str]:
    for v, p in zip(*_cdf_points(values)):
        yield f"{fmt(v)},{fmt(p)}"


def xcorr_rows(payload: dict) -> Iterable[str]:
    for c, n in zip(_centers(payload["edges"]), payload["counts"]):
        yield f"{fmt(c)},{int(n)}"


def power_profile_rows(profile: np.ndarray) -> Iterable[str]:
    for (i, j), power in np.ndenumerate(profile):
        yield f"{i + 1},{j + 1},{fmt(power)}"


def correlation_rows(matrix: np.ndarray) -> Iterable[str]:
    for row in matrix:
        yield ",".join(fmt(x) for x in row)


def raw_channel_rows(kept: np.ndarray) -> Iterable[str]:
    """Rows of the (realizations, t_max, f_max, N, K) channel array in C order, in
    chunks of at most RAW_CHUNK_ROWS rows: one %-template, antenna and user indices
    baked in, applied to a flat tuple of (realization, t, f, re, im) per row."""
    n, k = kept.shape[-2:]
    cells = [f"%d,%d,%d,{i},{j},%.17g,%.17g\n" for i in range(1, n + 1) for j in range(1, k + 1)]
    per_rb = kept.reshape(-1, n * k)
    rbs, part = max(1, RAW_CHUNK_ROWS // (n * k)), min(n * k, RAW_CHUNK_ROWS)
    for a in range(0, len(per_rb), rbs):
        rb = np.arange(a, min(a + rbs, len(per_rb)))
        for s in range(0, n * k, part):
            values = per_rb[a:a + rbs, s:s + part]
            args = np.empty(values.shape + (5,), dtype=object)
            args[..., :3] = np.transpose(np.unravel_index(rb, kept.shape[:3]))[:, None] + 1
            args[..., 3], args[..., 4] = values.real, values.imag
            yield ("".join(cells[s:s + part]) * len(rb)) % tuple(args.ravel().tolist())


# ---------------------------------------------------------------------------
# minimal self-contained SVG renderings

_W, _H, _M = 640, 480, 56.0


def _svg(inner: str) -> str:
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}">\n<rect width="{_W}" height="{_H}" fill="white"/>\n'
            f"{inner}</svg>\n")


def _axes(x0, x1, y0, y1) -> str:
    def g(v):
        return format(v, ".6g")
    return (
        f'<line x1="{_M}" y1="{_H - _M}" x2="{_W - _M}" y2="{_H - _M}" stroke="black"/>\n'
        f'<line x1="{_M}" y1="{_M}" x2="{_M}" y2="{_H - _M}" stroke="black"/>\n'
        f'<text x="{_M}" y="{_H - _M + 16}" font-size="11">{g(x0)}</text>\n'
        f'<text x="{_W - _M}" y="{_H - _M + 16}" font-size="11" text-anchor="end">{g(x1)}</text>\n'
        f'<text x="{_M - 4}" y="{_H - _M}" font-size="11" text-anchor="end">{g(y0)}</text>\n'
        f'<text x="{_M - 4}" y="{_M + 4}" font-size="11" text-anchor="end">{g(y1)}</text>\n')


def _scale(v, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return out_lo + (v - lo) / span * (out_hi - out_lo)


def svg_polylines(series, x_range, y_range) -> str:
    """Line plot of one or more (xs, ys) series."""
    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
    x0, x1 = x_range
    y0, y1 = y_range
    parts = [_axes(x0, x1, y0, y1)]
    for k, (xs, ys) in enumerate(series):
        pts = " ".join(
            f"{_scale(x, x0, x1, _M, _W - _M):.2f},{_scale(y, y0, y1, _H - _M, _M):.2f}"
            for x, y in zip(xs, ys))
        parts.append(f'<polyline fill="none" stroke="{colors[k % len(colors)]}" '
                     f'stroke-width="1.5" points="{pts}"/>\n')
    return _svg("".join(parts))


def svg_heatmap(hist: dict) -> str:
    edges, counts = hist["edges"], hist["counts"]
    peak = counts.max()
    lo, hi = edges[0], edges[-1]
    parts = [_axes(lo, hi, lo, hi)]
    if peak > 0:
        nz = np.argwhere(counts > 0)
        for i, j in nz:
            x = _scale(edges[i], lo, hi, _M, _W - _M)
            x2 = _scale(edges[i + 1], lo, hi, _M, _W - _M)
            y = _scale(edges[j + 1], lo, hi, _H - _M, _M)
            y2 = _scale(edges[j], lo, hi, _H - _M, _M)
            shade = int(235 * (1.0 - counts[i, j] / peak))
            parts.append(f'<rect x="{x:.2f}" y="{y:.2f}" width="{x2 - x:.2f}" '
                         f'height="{y2 - y:.2f}" fill="rgb({shade},{shade},255)"/>\n')
    return _svg("".join(parts))


def svg_ecdf(values: np.ndarray) -> str:
    points, probs = _cdf_points(values)
    return svg_polylines([(points, probs)],
                         (float(points[0]), float(points[-1])), (0.0, 1.0))


def svg_xcorr(payload: dict) -> str:
    counts = payload["counts"]
    top = max(1, int(counts.max()))
    return svg_polylines([(_centers(payload["edges"]), counts)],
                         (float(payload["edges"][0]), float(payload["edges"][-1])),
                         (0.0, float(top)))


def svg_power_profile(profile: np.ndarray) -> str:
    n, k = profile.shape
    xs = np.arange(1, n + 1)
    series = [(xs, profile[:, j]) for j in range(k)]
    return svg_polylines(series, (1.0, float(n)),
                         (0.0, float(profile.max()) * 1.05))


# ---------------------------------------------------------------------------
# bundle writing

# name -> (CSV file, CSV header or None, row formatter, SVG file or None,
# SVG renderer), in the order the files are written
_ARTIFACTS = {
    "histogram": ("histogram.csv", "re_center,im_center,count", histogram_rows,
                  "histogram.svg", svg_heatmap),
    "eigencdf": ("eigencdf.csv", "eigenvalue,cdf", ecdf_rows, "eigencdf.svg", svg_ecdf),
    "cross-correlation": ("xcorr_hist.csv", "magnitude_center,count", xcorr_rows,
                          "xcorr_hist.svg", svg_xcorr),
    "power-profile": ("power_profile.csv", "antenna_index,user_index,mean_power",
                      power_profile_rows, "power_profile.svg", svg_power_profile),
    "correlation-matrix": ("correlation_matrix.csv", None, correlation_rows, None, None),
    "raw-channel": ("raw_channel.csv", "realization,t,f,antenna,user,re,im",
                    raw_channel_rows, None, None),
}


def _write(path: str, chunks: Iterable[str], artifact: str) -> str:
    """Write the text chunks to path; return the sha256 of their bytes."""
    digest = hashlib.sha256()
    try:
        with open(path, "wb") as fh:
            for chunk in chunks:
                data = chunk.encode()
                fh.write(data)
                digest.update(data)
    except OSError as exc:
        raise OSError(f"failed writing artifact {artifact!r} to {path}: {exc}") from exc
    return digest.hexdigest()


def write_bundle(bundle: ReportBundle, out_dir) -> tuple:
    """Write every computed artifact plus the config echo and a manifest.

    Returns (files, manifest) where files maps artifact file names to paths
    and manifest rows are (file name, data rows, sha256 of the file bytes).
    """
    out_dir = str(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    files = {}
    manifest = []

    def emit(file_name: str, chunks: Iterable[str], rows: int):
        files[file_name] = os.path.join(out_dir, file_name)
        manifest.append((file_name, rows, _write(files[file_name], chunks, file_name)))

    echo = json.dumps(config_to_dict(bundle.config), indent=2, sort_keys=True) + "\n"
    emit("config.json", [echo], 0)

    for name, (csv_file, header, rows_of, svg_file, render) in _ARTIFACTS.items():
        if name not in bundle.artifacts:
            continue
        payload = bundle.artifacts[name]
        if name == "raw-channel":
            emit(csv_file, chain([header + "\n"], rows_of(payload)), payload.size)
        else:
            rows = list(rows_of(payload))
            emit(csv_file, ["\n".join(([header] if header else []) + rows) + "\n"],
                 len(rows))
        if svg_file:
            emit(svg_file, [render(payload)], 0)

    manifest_rows = sorted(manifest)
    text = "\n".join(["artifact,rows,sha256"]
                     + [f"{a},{r},{s}" for a, r, s in manifest_rows]) + "\n"
    files["manifest.csv"] = os.path.join(out_dir, "manifest.csv")
    _write(files["manifest.csv"], [text], "manifest.csv")
    return files, tuple(manifest_rows)
