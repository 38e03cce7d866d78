"""CSV and SVG artifact emission with a sha256 manifest.

Floats are rendered with 17 significant digits so repeated runs diff
byte-identically.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Iterable

import numpy as np

from .scenario import ReportBundle, config_to_dict


def fmt(x) -> str:
    return format(float(x), ".17g")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def histogram_rows(hist) -> Iterable[str]:
    rc, ic = hist.re_centers, hist.im_centers
    for i in range(len(rc)):
        for j in range(len(ic)):
            yield f"{fmt(rc[i])},{fmt(ic[j])},{int(hist.counts[i, j])}"


def ecdf_rows(cdf) -> Iterable[str]:
    values, probs = cdf.points()
    for v, p in zip(values, probs):
        yield f"{fmt(v)},{fmt(p)}"


def xcorr_rows(payload) -> Iterable[str]:
    centers = 0.5 * (payload["edges"][:-1] + payload["edges"][1:])
    for c, n in zip(centers, payload["counts"]):
        yield f"{fmt(c)},{int(n)}"


def power_profile_rows(profile: np.ndarray) -> Iterable[str]:
    n, k = profile.shape
    for i in range(n):
        for j in range(k):
            yield f"{i + 1},{j + 1},{fmt(profile[i, j])}"


def correlation_rows(matrix) -> Iterable[str]:
    for row in matrix.values:
        yield ",".join(fmt(x) for x in row)


def raw_channel_rows(records) -> Iterable[str]:
    for realization, t, f, h in records:
        n, k = h.shape
        for i in range(n):
            for j in range(k):
                yield (f"{realization + 1},{t},{f},{i + 1},{j + 1},"
                       f"{fmt(h[i, j].real)},{fmt(h[i, j].imag)}")


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


def svg_heatmap(hist) -> str:
    counts = hist.counts
    peak = counts.max()
    re0, re1 = hist.re_edges[0], hist.re_edges[-1]
    im0, im1 = hist.im_edges[0], hist.im_edges[-1]
    parts = [_axes(re0, re1, im0, im1)]
    if peak > 0:
        nz = np.argwhere(counts > 0)
        for i, j in nz:
            x = _scale(hist.re_edges[i], re0, re1, _M, _W - _M)
            x2 = _scale(hist.re_edges[i + 1], re0, re1, _M, _W - _M)
            y = _scale(hist.im_edges[j + 1], im0, im1, _H - _M, _M)
            y2 = _scale(hist.im_edges[j], im0, im1, _H - _M, _M)
            shade = int(235 * (1.0 - counts[i, j] / peak))
            parts.append(f'<rect x="{x:.2f}" y="{y:.2f}" width="{x2 - x:.2f}" '
                         f'height="{y2 - y:.2f}" fill="rgb({shade},{shade},255)"/>\n')
    return _svg("".join(parts))


def svg_ecdf(cdf) -> str:
    values, probs = cdf.points()
    return svg_polylines([(values, probs)],
                         (float(values[0]), float(values[-1])), (0.0, 1.0))


def svg_xcorr(payload) -> str:
    centers = 0.5 * (payload["edges"][:-1] + payload["edges"][1:])
    counts = payload["counts"]
    top = max(1, int(counts.max()))
    return svg_polylines([(centers, counts)],
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


def _write(path: str, data: bytes, artifact: str):
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise OSError(f"failed writing artifact {artifact!r} to {path}: {exc}") from exc


def write_bundle(bundle: ReportBundle, out_dir) -> tuple:
    """Write every computed artifact plus the config echo and a manifest.

    Returns (files, manifest) where files maps artifact file names to paths
    and manifest rows are (file name, data rows, sha256 of the file bytes).
    """
    out_dir = str(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    files = {}
    manifest = []

    def emit(file_name: str, data: bytes, rows: int):
        path = os.path.join(out_dir, file_name)
        _write(path, data, file_name)
        files[file_name] = path
        manifest.append((file_name, rows, _sha256(data)))

    echo = json.dumps(config_to_dict(bundle.config), indent=2, sort_keys=True) + "\n"
    emit("config.json", echo.encode(), 0)

    for name, (csv_file, header, rows_of, svg_file, render) in _ARTIFACTS.items():
        if name not in bundle.artifacts:
            continue
        payload = bundle.artifacts[name]
        rows = list(rows_of(payload))
        text = "\n".join(([header] if header else []) + rows) + "\n"
        emit(csv_file, text.encode(), len(rows))
        if svg_file:
            emit(svg_file, render(payload).encode(), 0)

    manifest_rows = sorted(manifest)
    text = "\n".join(["artifact,rows,sha256"]
                     + [f"{a},{r},{s}" for a, r, s in manifest_rows]) + "\n"
    path = os.path.join(out_dir, "manifest.csv")
    _write(path, text.encode(), "manifest.csv")
    files["manifest.csv"] = path
    return files, tuple(manifest_rows)
