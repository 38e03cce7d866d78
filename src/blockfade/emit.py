"""CSV and SVG artifact emission with a sha256 manifest.

Floats are rendered with 17 significant digits so repeated runs diff
byte-identically.  The small writers apply one %-template to the flat list of
their values (``%.17g`` for data, ``%.2f`` for SVG coordinates), ``FILL_ROWS``
rows at a time.  ``raw_channel.csv`` is formatted ``RAW_CHUNK_ROWS`` rows at a
time in two %-passes, from each value's exact ``%.17g`` digits as integers.
Files stream to disk and into their sha256 in chunks.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from itertools import chain
from typing import Iterable

import numpy as np

from .scenario import ReportBundle, config_to_dict

# Rows of raw_channel.csv formatted at a time (~0.1 MiB of text; larger chunks fault more)
RAW_CHUNK_ROWS = 2 ** 11
# Rows of any other CSV or SVG element list formatted at a time
FILL_ROWS = 2 ** 10


def _centers(edges: np.ndarray) -> np.ndarray:
    return 0.5 * (edges[:-1] + edges[1:])


def _cdf_points(values: np.ndarray) -> tuple:
    """(value, cdf) pairs of sorted samples at their unique values: the
    right-continuous empirical CDF (#samples <= value) / n."""
    uniq, counts = np.unique(values, return_counts=True)
    return uniq, np.cumsum(counts) / len(values)


def _fill(template: str, sep: str, *columns) -> str:
    """``template`` applied to each row of the equal-length ``columns``, joined by
    ``sep``: one %-operation per FILL_ROWS rows on their flat row-major values."""
    table = np.stack([np.ravel(column) for column in columns], -1)
    return sep.join(sep.join([template] * len(block)) % tuple(block.ravel().tolist())
                    for block in np.split(table, range(FILL_ROWS, len(table), FILL_ROWS)))


def histogram_rows(hist: dict) -> str:
    centers, counts = _centers(hist["edges"]), hist["counts"]
    i, j = np.indices(counts.shape).reshape(2, -1)
    return _fill("%.17g,%.17g,%d\n", "", centers[i], centers[j], counts)


def ecdf_rows(values: np.ndarray) -> str:
    return _fill("%.17g,%.17g\n", "", *_cdf_points(values))


def xcorr_rows(payload: dict) -> str:
    return _fill("%.17g,%d\n", "", _centers(payload["edges"]), payload["counts"])


def power_profile_rows(profile: np.ndarray) -> str:
    i, j = np.indices(profile.shape).reshape(2, -1) + 1
    return _fill("%d,%d,%.17g\n", "", i, j, profile)


def correlation_rows(matrix: np.ndarray) -> str:
    return _fill(",".join(["%.17g"] * matrix.shape[1]) + "\n", "", *matrix.T)


# Exact %.17g digits for 1e-10 <= |v| < 1e15, where the decimal exponent X of |v|
# lies in [-10, 14].  With 2**(e - 1) <= |v| < 2**e, X is x = floor((e - 1) *
# log10(2)) or x + 1, so k = 16 - X stays in [2, 27], where 5**k < 2**64 (5**28 is
# not), and with |v| = m * 2**e2, 2**52 <= m < 2**53, the shift s = -(e2 + k) stays
# in [1, 60], inside one uint64 word.  The largest double below each power of ten
# in the range lies 8 or more units of the 17th digit below it, so rounding never
# carries D to 10**17.  Other values are formatted by %.17g.
_POW5 = np.array([5 ** k for k in range(28)], dtype=np.uint64)
_POW10 = np.array([10 ** k for k in range(17)], dtype=np.uint64)


@functools.cache
def _layouts() -> tuple:
    """(%-template, fraction digits) of %.17g's layout per (X in [-10, 15], sign,
    significant digits), the %.17g fallback last; built on first use."""
    def layout(x: int, sign: str, digits: int) -> tuple:
        if x < -4:
            frac = digits - 1
            return f"{sign}%d{f'.%0{frac}d' if frac else ''}e-{-x:02d}", frac
        if x < 0:
            return f"{sign}0.{'0' * (-x - 1)}%d", 0
        frac = digits - 1 - x
        return (f"{sign}%d.%0{frac}d", frac) if frac > 0 else (f"{sign}%d{'0' * -frac}", 0)

    templates, fracs = zip(*[layout(x, sign, d) for x in range(-10, 16) for sign in ("", "-")
                             for d in range(1, 18)], ("%.17g", 0))
    return np.array(templates, dtype=object), np.array(fracs)


def _shifted(m: np.ndarray, e2: np.ndarray, x: np.ndarray) -> tuple:
    """(floor(m * 5**k / 2**s), the low word of m * 5**k, s) for k = 16 - x and
    s = -(e2 + k): the 128-bit product hi * 2**64 + lo, built from 32-bit halves."""
    p, low32 = _POW5[16 - x], 2 ** 32 - 1
    low, cross = (m & low32) * (p & low32), (m & low32) * (p >> 32)
    mid = (low >> 32) + (cross & low32) + (m >> 32) * (p & low32)
    hi = (m >> 32) * (p >> 32) + (cross >> 32) + (mid >> 32)
    lo = (mid << 32) | (low & low32)
    s = (x - 16 - e2).astype(np.uint64)
    return (hi << (64 - s)) | (lo >> s), lo, s


def _digits(a: np.ndarray) -> tuple:
    """(D, X) of magnitudes in the exact range: 10**16 <= D < 10**17 are the 17
    significant digits of a rounded half to even, a ~ D * 10**(X - 16)."""
    m, e = np.frexp(a)
    m, e2 = (m * 2.0 ** 53).astype(np.uint64), e - 53
    x = np.floor((e - 1) * np.log10(2.0)).astype(np.int64)
    x += _shifted(m, e2, x)[0] >= 10 ** 17
    q, lo, s = _shifted(m, e2, x)
    rem, half = lo & ((1 << s) - 1), 1 << (s - 1)
    return q + ((rem > half) | ((rem == half) & (q & 1 == 1))), x


def _render(template: str, v: np.ndarray) -> str:
    """template, with one %s slot per value of v, filled as %.17g renders them: a
    first %-pass puts in each value's layout, a second applies it to the flat tuple
    of the digits split at the decimal point (the float, outside the exact range)."""
    a = np.abs(v)
    exact = (a >= 1e-10) & (a < 1e15)
    d, x = _digits(np.where(exact, a, 1.0))
    digits = np.full(len(d), 17)
    for w in (16, 8, 4, 2, 1):  # strip the trailing zeros (// by a scalar uses libdivide)
        whole = d // _POW10[w]
        zeros = whole * _POW10[w] == d
        d, digits = np.where(zeros, whole, d), digits - w * zeros
    templates, fracs = _layouts()
    code = np.where(exact, ((x + 10) * 2 + np.signbit(v)) * 17 + digits - 1, -1)
    # whole digits or the float, then the fraction digits where the layout has them
    used = np.stack((np.ones_like(exact), fracs[code] > 0), -1).ravel()
    args = np.stack(np.divmod(d, _POW10[fracs[code]]), -1).ravel()[used].tolist()
    for at, value in zip((np.cumsum(used)[::2][~exact] - 1).tolist(), v[~exact].tolist()):
        args[at] = value
    return (template % tuple(templates[code].tolist())) % tuple(args)


def raw_channel_rows(kept: np.ndarray) -> Iterable[str]:
    """Rows of the (realizations, t_max, f_max, N, K) channel array in C order, in
    chunks of at most RAW_CHUNK_ROWS rows: per RB a copy of one row template with
    all indices baked in, its (re, im) slots filled by _render's two %-passes."""
    n, k = kept.shape[-2:]
    cells = [f"@{i},{j},%s,%s\n" for i in range(1, n + 1) for j in range(1, k + 1)]
    per_rb = kept.reshape(-1, n * k)
    rbs, part = max(1, RAW_CHUNK_ROWS // (n * k)), min(n * k, RAW_CHUNK_ROWS)
    for a in range(0, len(per_rb), rbs):
        rb = np.unravel_index(np.arange(a, min(a + rbs, len(per_rb))), kept.shape[:3])
        prefixes = [f"{m},{t},{f}," for m, t, f in (np.transpose(rb) + 1).tolist()]
        for s in range(0, n * k, part):
            values = per_rb[a:a + rbs, s:s + part]
            template = "".join(cells[s:s + part])
            yield _render("".join(template.replace("@", prefix) for prefix in prefixes),
                          np.stack((values.real, values.imag), -1).ravel())


# ---------------------------------------------------------------------------
# minimal self-contained SVG renderings

_W, _H, _M = 640, 480, 56.0


def _svg(inner: str) -> str:
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}">\n<rect width="{_W}" height="{_H}" fill="white"/>\n'
            f"{inner}</svg>\n")


def _axes(x0, x1, y0, y1) -> str:
    return (
        f'<line x1="{_M}" y1="{_H - _M}" x2="{_W - _M}" y2="{_H - _M}" stroke="black"/>\n'
        f'<line x1="{_M}" y1="{_M}" x2="{_M}" y2="{_H - _M}" stroke="black"/>\n'
        f'<text x="{_M}" y="{_H - _M + 16}" font-size="11">{x0:.6g}</text>\n'
        f'<text x="{_W - _M}" y="{_H - _M + 16}" font-size="11" text-anchor="end">{x1:.6g}</text>\n'
        f'<text x="{_M - 4}" y="{_H - _M}" font-size="11" text-anchor="end">{y0:.6g}</text>\n'
        f'<text x="{_M - 4}" y="{_M + 4}" font-size="11" text-anchor="end">{y1:.6g}</text>\n')


def _scale(v, lo, hi, out_lo, out_hi) -> np.ndarray:
    span = hi - lo if hi > lo else 1.0
    return out_lo + (np.asarray(v, dtype=float) - lo) / span * (out_hi - out_lo)


def svg_polylines(series, x_range, y_range) -> str:
    """Line plot of one or more (xs, ys) series."""
    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
    x0, x1 = x_range
    y0, y1 = y_range
    parts = [_axes(x0, x1, y0, y1)]
    for k, (xs, ys) in enumerate(series):
        pts = _fill("%.2f,%.2f", " ", _scale(xs, x0, x1, _M, _W - _M),
                    _scale(ys, y0, y1, _H - _M, _M))
        parts.append(f'<polyline fill="none" stroke="{colors[k % len(colors)]}" '
                     f'stroke-width="1.5" points="{pts}"/>\n')
    return _svg("".join(parts))


def svg_heatmap(hist: dict) -> str:
    edges, counts = hist["edges"], hist["counts"]
    peak = counts.max()
    lo, hi = edges[0], edges[-1]
    i, j = np.nonzero(counts)  # no rectangles when every count is 0
    x = _scale(edges[i], lo, hi, _M, _W - _M)
    x2 = _scale(edges[i + 1], lo, hi, _M, _W - _M)
    y = _scale(edges[j + 1], lo, hi, _H - _M, _M)
    y2 = _scale(edges[j], lo, hi, _H - _M, _M)
    shade = (235 * (1.0 - counts[i, j] / peak)).astype(np.int64)
    return _svg(_axes(lo, hi, lo, hi) + _fill(
        '<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="rgb(%d,%d,255)"/>\n', "",
        x, y, x2 - x, y2 - y, shade, shade))


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

# name -> (CSV file, CSV header or None, rows formatter, SVG file or None,
# SVG renderer), in the order the files are written; a formatter ends each row
# with a newline
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
            for data in map(str.encode, chunks):
                fh.write(data)
                digest.update(data)
                del data  # freed before the next chunk is formatted
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
        head = [header + "\n"] if header else []
        if name == "raw-channel":
            emit(csv_file, chain(head, rows_of(payload)), payload.size)
        else:
            text = rows_of(payload)
            emit(csv_file, head + [text], text.count("\n"))
        if svg_file:
            emit(svg_file, [render(payload)], 0)

    manifest_rows = sorted(manifest)
    text = "\n".join(["artifact,rows,sha256"]
                     + [f"{a},{r},{s}" for a, r, s in manifest_rows]) + "\n"
    files["manifest.csv"] = os.path.join(out_dir, "manifest.csv")
    _write(files["manifest.csv"], [text], "manifest.csv")
    return files, tuple(manifest_rows)
