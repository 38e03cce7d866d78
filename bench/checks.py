"""Output checks applied to every benchmark pass.

A pass is correct only if, for each of its command lines, the manifest
lists exactly the expected artifacts with the expected row counts and the
digests of the bytes on disk, the artifacts meet their invariants, and, at
the default workload seed, their values match the reference recorded in
``reference.json``.

Reference tolerance: floats must agree to a relative 1e-9 (absolute 1e-12
near zero), histogram counts to a total absolute difference of
max(4, 1e-4 x samples).  A last-place change (another eigen solver, a BLAS
build that sums in another order) moves values by ~1e-15 relative and a
handful of samples across a bin edge; a change in the order random draws
are consumed changes every value at the statistical noise level
(~1e-2 relative) and hundreds of counts.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

RTOL = 1e-9
ATOL = 1e-12
COUNT_TOL_FRACTION = 1e-4
COUNT_TOL_MIN = 4

_FILES = {
    "histogram": ("histogram.csv", "histogram.svg"),
    "cross-correlation": ("xcorr_hist.csv", "xcorr_hist.svg"),
    "eigencdf": ("eigencdf.csv", "eigencdf.svg"),
    "power-profile": ("power_profile.csv", "power_profile.svg"),
    "correlation-matrix": ("correlation_matrix.csv",),
    "raw-channel": ("raw_channel.csv",),
}

_HEADERS = {
    "histogram.csv": "re_center,im_center,count",
    "xcorr_hist.csv": "magnitude_center,count",
    "eigencdf.csv": "eigenvalue,cdf",
    "power_profile.csv": "antenna_index,user_index,mean_power",
    "correlation_matrix.csv": None,
    "raw_channel.csv": "realization,t,f,antenna,user,re,im",
}

# Every RAW_STRIDE-th raw-channel row enters the reference summary.
RAW_STRIDE = 1531
EIGEN_STRIDE = 60


class CheckError(Exception):
    """An artifact failed a check; the message says which and why."""


def expected_rows(inv) -> dict:
    """Data rows of every file the invocation must write, by file name."""
    rbs = inv.realizations * inv.t_max * inv.f_max
    rows = {"histogram.csv": inv.bins ** 2,
            "xcorr_hist.csv": inv.bins,
            "eigencdf.csv": rbs * inv.n_users,
            "power_profile.csv": inv.n_antennas * inv.n_users,
            "correlation_matrix.csv": inv.n_users,
            "raw_channel.csv": rbs * inv.n_antennas * inv.n_users}
    out = {"config.json": 0}
    for name in inv.outputs:
        for f in _FILES[name]:
            out[f] = rows.get(f, 0)
    return out


def _read_manifest(out_dir) -> dict:
    path = os.path.join(out_dir, "manifest.csv")
    if not os.path.exists(path):
        raise CheckError("manifest.csv missing")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "artifact,rows,sha256":
        raise CheckError("manifest.csv has no artifact,rows,sha256 header")
    entries = {}
    for line in lines[1:]:
        name, rows, digest = line.split(",")
        entries[name] = (int(rows), digest)
    return entries


def _data_lines(data: bytes, file_name: str) -> list:
    if not data.endswith(b"\n"):
        raise CheckError(f"{file_name} does not end with a newline")
    lines = data[:-1].split(b"\n")
    header = _HEADERS[file_name]
    if header is not None:
        if lines[0].decode() != header:
            raise CheckError(f"{file_name} header is {lines[0][:80]!r}, expected {header!r}")
        lines = lines[1:]
    return lines


def _table(lines, file_name, cols) -> np.ndarray:
    try:
        table = np.array([[float(x) for x in ln.split(b",")] for ln in lines], dtype=float)
    except ValueError as exc:
        raise CheckError(f"{file_name}: unparsable value ({exc})") from exc
    if table.shape != (len(lines), cols) or not np.isfinite(table).all():
        raise CheckError(f"{file_name}: expected {cols} finite columns per row")
    return table


def _require(cond, message):
    if not cond:
        raise CheckError(message)


def _check_file(file_name, lines, inv) -> dict:
    """Invariants of one artifact; returns its reference summary."""
    rbs = inv.realizations * inv.t_max * inv.f_max
    if file_name == "correlation_matrix.csv":
        m = _table(lines, file_name, inv.n_users)
        off = m[~np.eye(len(m), dtype=bool)]
        _require(np.abs(m - m.T).max() <= ATOL, "correlation matrix is not symmetric")
        _require(np.abs(np.diag(m) - 1.0).max() <= ATOL, "correlation diagonal is not 1")
        _require(((off >= 0.0) & (off <= 1.0 + ATOL)).all(),
                 "correlation off-diagonal outside [0, 1]")
        return {"values": m.ravel().tolist()}
    if file_name == "eigencdf.csv":
        t = _table(lines, file_name, 2)
        _require((np.diff(t[:, 0]) >= 0).all(), "eigenvalues are not sorted")
        _require((np.diff(t[:, 1]) >= 0).all(), "eigen CDF decreases")
        _require(abs(t[-1, 1] - 1.0) <= ATOL, "eigen CDF does not end at 1")
        return {"values": np.append(t[::EIGEN_STRIDE, 0], t[:, 0].mean()).tolist()}
    if file_name == "histogram.csv":
        t = _table(lines, file_name, 3)
        total = rbs * inv.n_antennas * inv.n_users
        _require(t[:, 2].sum() == total,
                 f"histogram counts sum to {t[:, 2].sum():.0f}, expected N*K*R = {total}")
        return {"values": t[:1, 0].tolist(), "counts": t[:, 2].astype(int).tolist()}
    if file_name == "xcorr_hist.csv":
        t = _table(lines, file_name, 2)
        total = rbs * inv.n_users * (inv.n_users - 1) // 2
        _require(t[:, 1].sum() == total,
                 f"cross-correlation counts sum to {t[:, 1].sum():.0f}, expected {total}")
        return {"values": t[:1, 0].tolist(), "counts": t[:, 1].astype(int).tolist()}
    if file_name == "power_profile.csv":
        t = _table(lines, file_name, 3)
        _require((t[:, 2] > 0).all(), "power profile has a non-positive entry")
        return {"values": t[:, 2].tolist()}
    # raw_channel.csv: row i is (realization, t, f, antenna, user) in
    # row-major order; check the sampled rows' indices and values.
    picks = range(0, len(lines), RAW_STRIDE)
    t = _table([lines[i] for i in picks], file_name, 7)
    per = [inv.t_max, inv.f_max, inv.n_antennas, inv.n_users]
    for row, i in zip(t, picks):
        idx, rest = [], i
        for size in reversed(per):
            idx.append(rest % size + 1)
            rest //= size
        want = [rest + 1] + idx[::-1]
        _require(row[:5].tolist() == want, f"raw-channel row {i + 1} indices "
                 f"{row[:5].astype(int).tolist()}, expected {want}")
    return {"values": t[:, 5:].ravel().tolist()}


def check_output(out_dir, inv) -> dict:
    """Check one invocation's artifact directory; returns its summary."""
    manifest = _read_manifest(out_dir)
    want = expected_rows(inv)
    _require(sorted(manifest) == sorted(want),
             f"manifest lists {sorted(manifest)}, expected {sorted(want)}")
    for file_name, expected in want.items():
        _require(manifest[file_name][0] == expected, f"{file_name}: manifest says "
                 f"{manifest[file_name][0]} rows, expected {expected}")
    summary = {}
    for file_name in want:
        rows, digest = manifest[file_name]
        with open(os.path.join(out_dir, file_name), "rb") as fh:
            data = fh.read()
        _require(hashlib.sha256(data).hexdigest() == digest,
                 f"{file_name}: bytes do not match the manifest sha256")
        if file_name in _HEADERS:
            lines = _data_lines(data, file_name)
            _require(len(lines) == rows, f"{file_name}: {len(lines)} data rows, "
                     f"manifest says {rows}")
            summary[file_name] = _check_file(file_name, lines, inv)
        elif file_name == "config.json":
            echo = json.loads(data)
            _require((echo["seed"], echo["realizations"], len(echo["users"]))
                     == (inv.seed, inv.realizations, inv.n_users),
                     "config.json echo does not match the scenario run")
    return summary


def compare_reference(summary: dict, reference: dict) -> None:
    """Raise CheckError unless ``summary`` matches ``reference`` within tolerance."""
    _require(sorted(summary) == sorted(reference),
             f"artifacts {sorted(summary)} differ from reference {sorted(reference)}")
    for file_name, ref in reference.items():
        got = summary[file_name]
        a, b = np.asarray(got["values"]), np.asarray(ref["values"])
        _require(a.shape == b.shape and np.allclose(a, b, rtol=RTOL, atol=ATOL),
                 f"{file_name}: values differ from the reference beyond rtol {RTOL:g}")
        if "counts" in ref:
            a, b = np.asarray(got["counts"]), np.asarray(ref["counts"])
            tol = max(COUNT_TOL_MIN, COUNT_TOL_FRACTION * b.sum())
            _require(a.shape == b.shape and np.abs(a - b).sum() <= tol,
                     f"{file_name}: counts differ from the reference by more than {tol:g}")


def same_bytes(dir_a, dir_b) -> None:
    """Raise CheckError unless both artifact directories are byte-identical."""
    for name in sorted(set(os.listdir(dir_a)) | set(os.listdir(dir_b))):
        paths = [os.path.join(d, name) for d in (dir_a, dir_b)]
        if not all(os.path.exists(p) for p in paths):
            raise CheckError(f"{name} is written by only one thread count")
        with open(paths[0], "rb") as fa, open(paths[1], "rb") as fb:
            if fa.read() != fb.read():
                raise CheckError(f"{name} differs between thread counts")
