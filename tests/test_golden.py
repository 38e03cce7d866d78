"""Golden digests: the sha256 of every artifact that a fixed set of small
scenarios writes, stored in ``tests/golden.json``.

The cases are every preset at reduced realizations and bins, plus a
time-correlated and a frequency-correlated multi-RB case, the only ones
that pin the (t, f) order of the resource blocks.

On the platform the digests were recorded on (numpy version and BLAS) every
artifact must be byte-identical.  Elsewhere BLAS kernels may round
differently, so the CSV artifacts are compared by value at rtol 1e-12
against the stored copies and ``config.json`` by bytes; SVGs are skipped.

After an intended change of the outputs, list what moved with
``PYTHONPATH=src python tests/test_golden.py --diff`` (it writes nothing),
then re-record with ``PYTHONPATH=src python tests/test_golden.py`` and give
the reason and the listing in CHANGES.md.
"""

import json
import os
import sys
from dataclasses import replace

import numpy as np
import pytest

from blockfade import expand_preset, run_scenario
from blockfade.scenario import PRESET_NAMES, config_from_dict

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
ALL_OUTPUTS = ["histogram", "cross-correlation", "eigencdf", "power-profile",
               "correlation-matrix", "raw-channel"]


def _correlated_doc(mode: str) -> dict:
    if mode == "time":
        grid = {"t_max": 3, "f_max": 2}
        correlation = {"mode": "time", "model": "exponential", "rho": 0.8, "length": 3}
    else:
        grid = {"t_max": 2, "f_max": 3}
        correlation = {"mode": "frequency", "model": "custom",
                       "matrix": [[1.0, 0.5, 0.2], [0.5, 1.0, 0.5], [0.2, 0.5, 1.0]]}
    users = [{"clusters": [{"direction": 0.4, "spread_fraction": 0.3,
                            "mean_power": [0.5, 1.0, 1.5, 2.0]},
                           {"direction": "random", "spread_fraction": 0.9,
                            "mean_power": 0.5}]},
             {"clusters": [{"direction": 2.0, "spread_fraction": 0.6}]}]
    return {"seed": 11, "geometry": {"n_antennas": 4}, "users": users, "grid": grid,
            "correlation": correlation, "realizations": 3, "outputs": ALL_OUTPUTS,
            "bins": 8}


def _cases() -> dict:
    cases = {name: replace(expand_preset(name), realizations=20, bins=8)
             for name in PRESET_NAMES}
    for mode in ("time", "frequency"):
        cases[f"{mode}-correlated"] = config_from_dict(_correlated_doc(mode))
    return cases


def platform() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        name = "unknown"
    return {"numpy": np.__version__, "blas": name}


def _run(config, out_dir) -> tuple:
    """(sha256 per manifest entry, text per CSV artifact) of one run."""
    bundle = run_scenario(config, out_dir=out_dir)
    digests = {name: digest for name, _, digest in bundle.manifest}
    csv = {}
    for name in digests:
        if name.endswith(".csv"):
            with open(bundle.files[name], encoding="utf-8") as fh:
                csv[name] = fh.read()
    return digests, csv


def _values(text: str) -> np.ndarray:
    lines = text.splitlines()
    if lines and any(c.isalpha() for c in lines[0]):
        lines = lines[1:]
    return np.array([[float(x) for x in line.split(",")] for line in lines])


def record(path: str = GOLDEN_PATH) -> None:
    import tempfile
    cases = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, config in sorted(_cases().items()):
            digests, csv = _run(config, os.path.join(tmp, name))
            cases[name] = {"sha256": digests, "csv": csv}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"platform": platform(), "cases": cases}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def diff(path: str = GOLDEN_PATH) -> None:
    """Print, per case, the artifacts whose digest differs from the stored one and,
    for a CSV, its largest value difference |got - want| / (|want| + scale), scale
    the largest |want|: the off-platform comparison bounds it by 1e-12."""
    import tempfile
    with open(path, encoding="utf-8") as fh:
        cases = json.load(fh)["cases"]
    with tempfile.TemporaryDirectory() as tmp:
        for name, config in sorted(_cases().items()):
            want = cases[name]
            digests, csv = _run(config, os.path.join(tmp, name))
            changed = []
            for artifact in sorted(set(digests) | set(want["sha256"])):
                if digests.get(artifact) == want["sha256"].get(artifact):
                    continue
                if artifact in csv and artifact in want["csv"]:
                    got, expected = _values(csv[artifact]), _values(want["csv"][artifact])
                    if got.shape != expected.shape:
                        artifact += f" (shape {got.shape}, stored {expected.shape})"
                    else:
                        bound = np.abs(expected) + np.abs(expected).max(initial=0.0)
                        rel = np.abs(got - expected) / np.where(bound > 0, bound, 1.0)
                        artifact += f" {rel.max(initial=0.0):.2g}"
                changed.append(artifact)
            print(f"{name}: {', '.join(changed) or 'unchanged'}")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", sorted(_cases()))
def test_artifacts_match_golden(case, golden, tmp_path):
    want = golden["cases"][case]
    digests, csv = _run(_cases()[case], tmp_path)
    assert sorted(digests) == sorted(want["sha256"])
    if golden["platform"] == platform():
        assert digests == want["sha256"]
        return
    assert digests["config.json"] == want["sha256"]["config.json"]
    for name, text in want["csv"].items():
        expected = _values(text)
        got = _values(csv[name])
        assert got.shape == expected.shape, name
        scale = float(np.abs(expected).max(initial=0.0))
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * scale,
                                   err_msg=name)


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        diff()
    else:
        record(sys.argv[1] if len(sys.argv) > 1 else GOLDEN_PATH)
        print(f"recorded {sys.argv[1] if len(sys.argv) > 1 else GOLDEN_PATH}")
