"""Property tests: a document that validates also simulates and round-trips,
and its artifacts do not depend on how the run splits its work.

Hypothesis generates small scenario documents (N <= 8, 1-3 users, 1-2
clusters, a grid of at most 3x3 RBs, at most 3 realizations), some with one
field replaced by a bad value.  The runs are derandomized and keep no example
database, so the suite draws the same examples every time and writes no
files.  ``simulate --out`` runs with warnings as errors and must leave
stderr empty on success, or write exactly one error line.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blockfade import ConfigError, NumericalError, parse_config, run_scenario, scenario
from blockfade.cli import main
from blockfade.scenario import ARTIFACT_NAMES, config_from_dict, config_to_dict

BAD_VALUES = (True, False, "0.5", 2.5, -1, 0, None, [], {}, [[1.0]],
              math.nan, math.inf, 1e300)

@st.composite
def correlation_matrices(draw, n):
    """A real n x n correlation matrix cos(a_i - a_j): symmetric, unit diagonal, PSD."""
    angles = np.array(draw(st.lists(st.floats(0.0, 3.14), min_size=n, max_size=n)))
    return np.cos(np.subtract.outer(angles, angles)).tolist()


@st.composite
def documents(draw):
    n = draw(st.integers(1, 8))
    power = st.one_of(st.floats(0.1, 4.0),
                      st.lists(st.floats(0.1, 4.0), min_size=n, max_size=n))
    cluster = st.fixed_dictionaries({
        "direction": st.one_of(st.floats(0.0, 3.14), st.just("random")),
        "spread_fraction": st.floats(0.0, 1.0), "mean_power": power})
    grid = {"t_max": draw(st.integers(1, 3)), "f_max": draw(st.integers(1, 3))}
    doc = {"seed": draw(st.integers(0, 2 ** 64 - 1)),
           "geometry": {"n_antennas": n, "spacing_ratio": draw(st.floats(0.1, 1.0))},
           "users": draw(st.lists(st.fixed_dictionaries(
               {"clusters": st.lists(cluster, min_size=1, max_size=2)}),
               min_size=1, max_size=3)),
           "grid": grid,
           "realizations": draw(st.integers(1, 3)),
           "outputs": draw(st.lists(st.sampled_from(ARTIFACT_NAMES), unique=True)),
           "bins": draw(st.integers(1, 4))}
    mode = draw(st.sampled_from(("none", "time", "frequency")))
    if mode == "none":
        doc["correlation"] = {"mode": "none"}
    else:
        length = grid["t_max" if mode == "time" else "f_max"]
        if draw(st.booleans()):
            doc["correlation"] = {"mode": mode, "model": "exponential",
                                  "rho": draw(st.floats(0.0, 0.99)), "length": length}
        else:
            doc["correlation"] = {"mode": mode, "model": "custom",
                                  "matrix": draw(correlation_matrices(length))}
    if draw(st.booleans()):
        _mutate(doc, draw)
    return doc


def _mutate(doc, draw):
    """Replace one field of the document with a bad value."""
    cluster = doc["users"][0]["clusters"][0]
    targets = [(doc, key) for key in doc]
    targets += [(doc["geometry"], key) for key in doc["geometry"]]
    targets += [(doc["grid"], key) for key in doc["grid"]]
    targets += [(doc["correlation"], key) for key in doc["correlation"]]
    targets += [(cluster, key) for key in cluster]
    parent, key = draw(st.sampled_from(targets))
    parent[key] = draw(st.sampled_from(BAD_VALUES))


def _simulate(argv):
    """``main(argv)`` with numpy warnings as errors: its exit code and stderr lines."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    return code, err.getvalue().splitlines()


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(doc=documents(), threads=st.sampled_from((1, 2, 3)),
       seed=st.sampled_from((None, 0, 2 ** 64 - 1, -1, 2 ** 64)))
def test_document_that_validates_simulates_and_round_trips(doc, threads, seed):
    text = json.dumps(doc)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(text)
        code = main(["validate", str(path)])
        try:
            config = parse_config(text)
        except ConfigError:
            assert code == 2
            return
        assert code == 0
        assert config_from_dict(config_to_dict(config)) == config
        # simulate runs parse_config -> run_scenario -> write_bundle at the drawn --threads
        # and --seed (-1 and 2**64 are out of range); any exception other than
        # ConfigError/NumericalError escapes main, and a numpy warning on the way raises
        argv = ["simulate", str(path)] + ([] if seed is None else ["--seed", str(seed)])
        out, one = Path(tmp) / "out", Path(tmp) / "one"
        code, lines = _simulate(argv + ["--threads", str(threads), "--out", str(out)])
        assert (code == 2) if seed in (-1, 2 ** 64) else (code in (0, 3))
        if code == 0:
            assert lines == []
            if threads > 1:  # the same files as at one thread
                assert _simulate(argv + ["--threads", "1", "--out", str(one)]) == (0, [])
                manifest = (out / "manifest.csv").read_bytes()
                assert (one / "manifest.csv").read_bytes() == manifest
        else:
            assert len(lines) == 1
            assert lines[0].startswith(("config error:", "numerical failure:",
                                        "i/o failure:"))


@pytest.mark.parametrize("name", BAD_VALUES, ids=repr)
def test_bad_preset_name_exits_2(name, tmp_path, capsys):
    # a list or a dict cannot name a preset; it must not escape as a TypeError
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"preset": name}))
    assert main(["validate", str(path)]) == 2
    assert main(["simulate", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("config error: unknown preset")
                                 for line in err)


def _artifact_bytes(config, threads):
    """Every artifact's bytes, or the numerical failure, of one run."""
    try:
        artifacts = run_scenario(config, threads=threads).artifacts
    except NumericalError as exc:
        return f"numerical failure: {exc}"
    return {(name, part): (a.shape, a.tobytes()) for name, payload in artifacts.items()
            for part, a in (payload.items() if isinstance(payload, dict) else [(None, payload)])}


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(doc=documents(), exponent=st.integers(0, 18), threads=st.sampled_from((1, 2, 3)))
def test_artifacts_do_not_depend_on_the_split(doc, exponent, threads):
    # DRAW_BLOCK_UNIFORMS fixes the chunks, the link blocks of a one-realization
    # chunk and the statistics' RB blocks.  A time row of these documents holds at
    # most 3 x 24 channel or Gram entries, so only a split of 2**6 or less cuts one
    several = isinstance(doc["users"], list) and len(doc["users"]) > 1
    doc["outputs"] = [name for name in ARTIFACT_NAMES if several or "correlation" not in name]
    try:
        config = parse_config(json.dumps(doc))
    except ConfigError:
        assume(False)
    default = _artifact_bytes(config, 1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenario, "DRAW_BLOCK_UNIFORMS", 2 ** exponent)
        assert _artifact_bytes(config, threads) == default
