"""Property test: a document that validates also simulates and round-trips.

Hypothesis generates small scenario documents (N <= 8, 1-3 users, 1-2
clusters, a grid of at most 3x3 RBs, at most 3 realizations), some with one
field replaced by a bad value.  The run is derandomized and keeps no example
database, so the suite draws the same examples every time and writes no
files.
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from blockfade import ConfigError, parse_config
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


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(doc=documents())
def test_document_that_validates_simulates_and_round_trips(doc):
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
        # simulate runs parse_config -> run_scenario -> write_bundle; any
        # exception other than ConfigError/NumericalError escapes main
        assert main(["simulate", str(path), "--out", str(Path(tmp) / "out")]) in (0, 3)
