"""Tests for configuration parsing, presets, and the scenario runner."""

import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import fields, replace

import numpy as np
import pytest

import blockfade
from blockfade import (ArrayGeometry, ClusterSpec, ConfigError, CorrelationSpec, NumericalError,
                       ResourceGrid, ScenarioConfig, UserSpec, expand_preset,
                       parse_config, power_profile, run_scenario, substream)
from blockfade.model import link_means, link_table
from blockfade.scenario import (ARTIFACT_NAMES, DRAW_BLOCK_UNIFORMS, MAX_ARRAY_ENTRIES,
                                PRESET_NAMES, _Workspace, _plan, _require_finite,
                                config_to_dict)
from blockfade.stochastic import correlate, sample_link_grids

MINIMAL = {
    "seed": 7,
    "geometry": {"n_antennas": 4},
    "users": [{"clusters": [{"direction": 0.0, "spread_fraction": 1.0,
                             "mean_power": 1.0}]}],
    "realizations": 1,
}


# sha256 of each preset's config.json echo, as write_bundle writes it at
# the preset's own realizations and bins
_PRESET_ECHO_SHA256 = {
    "iid": "423d23ce80082bd668628df663a14554347f3a02a5be6f964cbd65d607c04ed3",
    "nlos": "a9d1100e00b1ffa5b8a595918b72568247400a303011e4f3b87437582062b7a8",
    "los": "77831510fcdc1e2ebf6092aade3252a1179ca3845372af2cf7770c9f0259d304",
    "paper-A": "05c543aff127cdf522100321ebfb717d47a190c411df041a10aaccd2514151c9",
    "paper-B": "2a8e8ef6a6160a83da8d72267ef1b262f732e6a2c130b500508dcdef02270a10",
    "paper-C": "5c963af76d549d6c5973488488b08f42637045d9d4d32d14af0bcf6d6dd201c4",
    "paper-D": "e9a4963f320c750077db4b9bcd1eea0b75e34c361640a6e4275ccfd9c5561a72",
    "fig2": "bf450816b57cd3b948f44256cb173d3acfb0ae614d6506feebcf5855432ad580",
    "fig3": "eb67789ab2889a1724eb9babae9ef0f0d5e9dc35c8b5231dfa1dc93547e3caf4",
    "fig4": "46b5e208a7ccaee31b9a23261734d361486490f44d42d02c368d11836ed7c1af",
    "fig5": "ceefe29b8c235523160ad64e0a945aeb13e724b5919911f97b476739e4987016",
    "fig6": "084741e3d70c653b241361c1e7f8172ffe0ae96958af61048899b35d7e23b507",
}


def _doc(**overrides):
    doc = json.loads(json.dumps(MINIMAL))
    doc.update(overrides)
    return doc


class TestParseConfig:
    def test_minimal_defaults(self):
        config = parse_config(json.dumps(MINIMAL))
        assert config.geometry.spacing_ratio == 0.25
        assert config.correlation.mode == "none"
        assert config.bins == 64
        assert config.grid.t_max == config.grid.f_max == 1
        assert config.outputs == ()

    def test_syntax_error_reports_position(self):
        with pytest.raises(ConfigError, match=r"line 1, column"):
            parse_config("{not json}")

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="snr"):
            parse_config(json.dumps(_doc(snr=10)))

    def test_spread_constraint_named(self):
        doc = _doc()
        doc["users"][0]["clusters"][0]["spread_fraction"] = 1.5
        with pytest.raises(ConfigError, match=r"spread_fraction.*\[0, 1\]"):
            parse_config(json.dumps(doc))

    def test_missing_key_named(self):
        doc = _doc()
        del doc["seed"]
        with pytest.raises(ConfigError, match="seed"):
            parse_config(json.dumps(doc))

    # (path in the document, spec type whose fields are the keys there)
    LEVELS = [((), ScenarioConfig), (("geometry",), ArrayGeometry), (("grid",), ResourceGrid),
              (("users", 0), UserSpec), (("users", 0, "clusters", 0), ClusterSpec),
              (("correlation",), None)]

    @staticmethod
    def _level(doc, level):
        """The object at ``level`` in ``doc`` and its path as errors print it."""
        path = "config"
        for key in level:
            doc = doc[key]
            path += f"[{key}]" if isinstance(key, int) else f".{key}"
        return doc, path

    @pytest.mark.parametrize("level, spec", LEVELS,
                             ids=["config", "geometry", "grid", "users", "clusters", "correlation"])
    def test_unknown_key_named_at_every_level(self, level, spec):
        doc = _doc(grid={"t_max": 2}, correlation={"mode": "time", "model": "exponential",
                                                   "rho": 0.5, "length": 2})
        target, path = self._level(doc, level)
        target["snr"] = 10
        # the correlation object is the one whose keys are not a spec's fields
        allowed = sorted(f.name for f in fields(spec)) if spec else \
            ["length", "mode", "model", "rho"]
        message = f"{path}: unknown key 'snr' (allowed: {allowed})"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize("level, key", [
        ((), "seed"), ((), "geometry"), ((), "users"), ((), "realizations"),
        (("geometry",), "n_antennas"), (("users", 0), "clusters"),
        (("users", 0, "clusters", 0), "direction"),
        (("users", 0, "clusters", 0), "spread_fraction"),
        (("correlation",), "rho"), (("correlation",), "length")],
        ids=lambda v: ".".join(map(str, ("config",) + v)) if isinstance(v, tuple) else v)
    def test_missing_required_key_named_at_every_level(self, level, key):
        doc = _doc(grid={"t_max": 2}, correlation={"mode": "time", "model": "exponential",
                                                   "rho": 0.5, "length": 2})
        target, path = self._level(doc, level)
        del target[key]
        message = f"{path}: missing required key {key!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(json.dumps(doc))

    def test_correlation_grid_mismatch(self):
        doc = _doc(grid={"t_max": 4},
                   correlation={"mode": "time", "model": "exponential",
                                "rho": 0.5, "length": 8})
        with pytest.raises(ConfigError, match="t_max"):
            parse_config(json.dumps(doc))

    def test_custom_correlation_validated(self):
        doc = _doc(grid={"t_max": 2},
                   correlation={"mode": "time", "model": "custom",
                                "matrix": [[1.0, 2.0], [2.0, 1.0]]})
        with pytest.raises(ConfigError, match="eigenvalue"):
            parse_config(json.dumps(doc))

    def test_preset_reference(self):
        config = parse_config(json.dumps({"preset": "paper-A"}))
        assert config.geometry.n_antennas == 128
        assert config.n_users == 3
        assert config.realizations == 1000
        spreads = [c.spread_fraction for c in config.users[0].clusters]
        assert spreads == [0.6, 0.8, 1.0]

    def test_preset_with_extra_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(json.dumps({"preset": "paper-A", "seed": 1}))

    def test_unknown_output_rejected(self):
        with pytest.raises(ConfigError, match="unknown output"):
            parse_config(json.dumps(_doc(outputs=["spectrogram"])))

    @pytest.mark.parametrize("value", [True, 2.5])
    @pytest.mark.parametrize("field", [
        ("seed",), ("realizations",), ("bins",), ("geometry", "n_antennas"),
        ("grid", "t_max"), ("grid", "f_max"), ("grid", "symbols_per_rb"),
        ("correlation", "length")], ids=".".join)
    def test_integer_fields_reject_bools_and_floats(self, field, value):
        doc = _doc(grid={"t_max": 2, "f_max": 1, "symbols_per_rb": 1}, bins=8,
                   correlation={"mode": "time", "model": "exponential",
                                "rho": 0.5, "length": 2})
        target = doc
        for key in field[:-1]:
            target = target[key]
        target[field[-1]] = value
        with pytest.raises(ConfigError, match=field[-1]):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize("field, value", [
        ("spread_fraction", True), ("direction", False), ("mean_power", "2"),
        ("mean_power", [1.0, True, 1.0, 1.0]), ("spacing_ratio", True),
        ("rho", False), ("rho", "0.5"), ("matrix", [["1"]])])
    def test_real_fields_reject_bools_and_strings(self, field, value):
        doc = _doc()
        if field == "spacing_ratio":
            doc["geometry"][field] = value
        elif field == "rho":
            doc.update(grid={"t_max": 2}, correlation={"mode": "time", "rho": value,
                                                       "length": 2})
        elif field == "matrix":
            doc["correlation"] = {"mode": "time", "model": "custom", "matrix": value}
        else:
            doc["users"][0]["clusters"][0][field] = value
        with pytest.raises(ConfigError, match=field):
            parse_config(json.dumps(doc))

    def test_correlation_outputs_need_two_users(self):
        with pytest.raises(ConfigError, match="two users"):
            parse_config(json.dumps(_doc(outputs=["correlation-matrix"])))

    @pytest.mark.parametrize("n_antennas, users, t_max, length, bins, ok", [
        (2 ** 9, 2, 2 ** 14, None, 64, True),           # channel tensor at the limit
        (2 ** 9, 3, 2 ** 14, None, 64, False),
        (4, 1, 2 ** 12, 2 ** 12, 64, True),             # covariance at the limit
        (4, 1, 2 ** 12 + 1, 2 ** 12 + 1, 64, False),
        (4, 1, 1, None, 2 ** 12, True),                 # histogram at the limit
        (4, 1, 1, None, 2 ** 12 + 1, False),
    ])
    def test_size_limit(self, n_antennas, users, t_max, length, bins, ok):
        # parsing builds no array, so the limit is checked without allocating
        doc = _doc(geometry={"n_antennas": n_antennas}, grid={"t_max": t_max}, bins=bins)
        doc["users"] *= users
        if length is not None:
            doc["correlation"] = {"mode": "time", "model": "exponential", "rho": 0.5,
                                  "length": length}
        assert MAX_ARRAY_ENTRIES == 2 ** 24
        if ok:
            parse_config(json.dumps(doc))
        else:
            with pytest.raises(ConfigError, match="too large"):
                parse_config(json.dumps(doc))


    @pytest.mark.parametrize("output", ["histogram", "raw-channel"])
    @pytest.mark.parametrize("realizations, ok", [(2 ** 5, True), (2 ** 5 + 1, False)])
    def test_size_limit_of_kept_realizations(self, output, realizations, ok):
        # histogram and raw-channel keep every realization's 2**19-entry tensor
        doc = _doc(geometry={"n_antennas": 2 ** 9}, grid={"t_max": 2 ** 10},
                   realizations=realizations, outputs=[output])
        if ok:
            parse_config(json.dumps(doc))
        else:
            with pytest.raises(ConfigError, match="too large"):
                parse_config(json.dumps(doc))
        # power-profile keeps no channel, so the kept-channel term does not apply
        doc["outputs"] = ["power-profile"]
        parse_config(json.dumps(doc))

    @pytest.mark.parametrize("clusters, ok", [(2 ** 12, True), (2 ** 12 + 1, False)])
    def test_size_limit_of_link_table(self, clusters, ok):
        # the link table holds (clusters, N) arrays, clusters summed over users
        doc = _doc(geometry={"n_antennas": 2 ** 12})
        cluster = doc["users"][0]["clusters"][0]
        doc["users"] = [{"clusters": [cluster] * 2 ** 11},
                        {"clusters": [cluster] * (clusters - 2 ** 11)}]
        if ok:
            parse_config(json.dumps(doc))
        else:
            with pytest.raises(ConfigError, match="too large: the link table"):
                parse_config(json.dumps(doc))

    @pytest.mark.parametrize("output, limit, array", [
        ("eigencdf", 2 ** 9, "eigenvalues"),  # K = 2 eigenvalues per RB
        ("cross-correlation", 2 ** 10, "cross-correlation magnitudes"),  # 1 pair per RB
        ("power-profile", 2 ** 23, None),  # once N * K = 2 powers a realization
        ("correlation-matrix", 2 ** 22, None),  # once K**2 = 4 entries a realization
    ], ids=["eigencdf", "cross-correlation", "power-profile", "correlation-matrix"])
    @pytest.mark.parametrize("past", [0, 1], ids=["at-limit", "one-past"])
    def test_size_limit_of_kept_statistics(self, output, limit, array, past):
        # eigencdf and cross-correlation keep per-RB values of every
        # realization, here realizations * 2**14 RBs * (2 or 1); power-profile
        # and correlation-matrix keep one (N, K) or (K, K) array each, and the
        # means that wait for their sum are bounded by the workers, not the
        # realizations, so the document one past their old limit is valid
        doc = _doc(geometry={"n_antennas": 1}, grid={"t_max": 2 ** 14},
                   realizations=limit + past, outputs=[output])
        doc["users"] *= 2
        if not past or array is None:
            parse_config(json.dumps(doc))
        else:
            with pytest.raises(ConfigError, match=f"too large: the {array}"):
                parse_config(json.dumps(doc))

    @pytest.mark.parametrize("output", ["eigencdf", "cross-correlation", "correlation-matrix"])
    @pytest.mark.parametrize("past", [0, 1], ids=["at-limit", "one-past"])
    def test_size_limit_of_gram_stack(self, output, past):
        # the statistics need one K x K Gram matrix, users**2 entries, not a
        # per-RB stack: 4096 users at the limit
        doc = _doc(geometry={"n_antennas": 1}, outputs=[output])
        doc["users"] *= 2 ** 12 + past
        if not past:
            parse_config(json.dumps(doc))
        else:
            with pytest.raises(ConfigError, match="too large: the Gram matrix users"):
                parse_config(json.dumps(doc))


class TestRoundTrip:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets_round_trip(self, name):
        config = expand_preset(name)
        echo = json.dumps(config_to_dict(config))
        assert parse_config(echo) == config

    def test_custom_matrix_round_trips(self):
        doc = _doc(grid={"t_max": 2},
                   correlation={"mode": "time", "model": "custom",
                                "matrix": [[1.0, 0.25], [0.25, 1.0]]},
                   outputs=["raw-channel"], bins=16)
        doc["users"][0]["clusters"][0]["mean_power"] = [0.5, 1.0, 1.5, 2.0]
        doc["users"][0]["clusters"].append(
            {"direction": "random", "spread_fraction": 0.5})
        config = parse_config(json.dumps(doc))
        assert parse_config(json.dumps(config_to_dict(config))) == config


    @pytest.mark.parametrize("i, u", [(np.int64, np.int64), (np.uint64, np.uint64),
                                      (np.int64, np.uint64)], ids=["int64", "uint64", "mixed"])
    def test_echo_of_numpy_numbers_matches_python_numbers(self, i, u, tmp_path):
        # the config.json echo is asdict of the specs, so they must hold
        # Python int and float whatever number types they were built from
        def config(i, u, spacing_ratio):
            cluster = ClusterSpec(direction=0.5, spread_fraction=0.3, mean_power=(1, 2, 3, 4))
            return ScenarioConfig(
                seed=u(7), geometry=ArrayGeometry(n_antennas=i(4), spacing_ratio=spacing_ratio),
                users=(UserSpec(clusters=(cluster,)),), realizations=u(2),
                grid=ResourceGrid(t_max=i(3), f_max=u(2), symbols_per_rb=i(5)),
                correlation=CorrelationSpec.exponential("time", 0.5, i(3)), bins=i(8))
        texts = []
        for name, numbers in {"numpy": (i, u, 1), "python": (int, int, 1.0)}.items():
            bundle = run_scenario(config(*numbers), out_dir=tmp_path / name)
            with open(bundle.files["config.json"], "rb") as fh:
                texts.append(fh.read())
        assert texts[0] == texts[1]
        assert b'"spacing_ratio": 1.0' in texts[0]


class TestPresets:
    def test_all_names_expand(self):
        for name in PRESET_NAMES:
            config = expand_preset(name)
            assert isinstance(config, ScenarioConfig)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            expand_preset("paper-E")

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_config_echo_pinned(self, name):
        # every field of every preset, realizations and bins included
        echo = json.dumps(config_to_dict(expand_preset(name)), indent=2, sort_keys=True) + "\n"
        assert hashlib.sha256(echo.encode()).hexdigest() == _PRESET_ECHO_SHA256[name]

    def test_paper_family_isolates_variables(self):
        a, b = expand_preset("paper-A"), expand_preset("paper-B")
        c, d = expand_preset("paper-C"), expand_preset("paper-D")
        assert a.seed == b.seed == c.seed == d.seed
        assert a.geometry.n_antennas == b.geometry.n_antennas == 128
        assert c.geometry.n_antennas == d.geometry.n_antennas == 20
        for nlos, los in ((a, b), (c, d)):
            assert all(len(u.clusters) == 3 for u in nlos.users + los.users)
            powers_n = [cl.mean_power for u in nlos.users for cl in u.clusters]
            powers_l = [cl.mean_power for u in los.users for cl in u.clusters]
            assert powers_n == powers_l
        # A and C share spreads and differ only in the antenna count
        assert replace(a, geometry=c.geometry) == c

    def test_iid_preset_is_fully_random(self):
        config = expand_preset("iid")
        assert config.n_users == 6
        assert all(cl.spread_fraction == 1.0
                   for u in config.users for cl in u.clusters)

    def test_ring_presets(self):
        fig2, fig3 = expand_preset("fig2"), expand_preset("fig3")
        assert fig2.n_users == 1 and fig3.n_users == 1
        assert fig2.users[0].clusters[0].spread_fraction == 0.1
        assert fig3.users[0].clusters[0].spread_fraction == 0.5
        assert fig2.outputs == ("histogram",)

    def test_fig4_preset_random_directions(self):
        config = expand_preset("fig4")
        assert config.realizations == 2000
        assert all(u.clusters[0].direction == "random" for u in config.users)

    def test_fig6_preset_power_ramp(self):
        config = expand_preset("fig6")
        assert config.outputs == ("power-profile",)
        power = np.asarray(config.users[0].clusters[0].mean_power)
        assert power.shape == (128,)
        assert np.isclose(power[0] / power[-1], 0.5 / 1.5 * (0.5 / 0.5))


class TestRunScenario:
    def _config(self, **kw):
        doc = _doc(**kw)
        return parse_config(json.dumps(doc))

    def test_artifacts_match_outputs(self):
        doc = _doc(outputs=["histogram", "raw-channel"], realizations=3,
                   grid={"t_max": 2, "f_max": 2})
        bundle = run_scenario(parse_config(json.dumps(doc)))
        assert set(bundle.artifacts) == {"histogram", "raw-channel"}
        # the kept channels: (realizations, t_max, f_max, N, K)
        assert bundle.artifacts["raw-channel"].shape == (3, 2, 2, 4, 1)
        assert bundle.artifacts["histogram"]["counts"].sum() == 3 * 4 * 4  # m * blocks * N * K
        # every artifact is an array or a dict of arrays
        doc["outputs"], doc["users"] = list(ARTIFACT_NAMES), doc["users"] * 2
        artifacts = run_scenario(parse_config(json.dumps(doc))).artifacts
        assert set(artifacts) == set(ARTIFACT_NAMES)
        for payload in artifacts.values():
            parts = payload.values() if isinstance(payload, dict) else [payload]
            assert all(isinstance(a, np.ndarray) for a in parts)

    def test_power_profile_matches_the_reference(self):
        # the kernel's per-realization RB means, averaged, against analytics.power_profile
        # of every kept channel matrix; 500 realizations run in three chunks
        n = 4
        doc = _doc(geometry={"n_antennas": n}, grid={"t_max": 3, "f_max": 4}, realizations=500,
                   correlation={"mode": "time", "model": "exponential", "rho": 0.7, "length": 3},
                   users=[{"clusters": [{"direction": 0.4, "spread_fraction": 0.3,
                                         "mean_power": [0.5, 1.0, 1.5, 2.0]},
                                        {"direction": "random", "spread_fraction": 0.6}]},
                          {"clusters": [{"direction": 2.1, "spread_fraction": 0.8}]}],
                   outputs=["power-profile", "raw-channel"])
        artifacts = run_scenario(parse_config(json.dumps(doc))).artifacts
        reference = power_profile(artifacts["raw-channel"].reshape(-1, n, 2))
        np.testing.assert_allclose(artifacts["power-profile"], reference, rtol=1e-12)

    def test_seed_determinism_and_thread_invariance(self):
        config = replace(expand_preset("paper-D"), realizations=50)
        ref = run_scenario(config).artifacts["correlation-matrix"]
        again = run_scenario(config).artifacts["correlation-matrix"]
        threaded = run_scenario(config, threads=4).artifacts["correlation-matrix"]
        assert np.array_equal(ref, again)
        assert np.array_equal(ref, threaded)

    def test_different_seeds_differ(self):
        config = replace(expand_preset("paper-D"), realizations=20)
        a = run_scenario(config).artifacts["correlation-matrix"]
        b = run_scenario(replace(config, seed=config.seed + 1)
                         ).artifacts["correlation-matrix"]
        assert not np.array_equal(a, b)

    def test_eigencdf_normalizes_mean_power(self):
        # scaling every cluster power by 4 leaves the normalized CDF unchanged
        base = self._config(outputs=["eigencdf"], realizations=40,
                            geometry={"n_antennas": 16})
        doc = _doc(outputs=["eigencdf"], realizations=40,
                   geometry={"n_antennas": 16})
        doc["users"][0]["clusters"][0]["mean_power"] = 4.0
        scaled = parse_config(json.dumps(doc))
        cdf_base = run_scenario(base).artifacts["eigencdf"]
        cdf_scaled = run_scenario(scaled).artifacts["eigencdf"]
        assert np.allclose(cdf_base, cdf_scaled, rtol=1e-12)

    def test_correlated_grid_runs(self):
        doc = _doc(grid={"t_max": 8, "f_max": 2}, realizations=5,
                   outputs=["histogram"],
                   correlation={"mode": "time", "model": "exponential",
                                "rho": 0.9, "length": 8})
        bundle = run_scenario(parse_config(json.dumps(doc)))
        assert bundle.artifacts["histogram"]["counts"].sum() == 5 * 16 * 4

    def test_statistics_run_once_per_chunk(self, counting):
        from blockfade import analytics, scenario
        # 11 realizations in chunks of 5: each chunk draws both links of all
        # its realizations in one block and takes one Gram matrix stack per time
        # row of RBs (t_max = 2), which feeds the eigenvalues and the correlation
        counting(scenario, "complex_normals")
        for name in ("gram", "eigenvalues_hermitian", "gram_correlation"):
            counting(analytics, name)
        doc = _doc(geometry={"n_antennas": 512}, grid={"t_max": 2, "f_max": 3},
                   realizations=11, outputs=list(scenario.ARTIFACT_NAMES))
        doc["users"] *= 2
        config = parse_config(json.dumps(doc))
        assert _chunk_size(config) == 5
        run_scenario(config)
        assert counting.calls == {"complex_normals": 3, "gram": 6,
                                  "eigenvalues_hermitian": 6, "gram_correlation": 6}

    def test_chunk_bounded_by_gram_stack(self, counting):
        from blockfade import analytics
        # 64 users at N=1 draw 128 uniforms but build 4096 Gram entries per
        # realization, so a chunk holds 16 realizations, not 512
        counting(analytics, "gram")
        doc = _doc(realizations=40, outputs=["eigencdf", "cross-correlation"],
                   geometry={"n_antennas": 1})
        doc["users"] *= 64
        config = parse_config(json.dumps(doc))
        assert _chunk_size(config) == 16
        run_scenario(config)
        assert counting.calls == {"gram": 3}

    @pytest.mark.parametrize("name", [name for name in PRESET_NAMES if "correlation-matrix"
                                      in expand_preset(name).outputs]
                             + ["time-correlated", "one-rb"])
    def test_correlation_matrix_is_symmetric_with_unit_diagonal(self, name):
        # the run does not symmetrize: gram is exactly Hermitian, so the mean is bitwise
        # symmetric.  It sets the diagonal to exactly 1: one RB's |G_ii| / d_i**2 may be
        # an ulp off 1, which only a mean over many RBs rounds away
        users = [{"clusters": [{"direction": "random", "spread_fraction": 0.4 + 0.2 * j},
                               {"direction": 0.7 * j + 0.3, "spread_fraction": 0.8,
                                "mean_power": 0.5}]} for j in range(3)]
        docs = {"time-correlated": {"realizations": 9, "grid": {"t_max": 8, "f_max": 5},
                                    "correlation": {"mode": "time", "model": "exponential",
                                                    "rho": 0.9, "length": 8}},
                "one-rb": {"seed": 0, "realizations": 1}}
        config = (self._config(geometry={"n_antennas": 64}, users=users,
                               outputs=["correlation-matrix"], **docs[name])
                  if name in docs else expand_preset(name))
        corr = run_scenario(config).artifacts["correlation-matrix"]
        assert corr.tobytes() == np.ascontiguousarray(corr.T).tobytes()
        assert (corr.diagonal() == 1.0).all()

    @pytest.mark.parametrize("name, payload", [
        ("cross-correlation", {"edges": np.array([0.0, 1.0]), "counts": np.array([2]),
                               "magnitudes": np.array([0.5, np.nan])}),
        ("power-profile", np.array([[1.0], [np.inf]])),
    ], ids=["nan-in-dict", "inf-in-array"])
    def test_require_finite_names_artifact(self, name, payload):
        # the finite artifact ahead of it passes; the check names the bad one
        with pytest.raises(NumericalError, match=f"^{name} is not finite"):
            _require_finite({"eigencdf": np.array([0.5, 1.0]), name: payload})

    def test_threads_validation(self):
        with pytest.raises(ValueError):
            run_scenario(self._config(), threads=0)

    def test_worker_count_capped_at_chunks(self, monkeypatch):
        from blockfade import scenario
        real_pool = scenario.ThreadPoolExecutor
        workers = []

        def recording_pool(max_workers):
            workers.append(max_workers)
            return real_pool(max_workers=max_workers)
        monkeypatch.setattr(scenario, "ThreadPoolExecutor", recording_pool)
        # at most 3 threads start, one per chunk of 4, 4 and 2 realizations;
        # a single chunk runs in the calling thread
        config = self._config(realizations=10, geometry={"n_antennas": 8192})
        assert _chunk_size(config) == 4
        run_scenario(config, threads=10 ** 6)
        run_scenario(config, threads=2)
        run_scenario(replace(config, realizations=4), threads=10 ** 6)
        assert workers == [3, 2, 1]

    def test_worker_count_capped_by_workspace_budget(self, monkeypatch, tmp_path):
        from blockfade import scenario
        real_pool = scenario.ThreadPoolExecutor
        workers = []

        def recording_pool(max_workers):
            workers.append(max_workers)
            return real_pool(max_workers=max_workers)
        # 4 chunks of 4 realizations and a budget of 2.5 workspaces: 2 of the 4 workers
        # asked for start, and the artifacts are those of one thread
        config = self._config(realizations=16, geometry={"n_antennas": 8192},
                              outputs=["histogram", "eigencdf", "power-profile"])
        assert _chunk_size(config) == 4
        one = run_scenario(config, out_dir=tmp_path / "one").manifest
        links = link_table(config.users, config.geometry)
        budget = 5 * _plan(config, links, keep=True)[3] // 2
        monkeypatch.setattr(scenario, "WORKSPACE_BUDGET", budget)
        monkeypatch.setattr(scenario, "ThreadPoolExecutor", recording_pool)
        assert run_scenario(config, out_dir=tmp_path / "four", threads=4).manifest == one
        assert workers == [2]

    def test_worker_count_capped_at_ceiling(self, monkeypatch, tmp_path):
        from blockfade import scenario
        workers = []

        class SerialPool:  # records the workers asked for and runs in the calling thread
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future
        # 3 chunks of 4, 4 and 2 realizations and a ceiling of 2: however many threads
        # are asked for, 2 workers are, and the artifacts are those of one thread
        config = self._config(realizations=10, geometry={"n_antennas": 8192},
                              outputs=["histogram", "power-profile"])
        assert _chunk_size(config) == 4
        one = run_scenario(config, out_dir=tmp_path / "one").manifest
        monkeypatch.setattr(scenario, "MAX_WORKERS", 2)
        monkeypatch.setattr(scenario, "ThreadPoolExecutor", SerialPool)
        assert run_scenario(config, out_dir=tmp_path / "many", threads=10 ** 6).manifest == one
        assert workers == [2]

    @pytest.mark.parametrize("threads", [2, 3])
    def test_chunks_ahead_of_the_sum_are_bounded(self, threads, monkeypatch, tmp_path):
        from blockfade import scenario
        outstanding, counts = set(), []

        class CountingPool(ThreadPoolExecutor):  # a chunk counts from its submit to its read
            def submit(self, fn, *args):
                future = super().submit(fn, *args)
                outstanding.add(future)
                counts.append(len(outstanding))
                read = future.result

                def result(*a, **kw):
                    outstanding.discard(future)
                    return read(*a, **kw)
                future.result = result
                return future
        # 10 chunks of 4 realizations: at most 2 * workers - 1 run ahead of the ordered sum,
        # and the artifact is that of one thread
        config = self._config(realizations=40, geometry={"n_antennas": 8192},
                              outputs=["power-profile"])
        assert _chunk_size(config) == 4
        one = run_scenario(config, out_dir=tmp_path / "one")
        monkeypatch.setattr(scenario, "ThreadPoolExecutor", CountingPool)
        many = run_scenario(config, out_dir=tmp_path / "many", threads=threads)
        assert len(counts) == 10 and max(counts) == 2 * threads - 1 and not outstanding
        assert (many.artifacts["power-profile"].tobytes()
                == one.artifacts["power-profile"].tobytes())
        assert many.manifest == one.manifest

    def test_workspace_cap_holds_under_an_address_space_limit(self, tmp_path):
        resource = pytest.importorskip("resource")
        if not (hasattr(resource, "RLIMIT_AS") and os.path.exists("/proc/self/status")):
            pytest.skip("no RLIMIT_AS or no /proc/self/status to size it by")
        # 4 chunks of one realization, whose workspace is 64 MiB: the limit leaves room for
        # one workspace and one thread's stack, not for the 4 workers --threads 4 asks for
        doc = _doc(geometry={"n_antennas": 1024}, realizations=4,
                   grid={"t_max": 32, "f_max": 32}, outputs=["power-profile"])
        config = parse_config(json.dumps(doc))
        assert _chunk_size(config) == 1
        assert _plan(config, link_table(config.users, config.geometry), keep=False)[3] > 2 ** 25
        (tmp_path / "doc.json").write_text(json.dumps(doc))
        src = os.path.dirname(os.path.dirname(blockfade.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        child = subprocess.run([sys.executable, "-c", _ADDRESS_SPACE_CHILD] + [
            str(tmp_path / name) for name in ("doc.json", "one", "four")],
            env=env, capture_output=True, text=True, timeout=60)
        assert child.returncode == 0, child.stderr
        assert ((tmp_path / "four" / "manifest.csv").read_bytes()
                == (tmp_path / "one" / "manifest.csv").read_bytes())

    def test_determinism_shift_of_cross_correlation(self):
        # tight-spread random-direction pairs put mass above 0.4 yet push
        # the bulk of |g_nd| below the fully random case
        fig4 = run_scenario(expand_preset("fig4"), threads=4)
        mags_tight = fig4.artifacts["cross-correlation"]["magnitudes"]
        iid_doc = _doc(outputs=["cross-correlation"], realizations=2000,
                       geometry={"n_antennas": 128})
        iid_doc["users"] = [
            {"clusters": [{"direction": "random", "spread_fraction": 1.0,
                           "mean_power": 1.0}]} for _ in range(2)]
        iid = run_scenario(parse_config(json.dumps(iid_doc)), threads=4)
        mags_iid = iid.artifacts["cross-correlation"]["magnitudes"]
        assert np.mean(mags_tight > 0.4) > 0.0
        assert np.median(mags_tight) < np.median(mags_iid)


# A warm-up run of the document at one thread without a limit, then the same document at
# --threads 4 on a budget of 1.5 workspaces, its address space limited to the VmSize the
# warm-up left plus one workspace and one thread's stack.
_ADDRESS_SPACE_CHILD = """
import resource, sys
from blockfade import cli, scenario
from blockfade.model import link_table

doc, one, four = sys.argv[1:]
assert cli.main(["simulate", doc, "--out", one]) == 0
config = scenario.parse_config(open(doc).read())
workspace = scenario._plan(config, link_table(config.users, config.geometry), keep=False)[3]
with open("/proc/self/status") as fh:
    vm = next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmSize:"))
stack = resource.getrlimit(resource.RLIMIT_STACK)[0]
stack = 8 * 2 ** 20 if stack == resource.RLIM_INFINITY else stack
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (vm + workspace + stack, hard))
scenario.WORKSPACE_BUDGET = 3 * workspace // 2
sys.exit(cli.main(["simulate", doc, "--out", four, "--threads", "4"]))
"""


def _reference_channels(config, per_link=False) -> np.ndarray:
    """(R, t_max, f_max, N, K) channel tensors built link by link, in the
    documented draw order: per (user, cluster) the direction of a "random"
    cluster and the phase, then per (user, cluster) the link grid, its Rician
    part r folded in as the variance r**2.  A user's column of every RB is
    the correlated sum of its grids in link order plus the sum of its means;
    with ``per_link`` each grid is correlated before the sum instead."""
    geometry, grid = config.geometry, config.grid
    n = geometry.n_antennas
    out = []
    for index in range(config.realizations):
        rng = substream(config.seed, index)
        users = []
        for user in config.users:
            links = []
            for cluster in user.clusters:
                table = link_table((UserSpec(clusters=(cluster,)),), geometry)
                direction = [rng.uniform(0.0, np.pi)] if cluster.is_random_direction else []
                p = link_means(table, [rng.uniform(0.0, 2.0 * np.pi)], direction)[0]
                links.append((p, table.r[0]))
            users.append(links)
        h = np.empty((grid.t_max, grid.f_max, n, config.n_users), dtype=complex)
        for j, links in enumerate(users):
            spec = config.correlation if per_link else CorrelationSpec.none()
            grids = [sample_link_grids(spec, grid, n, 1, rng, variance=r ** 2)[0]
                     for _, r in links]
            acc = grids[0].copy()
            for q in grids[1:]:
                acc += q
            acc = (acc if per_link else correlate(config.correlation, acc)).transpose(1, 2, 0)
            mean = links[0][0]
            for p, _ in links[1:]:
                mean = mean + p
            h[..., j] = acc + mean
        out.append(h)
    return np.array(out)


def _kernel_channels(config) -> np.ndarray:
    return run_scenario(replace(config, outputs=("raw-channel",))).artifacts["raw-channel"]


def _links_per_draw(config) -> int:
    grid = config.grid
    return max(1, DRAW_BLOCK_UNIFORMS // (2 * config.geometry.n_antennas
                                          * grid.t_max * grid.f_max))


def _chunk_size(config) -> int:
    """Realizations per kernel pass: their uniforms and per-RB Gram matrices fit one draw."""
    grid, links = config.grid, sum(len(u.clusters) for u in config.users)
    per_rb = max(2 * links * config.geometry.n_antennas, config.n_users ** 2)
    return max(1, DRAW_BLOCK_UNIFORMS // (per_rb * grid.t_max * grid.f_max))


def _rbs_per_block(config) -> int:
    """RBs of a time row per statistics block: a chunk's channels and K x K Gram matrices
    of the block fit one draw, or the block is one RB."""
    n, k = config.geometry.n_antennas, config.n_users
    return max(1, DRAW_BLOCK_UNIFORMS // (_chunk_size(config) * max(n, k) * k))


class TestRealizationKernel:
    """The batched kernel gives the same bits as the per-link functions."""

    def test_single_rb_all_links_in_one_draw(self):
        n = 8
        users = []
        for j in range(6):
            fixed = {"direction": 0.4 * j + 0.1, "spread_fraction": 0.2 * (j % 4),
                     "mean_power": list(np.linspace(0.5, 1.5 + j, n))}
            random = {"direction": "random", "spread_fraction": 0.7, "mean_power": 0.5 + j}
            users.append({"clusters": [fixed, random] if j % 2 else [random, fixed, fixed]})
        config = parse_config(json.dumps(_doc(geometry={"n_antennas": n}, users=users,
                                              realizations=4, seed=21)))
        assert sum(len(u.clusters) for u in config.users) <= _links_per_draw(config)
        assert _kernel_channels(config).tobytes() == _reference_channels(config).tobytes()

    @staticmethod
    def _correlated_config(mode, length):
        users = [{"clusters": [{"direction": 0.3 + j, "spread_fraction": 0.4,
                                "mean_power": list(np.linspace(0.5, 1.5, 64))},
                               {"direction": "random", "spread_fraction": 0.8,
                                "mean_power": 0.5}]} for j in range(3)]
        doc = _doc(geometry={"n_antennas": 64}, users=users, realizations=2,
                   grid={"t_max": 14, "f_max": 12}, seed=33, bins=8,
                   correlation={"mode": mode, "model": "exponential", "rho": 0.7,
                                "length": length})
        return parse_config(json.dumps(doc))

    @pytest.mark.parametrize("mode, length", [("time", 14), ("frequency", 12)])
    def test_correlated_grid_blocks_cross_users(self, mode, length, tmp_path):
        config = self._correlated_config(mode, length)
        # 3 links per draw and 2 clusters per user: a block edge splits a user
        assert _links_per_draw(config) == 3
        assert _kernel_channels(config).tobytes() == _reference_channels(config).tobytes()

        config = replace(config, outputs=ARTIFACT_NAMES)
        one = run_scenario(config, out_dir=tmp_path / "one", threads=1)
        two = run_scenario(config, out_dir=tmp_path / "two", threads=2)
        assert one.manifest == two.manifest

    @pytest.mark.parametrize("mode, length", [("time", 14), ("frequency", 12)])
    def test_correlated_sum_matches_per_link_correlation(self, mode, length):
        # the linear correlation taken once per user, L(sum r z), against the sum of the
        # links' correlated grids sum L(r z): equal but for rounding
        config = self._correlated_config(mode, length)
        per_link = _reference_channels(config, per_link=True)
        scale = np.abs(per_link).max()
        assert np.abs(_kernel_channels(config) - per_link).max() <= \
            8 * np.finfo(float).eps * scale

    @pytest.mark.parametrize("mode, length", [("time", 14), ("frequency", 12)])
    def test_one_link_blocks_skip_the_gather(self, mode, length):
        # N=128 on 14x12 RBs: one realization per chunk and one link per draw, whose u1
        # and u2 are contiguous, so its Gaussians go straight to the workspace
        users = [{"clusters": [{"direction": 0.2 + j, "spread_fraction": s}
                               for s in (0.6, 0.8, 1.0)[:3 - j]]} for j in range(3)]
        config = parse_config(json.dumps(_doc(
            geometry={"n_antennas": 128}, users=users, realizations=2, seed=8,
            grid={"t_max": 14, "f_max": 12},
            correlation={"mode": mode, "model": "exponential", "rho": 0.9, "length": length})))
        assert _chunk_size(config) == _links_per_draw(config) == 1
        assert _kernel_channels(config).tobytes() == _reference_channels(config).tobytes()

    @pytest.mark.parametrize("realizations", [29, 1])
    def test_single_rb_chunk_edges(self, realizations, tmp_path):
        users = [{"clusters": [{"direction": "random", "spread_fraction": 0.3 + 0.2 * j,
                                "mean_power": 1.0 + j},
                               {"direction": 0.5 * j + 0.2, "spread_fraction": 0.6,
                                "mean_power": list(np.linspace(0.5, 1.5, 512))}][:2 - j % 2]}
                 for j in range(3)]
        config = parse_config(json.dumps(_doc(geometry={"n_antennas": 512}, users=users,
                                              realizations=realizations, seed=45)))
        # 5 links in chunks of 12: 29 realizations end in a partial third chunk
        assert _chunk_size(config) == 12
        assert _kernel_channels(config).tobytes() == _reference_channels(config).tobytes()

        config = replace(config, outputs=ARTIFACT_NAMES)
        manifests = [run_scenario(config, out_dir=tmp_path / str(threads), threads=threads)
                     .manifest for threads in (1, 2, 3)]
        assert manifests[0] == manifests[1] == manifests[2]


    def test_split_time_rows_give_whole_stack_statistics(self, counting):
        # N=2048, K=2, f_max=40: a time row holds 163840 entries, so the statistics take
        # it in RB blocks of 16, 16 and 8; each equals its whole-stack value bit for bit
        from blockfade import analytics
        users = [{"clusters": [{"direction": 0.4 + j, "spread_fraction": 0.5}]}
                 for j in range(2)]
        config = parse_config(json.dumps(_doc(
            geometry={"n_antennas": 2048}, users=users, realizations=2, seed=9,
            grid={"t_max": 2, "f_max": 40}, outputs=list(ARTIFACT_NAMES))))
        counting(analytics, "gram")
        artifacts = run_scenario(config).artifacts
        assert counting.calls["gram"] == 2 * 2 * 3
        kept = artifacts["raw-channel"]
        eigen = analytics.eigenvalues_hermitian(analytics.gram(kept)).ravel()
        assert np.array_equal(artifacts["eigencdf"],
                              np.sort(eigen / config.mean_link_power()))
        power = sum(analytics.ordered_mean((np.abs(h) ** 2).reshape(-1, 2048, 2))
                    for h in kept) / 2
        assert np.array_equal(artifacts["power-profile"], power)
        xcorr = analytics.ordered_mean([analytics.ordered_mean(
            analytics.gram_correlation(analytics.gram(h)).reshape(-1, 2, 2)) for h in kept])
        np.fill_diagonal(xcorr, 1.0)
        assert np.array_equal(artifacts["correlation-matrix"], xcorr)

    @staticmethod
    def _statistic_peaks(monkeypatch, config) -> dict:
        """Traced peak of each gram, eigenvalues_hermitian and gram_correlation call
        of a run, above what was allocated when the call began, by function."""
        from blockfade import analytics
        peaks = {}
        for name in ("gram", "eigenvalues_hermitian", "gram_correlation"):
            def traced(a, name=name, real=getattr(analytics, name)):
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                result = real(a)
                peaks.setdefault(name, []).append(tracemalloc.get_traced_memory()[1] - start)
                return result
            monkeypatch.setattr(analytics, name, traced)
        tracemalloc.start()
        try:
            run_scenario(config)
        finally:
            tracemalloc.stop()
        return peaks

    def test_statistics_copy_at_most_a_draw_block(self, monkeypatch):
        # one 1024-RB time row of N=1024 and 2 users is 32 MiB; each statistic call
        # sees at most DRAW_BLOCK_UNIFORMS entries of it (1 MiB)
        users = [{"clusters": [{"direction": 0.3 + 1.6 * j, "spread_fraction": 0.5}]}
                 for j in range(2)]
        config = parse_config(json.dumps(_doc(
            geometry={"n_antennas": 1024}, users=users, grid={"t_max": 1, "f_max": 1024},
            outputs=["eigencdf", "correlation-matrix"])))
        peaks = self._statistic_peaks(monkeypatch, config)
        assert {name: len(p) for name, p in peaks.items()} == {
            "gram": 32, "eigenvalues_hermitian": 32, "gram_correlation": 32}
        assert max(map(max, peaks.values())) < 2 * 2 ** 20

    @pytest.mark.parametrize("n, users, grid, outputs, blocks, limit", [
        # 32 single-cluster users, N = 8: a 32-RB time row's Gram matrices are 512 KiB
        (8, 32, (32, 32), ["eigencdf"], 32, 2),
        # 64 users at N = 1: a K x K Gram of 64 KiB per RB, 16 RBs of the row per block
        (1, 64, (1, 1024), ["eigencdf", "cross-correlation", "correlation-matrix"], 64, 4),
    ], ids=["many-users", "k-above-n"])
    def test_statistic_transients_stay_bounded(self, monkeypatch, n, users, grid, outputs,
                                               blocks, limit):
        # no call holds a chunk's per-RB Gram stack (16 MiB and 64 MiB here)
        doc = _doc(geometry={"n_antennas": n}, grid={"t_max": grid[0], "f_max": grid[1]},
                   outputs=outputs)
        doc["users"] = [{"clusters": [{"direction": 3.1 * j / users, "spread_fraction": 0.5}]}
                        for j in range(users)]
        peaks = self._statistic_peaks(monkeypatch, parse_config(json.dumps(doc)))
        assert len(peaks["gram"]) == blocks
        assert max(map(max, peaks.values())) < limit * 2 ** 20


def _workspace_configs() -> dict:
    """Three shapes of chunk: single-RB chunks of 12 realizations ending in a
    partial chunk, and one-realization chunks of 6 links in blocks of 4 and 2
    along time and along frequency."""
    single = [{"clusters": [{"direction": "random", "spread_fraction": 0.3 + 0.2 * j,
                             "mean_power": 1.0 + j},
                            {"direction": 0.5 * j + 0.2, "spread_fraction": 0.6,
                             "mean_power": list(np.linspace(0.5, 1.5, 512))}][:2 - j % 2]}
              for j in range(3)]
    multi = [{"clusters": [{"direction": 0.3 + j, "spread_fraction": 0.4,
                            "mean_power": list(np.linspace(0.5, 1.5, 64))},
                           {"direction": "random", "spread_fraction": 0.8,
                            "mean_power": 0.5}]} for j in range(3)]
    docs = {"none": _doc(geometry={"n_antennas": 512}, users=single, realizations=29, seed=45,
                         bins=8)}
    for mode, length in (("time", 14), ("frequency", 9)):
        docs[mode] = _doc(geometry={"n_antennas": 64}, users=multi, realizations=3,
                          grid={"t_max": 14, "f_max": 9}, seed=33, bins=8,
                          correlation={"mode": mode, "model": "exponential", "rho": 0.7,
                                       "length": length})
    return {mode: parse_config(json.dumps(doc)) for mode, doc in docs.items()}


class TestWorkspace:
    """Each worker keeps one workspace for a run and reuses it for its chunks."""

    # the outputs that keep every channel, and those computed from the workspace's
    KEPT = ("histogram", "raw-channel")
    STATISTICS = ("cross-correlation", "eigencdf", "power-profile", "correlation-matrix")

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_back_to_back_runs_match_runs_of_their_own(self, threads, tmp_path):
        configs = _workspace_configs()
        assert [_chunk_size(c) for c in configs.values()] == [12, 1, 1]
        assert [_links_per_draw(c) for c in configs.values()] == [64, 4, 4]
        digests = {}
        # every shape twice, with and without kept channels, in one process
        for rerun in range(2):
            for mode, config in configs.items():
                for outputs in (self.KEPT + self.STATISTICS, self.STATISTICS):
                    bundle = run_scenario(replace(config, outputs=outputs), threads=threads,
                                          out_dir=tmp_path / f"{mode}-{len(outputs)}-{rerun}")
                    digests[mode, outputs, rerun] = dict((name, sha) for name, _, sha
                                                         in bundle.manifest)
                    if "raw-channel" in outputs and rerun == 0:
                        assert bundle.artifacts["raw-channel"].tobytes() == \
                            _reference_channels(config).tobytes()
        for mode, config in configs.items():
            kept, alone = (digests[mode, outputs, 0]
                           for outputs in (self.KEPT + self.STATISTICS, self.STATISTICS))
            assert digests[mode, self.STATISTICS, 1] == alone
            assert digests[mode, self.KEPT + self.STATISTICS, 1] == kept
            # a statistic of channels in the workspace is that of the kept channels
            assert all(kept[name] == sha for name, sha in alone.items() if name != "config.json")
            # and a fresh one-thread run writes the same bytes
            fresh = run_scenario(replace(config, outputs=self.KEPT + self.STATISTICS),
                                 out_dir=tmp_path / f"{mode}-fresh")
            assert dict((name, sha) for name, _, sha in fresh.manifest) == kept

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_one_workspace_per_worker_freed_with_the_run(self, threads, monkeypatch):
        from blockfade import scenario
        made = []

        def recording(*args, **kwargs):
            workspace = real(*args, **kwargs)
            made.append(weakref.ref(workspace))
            return workspace
        real = scenario._Workspace
        monkeypatch.setattr(scenario, "_Workspace", recording)
        config = _workspace_configs()["none"]  # 3 chunks
        for outputs in (("raw-channel",), ("eigencdf",)):
            del made[:]
            run_scenario(replace(config, outputs=outputs), threads=threads)
            assert 1 <= len(made) <= threads
            assert all(ref() is None for ref in made)

    def test_kernel_temporaries_stay_below_a_link_block(self, monkeypatch):
        # 8 users x 3 clusters at N=128 on a time-correlated 14x12 grid: one realization
        # per chunk and one link per draw.  After a warm-up, no chunk's kernel pass may
        # peak at a link block's complex bytes, C*links*N*t_max*f_max*16: every
        # block-sized buffer is the workspace's
        from blockfade import scenario
        users = [{"clusters": [{"direction": 0.1 + 0.37 * j + 0.05 * c, "spread_fraction": s,
                                "mean_power": power}
                               for c, (s, power) in enumerate(zip((0.6, 0.8, 1.0),
                                                                  (0.5, 0.3, 0.2)))]}
                 for j in range(8)]
        config = parse_config(json.dumps(_doc(
            geometry={"n_antennas": 128}, users=users, realizations=3,
            grid={"t_max": 14, "f_max": 12}, outputs=["correlation-matrix"],
            correlation={"mode": "time", "model": "exponential", "rho": 0.9, "length": 14})))
        assert _chunk_size(config) == _links_per_draw(config) == 1
        run_scenario(config)
        peaks = []

        def traced(*args):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            result = real(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
            return result
        real = scenario._realize_chunk
        monkeypatch.setattr(scenario, "_realize_chunk", traced)
        tracemalloc.start()
        try:
            run_scenario(config)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 3
        assert max(peaks) < 128 * 14 * 12 * 16


def _plan_config(name):
    """A preset, a shape of ``_workspace_configs`` or "k-above-n": 64 single-cluster
    users at N = 1 on one 1024-RB time row."""
    if name in PRESET_NAMES:
        return expand_preset(name)
    if name != "k-above-n":
        return _workspace_configs()[name]
    doc = _doc(geometry={"n_antennas": 1}, grid={"t_max": 1, "f_max": 1024},
               outputs=["eigencdf", "correlation-matrix"])
    doc["users"] = [{"clusters": [{"direction": 3.1 * j / 64, "spread_fraction": 0.5}]}
                    for j in range(64)]
    return parse_config(json.dumps(doc))


class TestPlan:
    """``_plan`` states the kernel's sizes once; the oracles above restate them apart."""

    CASES = PRESET_NAMES + ("none", "time", "frequency", "k-above-n")

    @pytest.mark.parametrize("name", CASES)
    def test_sizes_match_the_oracles(self, name):
        config = _plan_config(name)
        links = link_table(config.users, config.geometry)
        assert _plan(config, links, keep=False)[:3] == (_chunk_size(config), min(
            len(links.user), _links_per_draw(config)), _rbs_per_block(config))

    @pytest.mark.parametrize("keep", [True, False], ids=["kept", "in-workspace"])
    @pytest.mark.parametrize("name", CASES)
    def test_workspace_bytes_are_its_buffers(self, name, keep):
        config = _plan_config(name)
        links = link_table(config.users, config.geometry)
        plan = _plan(config, links, keep)
        workspace = _Workspace(config, links, plan, keep)
        buffers = [a for a in vars(workspace).values()
                   if isinstance(a, np.ndarray) and a.base is None]
        assert plan[3] == sum(a.nbytes for a in buffers)

    def test_a_short_last_chunk_runs_on_the_plan(self, monkeypatch):
        # 29 realizations of 5 links in chunks of 12: the last chunk, of 5 realizations,
        # draws and takes its statistics blocks in the plan's sizes, those of a chunk of 12
        from blockfade import scenario
        config = replace(_workspace_configs()["none"], outputs=("eigencdf",))
        seen = []

        def recording(config, links, ws, needs, kept, indices):
            seen.append((len(indices), ws.plan[:3]))
            return real(config, links, ws, needs, kept, indices)
        real = scenario._realize_chunk
        monkeypatch.setattr(scenario, "_realize_chunk", recording)
        run_scenario(config)
        sizes = (_chunk_size(config), 5, _rbs_per_block(config))
        assert seen == [(12, sizes), (12, sizes), (5, sizes)]
