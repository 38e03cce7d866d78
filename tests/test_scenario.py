"""Tests for configuration parsing, presets, and the scenario runner."""

import json
from dataclasses import replace

import numpy as np
import pytest

from blockfade import (ConfigError, ScenarioConfig, assemble_channel, build_spatial_pair,
                       expand_preset, parse_config, run_scenario, sample_q_block,
                       substream)
from blockfade.scenario import (ARTIFACT_NAMES, DRAW_BLOCK_UNIFORMS, MAX_ARRAY_ENTRIES,
                                PRESET_NAMES, config_to_dict)

MINIMAL = {
    "seed": 7,
    "geometry": {"n_antennas": 4},
    "users": [{"clusters": [{"direction": 0.0, "spread_fraction": 1.0,
                             "mean_power": 1.0}]}],
    "realizations": 1,
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
        # outputs reduced per realization keep nothing, so they have no such term
        doc["outputs"] = ["power-profile"]
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


class TestPresets:
    def test_all_names_expand(self):
        for name in PRESET_NAMES:
            config = expand_preset(name)
            assert isinstance(config, ScenarioConfig)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            expand_preset("paper-E")

    def test_paper_family_isolates_variables(self):
        a, b = expand_preset("paper-A"), expand_preset("paper-B")
        c, d = expand_preset("paper-C"), expand_preset("paper-D")
        assert a.seed == b.seed == c.seed == d.seed
        assert a.geometry.n_antennas == b.geometry.n_antennas == 128
        assert c.geometry.n_antennas == d.geometry.n_antennas == 20
        for nlos, los in ((a, b), (c, d)):
            assert all(u.n_clusters == 3 for u in nlos.users + los.users)
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
        # raw rows: realizations x blocks, each carrying the N x K matrix
        assert len(bundle.artifacts["raw-channel"]) == 3 * 4
        assert bundle.artifacts["histogram"].total == 3 * 4 * 4  # m * blocks * N * K

    def test_seed_determinism_and_thread_invariance(self):
        config = replace(expand_preset("paper-D"), realizations=50)
        ref = run_scenario(config).artifacts["correlation-matrix"].values
        again = run_scenario(config).artifacts["correlation-matrix"].values
        threaded = run_scenario(config, threads=4).artifacts["correlation-matrix"].values
        assert np.array_equal(ref, again)
        assert np.array_equal(ref, threaded)

    def test_different_seeds_differ(self):
        config = replace(expand_preset("paper-D"), realizations=20)
        a = run_scenario(config).artifacts["correlation-matrix"].values
        b = run_scenario(replace(config, seed=config.seed + 1)
                         ).artifacts["correlation-matrix"].values
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
        assert np.allclose(cdf_base.values, cdf_scaled.values, rtol=1e-12)

    def test_correlated_grid_runs(self):
        doc = _doc(grid={"t_max": 8, "f_max": 2}, realizations=5,
                   outputs=["histogram"],
                   correlation={"mode": "time", "model": "exponential",
                                "rho": 0.9, "length": 8})
        bundle = run_scenario(parse_config(json.dumps(doc)))
        assert bundle.artifacts["histogram"].total == 5 * 16 * 4

    def test_statistics_run_once_per_realization(self, counting):
        from blockfade import analytics, scenario
        # both links fit one draw block, so each tensor is assembled in one call
        counting(scenario, "add_links")
        for name in ("gram", "eigenvalues_hermitian", "pairwise_correlation"):
            counting(analytics, name)
        doc = _doc(grid={"t_max": 2, "f_max": 3}, realizations=3,
                   outputs=list(scenario.ARTIFACT_NAMES))
        doc["users"] *= 2
        run_scenario(parse_config(json.dumps(doc)))
        assert counting.calls == {"add_links": 3, "gram": 3,
                                  "eigenvalues_hermitian": 3, "pairwise_correlation": 3}

    def test_threads_validation(self):
        with pytest.raises(ValueError):
            run_scenario(self._config(), threads=0)

    def test_worker_count_capped_at_realizations(self, monkeypatch):
        from blockfade import scenario
        real_pool = scenario.ThreadPoolExecutor
        workers = []

        def recording_pool(max_workers):
            workers.append(max_workers)
            return real_pool(max_workers=max_workers)
        monkeypatch.setattr(scenario, "ThreadPoolExecutor", recording_pool)
        # at most 3 threads start: one per realization
        run_scenario(self._config(realizations=3), threads=10 ** 6)
        assert workers == [3]

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


def _reference_channels(config) -> np.ndarray:
    """(R, t_max, f_max, N, K) channel tensors built link by link with the
    public single-link functions, in the documented draw order: per
    (user, cluster) the direction of a "random" cluster and the phase, then
    per (user, cluster) the link grid."""
    geometry = config.geometry
    out = []
    for index in range(config.realizations):
        rng = substream(config.seed, index)
        pairs = []
        for user in config.users:
            row = []
            for cluster in user.clusters:
                if cluster.is_random_direction:
                    cluster = replace(cluster, direction=rng.uniform(0.0, np.pi))
                row.append(build_spatial_pair(cluster, geometry,
                                              phase_offset=rng.uniform(0.0, 2.0 * np.pi)))
            pairs.append(row)
        grids = [[sample_q_block(config.correlation, config.grid, geometry.n_antennas, rng)
                  for _ in user.clusters] for user in config.users]
        out.append(assemble_channel(pairs, grids))
    return np.array(out)


def _kernel_channels(config) -> np.ndarray:
    rows = run_scenario(replace(config, outputs=("raw-channel",))).artifacts["raw-channel"]
    grid, n = config.grid, config.geometry.n_antennas
    return np.array([row[3] for row in rows]).reshape(
        config.realizations, grid.t_max, grid.f_max, n, config.n_users)


def _links_per_draw(config) -> int:
    grid = config.grid
    return max(1, DRAW_BLOCK_UNIFORMS // (2 * config.geometry.n_antennas
                                          * grid.t_max * grid.f_max))


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
        assert sum(u.n_clusters for u in config.users) <= _links_per_draw(config)
        assert _kernel_channels(config).tobytes() == _reference_channels(config).tobytes()

    @pytest.mark.parametrize("mode, length", [("time", 14), ("frequency", 12)])
    def test_correlated_grid_blocks_cross_users(self, mode, length, tmp_path):
        users = [{"clusters": [{"direction": 0.3 + j, "spread_fraction": 0.4,
                                "mean_power": list(np.linspace(0.5, 1.5, 64))},
                               {"direction": "random", "spread_fraction": 0.8,
                                "mean_power": 0.5}]} for j in range(3)]
        doc = _doc(geometry={"n_antennas": 64}, users=users, realizations=2,
                   grid={"t_max": 14, "f_max": 12}, seed=33, bins=8,
                   correlation={"mode": mode, "model": "exponential", "rho": 0.7,
                                "length": length})
        config = parse_config(json.dumps(doc))
        # 3 links per draw and 2 clusters per user: a block edge splits a user
        assert _links_per_draw(config) == 3
        assert _kernel_channels(config).tobytes() == _reference_channels(config).tobytes()

        config = replace(config, outputs=ARTIFACT_NAMES)
        one = run_scenario(config, out_dir=tmp_path / "one", threads=1)
        two = run_scenario(config, out_dir=tmp_path / "two", threads=2)
        assert one.manifest == two.manifest
