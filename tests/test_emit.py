"""Tests for CSV/SVG emission, manifests, and the CLI surface."""

import hashlib
import json
import warnings
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from blockfade import (UserCorrelationMatrix, coefficient_histogram, empirical_cdf,
                       expand_preset, parse_config, run_scenario)
from blockfade.cli import main
from blockfade.emit import (correlation_rows, ecdf_rows, fmt, histogram_rows,
                            power_profile_rows, write_bundle)


class TestRows:
    def test_float_format_is_17_digits(self):
        assert fmt(0.5) == "0.5"
        assert fmt(1 / 3) == "0.33333333333333331"

    def test_ecdf_rows(self):
        assert list(ecdf_rows(empirical_cdf([1, 2]))) == ["1,0.5", "2,1"]

    def test_histogram_rows_sum_to_total(self):
        hist = coefficient_histogram(np.array([1 + 1j, -1 - 1j, 0.5 + 0j]),
                                     bins_per_axis=2)
        rows = list(histogram_rows(hist))
        assert len(rows) == 4
        assert sum(int(r.split(",")[2]) for r in rows) == 3

    def test_correlation_rows_unit_diagonal(self):
        matrix = UserCorrelationMatrix(values=np.array([[1.0, 0.25, 0.5],
                                                        [0.25, 1.0, 0.125],
                                                        [0.5, 0.125, 1.0]]))
        rows = list(correlation_rows(matrix))
        assert len(rows) == 3
        assert rows[0] == "1,0.25,0.5"

    def test_power_profile_rows_one_based(self):
        rows = list(power_profile_rows(np.array([[2.0], [3.0]])))
        assert rows == ["1,1,2", "2,1,3"]


class TestWriteBundle:
    @pytest.fixture()
    def bundle_dir(self, tmp_path):
        config = replace(expand_preset("paper-D"), realizations=20,
                         outputs=("correlation-matrix", "eigencdf"))
        bundle = run_scenario(config, out_dir=tmp_path / "out")
        return bundle, tmp_path / "out"

    def test_files_headers_and_manifest(self, bundle_dir):
        bundle, out = bundle_dir
        names = {name for name, _, _ in bundle.manifest}
        assert names == {"config.json", "correlation_matrix.csv",
                         "eigencdf.csv", "eigencdf.svg"}
        header = (out / "eigencdf.csv").read_text().splitlines()[0]
        assert header == "eigenvalue,cdf"
        matrix_lines = (out / "correlation_matrix.csv").read_text().splitlines()
        assert len(matrix_lines) == 3 and "," in matrix_lines[0]
        manifest_lines = (out / "manifest.csv").read_text().splitlines()
        assert manifest_lines[0] == "artifact,rows,sha256"
        assert len(manifest_lines) == 1 + len(bundle.manifest)

    def test_sha256_matches_files(self, bundle_dir):
        bundle, out = bundle_dir
        for name, _, digest in bundle.manifest:
            data = (out / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest

    def test_config_echo_reparses(self, bundle_dir):
        bundle, out = bundle_dir
        assert parse_config((out / "config.json").read_text()) == bundle.config

    def test_svg_is_well_formed(self, bundle_dir):
        _, out = bundle_dir
        root = ET.fromstring((out / "eigencdf.svg").read_text())
        assert root.tag.endswith("svg")

    def test_rewrite_is_byte_identical(self, tmp_path):
        config = replace(expand_preset("paper-D"), realizations=10)
        b1 = run_scenario(config, out_dir=tmp_path / "a")
        b2 = run_scenario(config, out_dir=tmp_path / "b")
        assert b1.manifest == b2.manifest

    def test_artifact_table_covers_every_output(self):
        from blockfade import emit, scenario
        assert set(emit._ARTIFACTS) == set(scenario.ARTIFACT_NAMES)

    def test_io_error_names_artifact(self, tmp_path):
        config = replace(expand_preset("paper-D"), realizations=2, outputs=())
        bundle = run_scenario(config)
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        with pytest.raises(OSError):
            write_bundle(bundle, target / "sub")


class TestCli:
    def test_validate_ok(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"preset": "fig2"}))
        assert main(["validate", str(path)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_config_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{")
        assert main(["validate", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file_exit_4(self, capsys):
        assert main(["simulate", "/nonexistent/config.json"]) == 4
        assert "i/o failure" in capsys.readouterr().err

    def test_numerical_failure_exit_3(self, tmp_path, capsys, monkeypatch):
        from blockfade.errors import NumericalError
        import blockfade.cli as cli

        def boom(config, out_dir=None, threads=1):
            raise NumericalError("synthetic failure")
        monkeypatch.setattr(cli, "run_scenario", boom)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"preset": "fig2"}))
        assert main(["simulate", str(path)]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_preset_run_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["preset", "paper-D", "--out", str(out), "--seed", "5",
                     "--threads", "2"])
        assert code == 0
        assert (out / "correlation_matrix.csv").exists()
        assert (out / "manifest.csv").exists()
        assert "correlation_matrix.csv" in capsys.readouterr().out

    def test_simulate_with_seed_override(self, tmp_path):
        doc = {"seed": 3, "geometry": {"n_antennas": 4},
               "users": [{"clusters": [{"direction": 0.1, "spread_fraction": 0.5,
                                        "mean_power": 1.0}]}],
               "realizations": 2, "outputs": ["histogram"]}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "art"
        assert main(["simulate", str(path), "--seed", "9", "--out", str(out)]) == 0
        echo = json.loads((out / "config.json").read_text())
        assert echo["seed"] == 9

    @pytest.mark.parametrize("key, value", [
        ("mean_power", [0.5, 1.5]),   # vector length 2 on a 4-antenna array
        ("bins", 2.5),
        ("realizations", True),
        ("correlation", {"mode": "time", "model": "custom", "matrix": 5}),  # scalar matrix
    ])
    def test_document_that_validates_also_simulates(self, key, value, tmp_path, capsys):
        doc = {"seed": 3, "geometry": {"n_antennas": 4},
               "users": [{"clusters": [{"direction": 0.1, "spread_fraction": 0.5,
                                        "mean_power": 1.0}]}],
               "realizations": 2, "outputs": ["histogram"]}
        if key == "mean_power":
            doc["users"][0]["clusters"][0][key] = value
        else:
            doc[key] = value
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        assert main(["simulate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("config error") == 2 and key in err

    @pytest.mark.parametrize("content, message", [
        (json.dumps({"seed": 3, "geometry": {"n_antennas": 10 ** 20},
                     "users": [{"clusters": [{"direction": 0.1, "spread_fraction": 0.5}]}],
                     "realizations": 1}).encode(), "too large"),
        (b"\xff\xfe{}", "not UTF-8"),
        (b"[" * 100000 + b"]" * 100000, "nested too deeply"),
        (json.dumps({"seed": 3, "geometry": {"n_antennas": 2 ** 9},
                     "users": [{"clusters": [{"direction": 0.1, "spread_fraction": 0.5}]}],
                     "grid": {"t_max": 2 ** 10}, "realizations": 2 ** 5 + 1,
                     "outputs": ["histogram"]}).encode(), "too large"),
    ], ids=["oversized", "not-utf8", "deeply-nested", "kept-realizations"])
    def test_unreadable_or_oversized_document_exits_2(self, content, message, tmp_path,
                                                      capsys, monkeypatch):
        import blockfade.cli as cli

        def never(*args, **kwargs):
            raise AssertionError("a rejected document must not run")
        monkeypatch.setattr(cli, "run_scenario", never)
        path = tmp_path / "c.json"
        path.write_bytes(content)
        assert main(["validate", str(path)]) == 2
        assert main(["simulate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("config error") == 2 and err.count(message) == 2

    def test_overflowing_power_exits_3(self, tmp_path, capsys):
        # every cluster power is finite, but |h|**2 overflows in the reductions
        huge = 1.7e308
        doc = {"seed": 5, "geometry": {"n_antennas": 4},
               "users": [{"clusters": [{"direction": 0.3, "spread_fraction": 0.5,
                                        "mean_power": huge},
                                       {"direction": 1.3, "spread_fraction": 0.5,
                                        "mean_power": huge}]},
                         {"clusters": [{"direction": 2.0, "spread_fraction": 0.5,
                                        "mean_power": huge}]}],
               "realizations": 3,
               "outputs": ["correlation-matrix", "power-profile", "cross-correlation",
                           "histogram"]}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 0
        capsys.readouterr()
        # a numpy RuntimeWarning on the way to the exit code fails the test
        for threads in ("1", "2"):
            out = tmp_path / f"out{threads}"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["simulate", str(path), "--out", str(out),
                             "--threads", threads]) == 3
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("numerical failure:")
            assert not (out / "manifest.csv").exists()

    @pytest.mark.parametrize("option, value", [
        ("--seed", "-1"), ("--seed", str(2 ** 64)), ("--threads", "0")])
    def test_bad_cli_values_exit_2(self, option, value, capsys):
        assert main(["preset", "fig2", option, value]) == 2
        assert "config error" in capsys.readouterr().err

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "blockfade" in capsys.readouterr().out
