"""Tests for CSV/SVG emission, manifests, and the CLI surface."""

import hashlib
import json
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockfade import (coefficient_histogram, empirical_cdf, expand_preset, parse_config,
                       run_scenario)
from blockfade import emit
from blockfade.cli import main
from blockfade.emit import (correlation_rows, ecdf_rows, histogram_rows,
                            power_profile_rows, raw_channel_rows, svg_heatmap,
                            svg_polylines, write_bundle, xcorr_rows)
from blockfade.scenario import ReportBundle


def fmt(x) -> str:
    """One value in 17 significant digits, the reference conversion of every writer."""
    return format(float(x), ".17g")


class TestRows:
    def test_float_format_is_17_digits(self):
        assert correlation_rows(np.array([[0.5, 1 / 3]])) == "0.5,0.33333333333333331\n"

    def test_ecdf_rows(self):
        assert ecdf_rows(empirical_cdf([1, 2])) == "1,0.5\n2,1\n"

    def test_histogram_rows_sum_to_total(self):
        hist = coefficient_histogram(np.array([1 + 1j, -1 - 1j, 0.5 + 0j]),
                                     bins_per_axis=2)
        rows = histogram_rows(hist).splitlines()
        assert len(rows) == 4
        assert sum(int(r.split(",")[2]) for r in rows) == 3

    def test_correlation_rows_unit_diagonal(self):
        matrix = np.array([[1.0, 0.25, 0.5],
                           [0.25, 1.0, 0.125],
                           [0.5, 0.125, 1.0]])
        rows = correlation_rows(matrix).splitlines()
        assert len(rows) == 3
        assert rows[0] == "1,0.25,0.5"

    def test_power_profile_rows_one_based(self):
        assert power_profile_rows(np.array([[2.0], [3.0]])) == "1,1,2\n2,1,3\n"


# Per-value formatters, the reference for the %-template writers: one f-string
# and one fmt call per value, and _scale on one scalar at a time.

def _oracle_histogram_rows(hist):
    centers = emit._centers(hist["edges"])
    for (i, j), count in np.ndenumerate(hist["counts"]):
        yield f"{fmt(centers[i])},{fmt(centers[j])},{count}"


def _oracle_ecdf_rows(values):
    for v, p in zip(*emit._cdf_points(values)):
        yield f"{fmt(v)},{fmt(p)}"


def _oracle_xcorr_rows(payload):
    for c, n in zip(emit._centers(payload["edges"]), payload["counts"]):
        yield f"{fmt(c)},{int(n)}"


def _oracle_power_profile_rows(profile):
    for (i, j), power in np.ndenumerate(profile):
        yield f"{i + 1},{j + 1},{fmt(power)}"


def _oracle_correlation_rows(matrix):
    for row in matrix:
        yield ",".join(fmt(x) for x in row)


def _oracle_scale(v, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return out_lo + (v - lo) / span * (out_hi - out_lo)


def _oracle_polyline_points(xs, ys, x_range, y_range):
    (x0, x1), (y0, y1) = x_range, y_range
    M, W, H = emit._M, emit._W, emit._H
    return " ".join(f"{_oracle_scale(x, x0, x1, M, W - M):.2f},"
                    f"{_oracle_scale(y, y0, y1, H - M, M):.2f}" for x, y in zip(xs, ys))


def _oracle_heatmap_rects(hist):
    edges, counts = hist["edges"], hist["counts"]
    peak, lo, hi = counts.max(), edges[0], edges[-1]
    M, W, H = emit._M, emit._W, emit._H
    for i, j in np.argwhere(counts > 0):
        x = _oracle_scale(edges[i], lo, hi, M, W - M)
        x2 = _oracle_scale(edges[i + 1], lo, hi, M, W - M)
        y = _oracle_scale(edges[j + 1], lo, hi, H - M, M)
        y2 = _oracle_scale(edges[j], lo, hi, H - M, M)
        shade = int(235 * (1.0 - counts[i, j] / peak))
        yield (f'<rect x="{x:.2f}" y="{y:.2f}" width="{x2 - x:.2f}" '
               f'height="{y2 - y:.2f}" fill="rgb({shade},{shade},255)"/>\n')


# -0.0, subnormal-adjacent and huge magnitudes, integers held as floats and
# repeated values (ties that _cdf_points merges)
EDGE_VALUES = np.array([-0.0, 1e-300, 1e300, 3.0, -2.0, 3.0, 0.0, -1e300, 7.0, -2.0, 0.1,
                        -1e-300, 5e-324, 1 / 3, 3.0])


class TestTemplateWritersMatchPerValueFormatters:
    def test_ecdf_rows(self):
        for values in (EDGE_VALUES, EDGE_VALUES[:1], np.array([4.0] * 5)):
            assert ecdf_rows(values).splitlines() == list(_oracle_ecdf_rows(values))
        # -0.0 and 0.0 are one tie: four samples at or below 0 of 15
        assert ecdf_rows(EDGE_VALUES).splitlines()[1:4] == ["-2,0.20000000000000001",
                                               "-1e-300,0.26666666666666666",
                                               "0,0.40000000000000002"]

    def test_histogram_and_heatmap(self):
        hist = {"edges": np.array([-1e300, -3.0, -0.0, 1e-300, 2.0, 1e300]),
                "counts": np.array([[0, 3, 0, 1, 0], [7, 7, 0, 0, 2], [0, 0, 0, 0, 0],
                                    [1, 0, 5, 0, 0], [0, 0, 0, 0, 9]], dtype=np.int64)}
        assert histogram_rows(hist).splitlines() == list(_oracle_histogram_rows(hist))
        svg = svg_heatmap(hist)
        rects = "".join(_oracle_heatmap_rects(hist))
        assert rects.count("<rect x=") == 8 and rects in svg
        assert svg.count("<rect") == 9  # the background and the eight nonzero bins
        empty = {"edges": hist["edges"], "counts": np.zeros_like(hist["counts"])}
        assert svg_heatmap(empty).count("<rect") == 1
        real = coefficient_histogram(EDGE_VALUES[3:] * (1 - 1j), bins_per_axis=4)
        assert histogram_rows(real).splitlines() == list(_oracle_histogram_rows(real))
        assert "".join(_oracle_heatmap_rects(real)) in svg_heatmap(real)

    def test_xcorr_power_profile_and_correlation_rows(self):
        payload = {"edges": np.array([0.0, 1e-300, 0.5, 3.0, 1e300]),
                   "counts": np.array([4, 0, 4, 12], dtype=np.int64)}
        assert xcorr_rows(payload).splitlines() == list(_oracle_xcorr_rows(payload))
        profile = EDGE_VALUES[:12].reshape(4, 3)
        assert (power_profile_rows(profile).splitlines()
                == list(_oracle_power_profile_rows(profile)))
        assert (correlation_rows(profile).splitlines()
                == list(_oracle_correlation_rows(profile)))

    @pytest.mark.parametrize("x_range, y_range", [((-2.0, 7.0), (0.0, 1.0)),
                                                  ((1.0, 1.0), (-1e300, 1e300))])
    def test_polyline_points(self, x_range, y_range):
        xs = EDGE_VALUES[3:]
        for ys in (EDGE_VALUES[:12], np.arange(12)):  # float and integer series
            svg = svg_polylines([(xs, ys), (xs[::-1], ys)], x_range, y_range)
            for a, b in ((xs, ys), (xs[::-1], ys)):
                assert f'points="{_oracle_polyline_points(a, b, x_range, y_range)}"' in svg

    @pytest.mark.parametrize("fill_rows", [1, 4, 5])
    def test_row_blocks_join_seamlessly(self, fill_rows, monkeypatch):
        monkeypatch.setattr(emit, "FILL_ROWS", fill_rows)
        assert ecdf_rows(EDGE_VALUES).splitlines() == list(_oracle_ecdf_rows(EDGE_VALUES))
        xs, ys = EDGE_VALUES[3:], EDGE_VALUES[:12]
        svg = svg_polylines([(xs, ys)], (-2.0, 7.0), (0.0, 1.0))
        assert f'points="{_oracle_polyline_points(xs, ys, (-2.0, 7.0), (0.0, 1.0))}"' in svg
        real = coefficient_histogram(EDGE_VALUES[3:] * (1 - 1j), bins_per_axis=4)
        assert "".join(_oracle_heatmap_rects(real)) in svg_heatmap(real)

    def test_scale_keeps_the_scalar_operation_order(self):
        v = np.random.default_rng(5).uniform(-3.0, 11.0, 2000)
        want = [_oracle_scale(x, -2.5, 9.75, emit._H - emit._M, emit._M) for x in v]
        assert emit._scale(v, -2.5, 9.75, emit._H - emit._M, emit._M).tolist() == want


def _oracle_raw_rows(kept):
    """Per-row f-string formatting of raw_channel.csv, the reference for the
    chunked %-template formatter."""
    for m, t, f in np.ndindex(kept.shape[:3]):
        h = kept[m, t, f]
        n, k = h.shape
        for i in range(n):
            for j in range(k):
                yield (f"{m + 1},{t + 1},{f + 1},{i + 1},{j + 1},"
                       f"{fmt(h[i, j].real)},{fmt(h[i, j].imag)}")


class TestRawChannelRows:
    @pytest.fixture()
    def kept(self):
        # (R, T, F, N, K) = (3, 1, 3, 2, 3): 9 RBs of 6 rows each
        rng = np.random.default_rng(11)
        kept = rng.standard_normal((3, 1, 3, 2, 3)) - 1j * rng.random((3, 1, 3, 2, 3))
        kept[0, 0, 0, 0, :3] = [complex(-0.0, 0.1), complex(5e-324, -0.0),
                                complex(1.7e308, -5e-324)]
        kept[2, 0, 2, 1, 2] = complex(0.1, -1.7e308)
        return kept

    # 12 rows: two RBs a chunk, the last chunk one RB; 4 and 5 rows: RBs
    # split into parts; 2**16 rows: one chunk
    @pytest.mark.parametrize("chunk_rows, chunks", [(12, 5), (5, 18), (4, 18), (2 ** 16, 1)])
    def test_matches_per_row_oracle(self, kept, chunk_rows, chunks, monkeypatch):
        monkeypatch.setattr(emit, "RAW_CHUNK_ROWS", chunk_rows)
        parts = list(raw_channel_rows(kept))
        assert len(parts) == chunks
        assert all(0 < part.count("\n") <= chunk_rows for part in parts)
        oracle = "".join(row + "\n" for row in _oracle_raw_rows(kept))
        assert "".join(parts) == oracle
        assert oracle.startswith("1,1,1,1,1,-0,0.10000000000000001\n"
                                 "1,1,1,1,2,4.9406564584124654e-324,-0\n")

    def test_written_file_and_manifest(self, kept, tmp_path, monkeypatch):
        monkeypatch.setattr(emit, "RAW_CHUNK_ROWS", 12)
        config = replace(expand_preset("paper-D"), outputs=("raw-channel",))
        bundle = ReportBundle(config=config, artifacts={"raw-channel": kept})
        _, manifest = write_bundle(bundle, tmp_path)
        data = (tmp_path / "raw_channel.csv").read_bytes()
        expected = "\n".join(["realization,t,f,antenna,user,re,im",
                              *_oracle_raw_rows(kept)]) + "\n"
        assert data == expected.encode()
        rows = {name: (count, digest) for name, count, digest in manifest}
        assert rows["raw_channel.csv"] == (3 * 1 * 3 * 2 * 3, hashlib.sha256(data).hexdigest())


def _oracle_text(kept) -> str:
    return "".join(row + "\n" for row in _oracle_raw_rows(kept))


def _as_kept(values) -> np.ndarray:
    """An even number of floats as a (1, 1, 1, n, 1) channel array of (re, im) pairs."""
    return np.array(values, dtype=float).view(complex).reshape(1, 1, 1, -1, 1)


def _exact_edge_values() -> list:
    """Values at the edges of the exact-digit range, next to powers of ten, on
    round-half-even ties and outside the range, with both signs."""
    nearest = [1e-10, 1e15] + [float(f"1e{k}") for k in range(-12, 17)]
    neighbours = [float(np.nextafter(v, to)) for v in nearest for to in (0.0, np.inf)]
    # 18-digit values ending in 5: the 17th digit stays when even, rises when odd
    ties = [100001 * 2.0 ** -18, 100003 * 2.0 ** -18, 2.0 ** -25, 3 * 2.0 ** -24,
            1049 * 2.0 ** -20, 1e14 + 0.125, 1e14 + 0.375]
    others = [0.0, 5e-324, 1.7e308, 1.0, 10.0, 1e14, 1e-300, 1e300]
    values = nearest + neighbours + ties + others
    return values + [-v for v in values]


class TestExactDigits:
    """raw_channel_rows against %.17g value by value."""

    def test_edge_values(self):
        kept = _as_kept(_exact_edge_values())
        text = "".join(raw_channel_rows(kept))
        assert text == _oracle_text(kept)
        fields = set(text.replace("\n", ",").split(","))
        assert {"0.38147354125976562", "0.38148117065429688", "100000000000000.12",
                "100000000000000.38", "-0", "4.9406564584124654e-324"} <= fields

    def test_chunks_mixing_exact_and_fallback_values(self, monkeypatch):
        monkeypatch.setattr(emit, "RAW_CHUNK_ROWS", 12)
        rng, shape = np.random.default_rng(7), (2, 1, 2, 4, 3, 2)
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-14, 19, shape)
        values[rng.random(shape) < 0.1] = 0.0
        kept = values.view(complex)[..., 0]
        assert "".join(raw_channel_rows(kept)) == _oracle_text(kept)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                              st.floats(allow_nan=False, allow_infinity=False)),
                    min_size=1, max_size=8))
    def test_every_finite_double(self, pairs):
        kept = _as_kept([x for pair in pairs for x in pair])
        assert "".join(raw_channel_rows(kept)) == _oracle_text(kept)

    def test_peak_memory(self):
        """The writer's transient memory is bounded by its chunk, not by the array."""
        rng = np.random.default_rng(3)
        kept = rng.standard_normal((1000, 1, 1, 128, 3)) + 1j * rng.standard_normal(
            (1000, 1, 1, 128, 3))
        tracemalloc.start()
        try:
            for _ in raw_channel_rows(kept):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_writer_holds_no_chunk_while_formatting(self, tmp_path):
        # _write releases a chunk's text and bytes before the next chunk is formatted, so
        # it peaks less than one chunk's length above consuming the rows
        rng = np.random.default_rng(3)
        kept = rng.standard_normal((100, 1, 1, 128, 3)) + 1j * rng.standard_normal(
            (100, 1, 1, 128, 3))
        chunk = max(map(len, raw_channel_rows(kept)))
        tracemalloc.start()
        try:
            for _ in raw_channel_rows(kept):
                pass
            rows = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            emit._write(str(tmp_path / "raw.csv"), raw_channel_rows(kept), "raw-channel")
            written = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert written - rows < chunk


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

    @pytest.mark.parametrize("smallest, code", [(-6.9e-11, 2), (-3e-13, 0)],
                             ids=["rejected", "accepted"])
    def test_custom_matrix_psd_decided_once(self, smallest, code, tmp_path, capsys):
        # a 3x3 correlation matrix with eigenvalues (smallest, b, b) on an
        # orthonormal basis whose first vector is ones / sqrt(3): b = (3 -
        # smallest) / 2 keeps the diagonal at 1.  It is PSD exactly when it
        # has a Cholesky factor after a 1e-12 jitter, for validate and run.
        basis = np.array([[1, 1, 1], [1, -1, 0], [1, 1, -2]]) / np.sqrt([[3], [2], [6]])
        eigenvalues = np.array([smallest, (3 - smallest) / 2, (3 - smallest) / 2])
        matrix = (basis.T * eigenvalues) @ basis
        assert np.linalg.eigvalsh(matrix).min() == pytest.approx(smallest, rel=1e-3)
        doc = {"seed": 3, "geometry": {"n_antennas": 4},
               "users": [{"clusters": [{"direction": 0.1, "spread_fraction": 0.5}]}],
               "grid": {"t_max": 3},
               "correlation": {"mode": "time", "model": "custom", "matrix": matrix.tolist()},
               "realizations": 2, "outputs": ["histogram"]}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == code
        assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == code
        err = capsys.readouterr().err.splitlines()
        if code:
            assert len(err) == 2
            assert all(line.startswith("config error: config.correlation: ")
                       and line.endswith("not PSD") for line in err)
        else:
            assert err == []

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
        # one digit past the interpreter's limit on int <-> str conversion
        (b'{"seed": 1' + b"0" * 4300 + b', "geometry": {"n_antennas": 4}, "users": '
         b'[{"clusters": [{"direction": 0.1, "spread_fraction": 0.5}]}], '
         b'"realizations": 1}', "unreadable number"),
        # 4097 clusters at 4096 antennas: the (clusters, N) link table is one row too large
        (json.dumps({"seed": 3, "geometry": {"n_antennas": 2 ** 12},
                     "users": [{"clusters": [{"direction": 0.1, "spread_fraction": 0.5}]
                                * (2 ** 12 + 1)}],
                     "realizations": 1}).encode(), "too large: the link table"),
    ], ids=["oversized", "not-utf8", "deeply-nested", "kept-realizations", "huge-integer",
            "link-table"])
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

    @staticmethod
    def _overflowing(outputs) -> dict:
        # every cluster power is finite, but |h|**2 overflows in the reductions
        huge = 1.7e308
        return {"seed": 5, "geometry": {"n_antennas": 4},
                "users": [{"clusters": [{"direction": 0.3, "spread_fraction": 0.5,
                                         "mean_power": huge},
                                        {"direction": 1.3, "spread_fraction": 0.5,
                                         "mean_power": huge}]},
                          {"clusters": [{"direction": 2.0, "spread_fraction": 0.5,
                                         "mean_power": huge}]}],
                "realizations": 3, "outputs": outputs}

    @pytest.mark.parametrize("output", ["correlation-matrix", "eigencdf", "cross-correlation"])
    def test_overflowing_gram_exits_3(self, output, tmp_path, capsys):
        # an overflowed Gram matrix: inf / inf correlations, NaN eigenvalues unsolved
        path = tmp_path / "c.json"
        path.write_text(json.dumps(self._overflowing([output])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", str(path)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure:")
        assert f"{output} is not finite" in err[0]

    def test_overflowing_power_exits_3(self, tmp_path, capsys):
        doc = self._overflowing(["correlation-matrix", "power-profile", "cross-correlation",
                                 "histogram"])
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

    def test_out_names_existing_file_exits_4(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("a file, not a directory")
        assert main(["preset", "paper-D", "--out", str(target)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("i/o failure:")

    def test_memory_failure_exits_4(self, capsys, monkeypatch):
        # a failed allocation in a worker ends in one error line, not a traceback
        from blockfade import scenario

        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 256. MiB for an array")
        monkeypatch.setattr(scenario, "_Workspace", no_memory)
        assert main(["preset", "paper-D", "--threads", "2"]) == 4
        err = capsys.readouterr().err
        assert err.splitlines() == ["memory failure: Unable to allocate 256. MiB for an array"]
        assert "Traceback" not in err

    def test_thread_that_cannot_start_exits_4(self, capsys, monkeypatch):
        # the pool's first submit fails to start its thread, so no thread ever runs
        import threading

        def no_thread(self):
            raise RuntimeError("can't start new thread")
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        assert main(["preset", "paper-D", "--threads", "2"]) == 4
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("memory failure:")
        assert "can't start new thread" in err and "Traceback" not in err

    def test_numerical_failure_in_a_worker_still_exits_3(self, capsys, monkeypatch):
        # NumericalError is a RuntimeError: a chunk's own failure is not a thread start
        from blockfade import NumericalError, scenario

        def failing(*args, **kwargs):
            raise NumericalError("a chunk failed")
        monkeypatch.setattr(scenario, "_realize_chunk", failing)
        assert main(["preset", "paper-D", "--threads", "2"]) == 3
        err = capsys.readouterr().err
        assert err.splitlines() == ["numerical failure: a chunk failed"]

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
