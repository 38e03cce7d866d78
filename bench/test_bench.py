"""Tests of the benchmark's own checks and tracer.

Run from the repository root: python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import threading
import time
import types
from dataclasses import replace

import pytest

import checks
import run
import spans
import workloads

TINY = {"seed": 11, "geometry": {"n_antennas": 4},
        "users": [{"clusters": [{"direction": 0.5, "spread_fraction": 0.5}]},
                  {"clusters": [{"direction": 2.0, "spread_fraction": 0.7},
                                {"direction": 1.0, "spread_fraction": 0.2}]}],
        "grid": {"t_max": 2, "f_max": 3},
        "correlation": {"mode": "time", "model": "exponential", "rho": 0.5, "length": 2},
        "realizations": 3, "bins": 8,
        "outputs": ["histogram", "cross-correlation", "eigencdf", "power-profile",
                    "correlation-matrix", "raw-channel"]}


@pytest.fixture
def work():
    path = run.ROOT / ".bench_work" / f"test-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _tiny(work, doc=TINY, name="tiny"):
    path = work / f"{name}.json"
    path.write_text(json.dumps(doc))
    return workloads.Invocation(name, 1, doc["seed"], doc["realizations"],
                                doc["geometry"]["n_antennas"], len(doc["users"]),
                                tuple(doc["outputs"]), t_max=2, f_max=3, bins=8,
                                doc=path.relative_to(run.ROOT).as_posix())


def _timed_pass(work, invocations):
    return run.run_pass(work, 0, invocations, time.monotonic() + 60)


def test_correct_pass_passes_every_check(work):
    inv = _tiny(work)
    p = _timed_pass(work, [inv])
    run.check_pass(p, [inv], None)
    assert p.error is None
    assert p.result["rb_blocks"] == 3 * 2 * 3 and p.result["run_s"] > 0


def test_corrupted_artifact_is_a_failure(work):
    inv = _tiny(work)
    p = _timed_pass(work, [inv])
    path = p.dir / "tiny" / "correlation_matrix.csv"
    data = bytearray(path.read_bytes())
    data[3] = ord("7") if data[3] != ord("7") else ord("3")
    path.write_bytes(bytes(data))
    run.check_pass(p, [inv], None)
    assert p.error and "sha256" in p.error


def test_wrong_row_count_is_a_failure(work):
    inv = _tiny(work)
    p = _timed_pass(work, [inv])
    run.check_pass(p, [replace(inv, realizations=4)], None)
    assert p.error and "rows" in p.error


def test_nonzero_exit_is_a_failure(work):
    # The output directory lies under a regular file: blockfade exits 4.
    inv = replace(_tiny(work), name="../tiny.json/out")
    p = _timed_pass(work, [inv])
    assert p.error and "exit codes [4]" in p.error


def test_interpreter_failure_is_a_failure(work):
    inv = _tiny(work, dict(TINY, unknown_key=1), "bad")
    p = _timed_pass(work, [inv])
    assert p.error and p.error.startswith("child exited 1") and "unknown key" in p.error


def test_different_thread_count_bytes_are_a_failure(work):
    inv = _tiny(work)
    a = _timed_pass(work, [inv])
    b = run.run_pass(work, 1, [replace(inv, threads=2)], time.monotonic() + 60)
    run.check_pass(b, [inv], None, same_as=a)
    assert b.error is None
    (a.dir / "tiny" / "config.json").write_text("{}")
    run.check_pass(b, [inv], None, same_as=a)
    assert b.error and "differs between thread counts" in b.error


def test_reference_tolerance():
    ref = {"x.csv": {"values": [1.0, 0.25, -3.0], "counts": [500, 300, 200]}}
    ulp = {"x.csv": {"values": [1.0 + 4e-16, 0.25, -3.0 - 1e-15], "counts": [499, 301, 200]}}
    checks.compare_reference(ulp, ref)
    for drift in ({"values": [1.0, 0.2501, -3.0], "counts": [500, 300, 200]},
                  {"values": [1.0, 0.25, -3.0], "counts": [450, 350, 200]}):
        with pytest.raises(checks.CheckError):
            checks.compare_reference({"x.csv": drift}, ref)


def test_raw_export_document_is_paper_a_geometry():
    sys.path.insert(0, str(run.ROOT / "src"))
    try:
        from blockfade.scenario import expand_preset
    finally:
        sys.path.pop(0)
    preset = expand_preset("paper-A")
    doc = workloads.raw_export_doc(0)
    got = [[c["direction"] for c in u["clusters"]] for u in doc["users"]]
    assert got == [[c.direction for c in u.clusters] for u in preset.users]
    assert doc["realizations"] == preset.realizations


def test_same_seed_same_documents(work):
    a, da = workloads.generate("multi-rb", 5, work.relative_to(run.ROOT).as_posix())
    b, db = workloads.generate("multi-rb-2t", 5, work.relative_to(run.ROOT).as_posix())
    c, dc = workloads.generate("multi-rb", 6, work.relative_to(run.ROOT).as_posix())
    assert da == db and da != dc
    assert (a[0].threads, b[0].threads) == (1, 2)


def test_spans_self_times_add_up_and_missing_targets_report_zero():
    def leaf():
        time.sleep(0.01)

    def middle():
        fake.leaf()
        time.sleep(0.01)

    def pool():
        workers = [threading.Thread(target=fake.middle) for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=5)
        assert not any(w.is_alive() for w in workers)

    fake = types.SimpleNamespace(leaf=leaf, middle=middle, pool=pool)
    tracer = spans.Tracer()
    # Real layer names stand in for the fake functions.
    fake.leaf = tracer.wrap(leaf, "analytics.gram")
    fake.middle = tracer.wrap(middle, "model.build_spatial_pair")
    fake.pool = tracer.wrap(pool, "scenario.run_scenario")
    t0 = time.perf_counter()
    fake.pool()
    wall = time.perf_counter() - t0
    tracer.install({})
    out = tracer.summary(wall)
    assert out["analytics.gram.calls"] == 2 and out["model.build_spatial_pair.calls"] == 2
    # Two workers ran in parallel: per-layer self times are thread time,
    # and together with the overlap they account for the wall time.
    assert out["analytics.gram.self_s"] >= 0.02
    assert abs(out["trace.accounted_frac"] - 1.0) < 0.05
    assert out["emit.write_bundle.calls"] == 0
    assert "emit.write_bundle" in tracer.missing
