"""blockfade benchmark: scenario workloads run end to end through the CLI.

Usage (from the repository root):

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each pass runs the workload's generated command lines through
``blockfade.cli.main`` in a fresh interpreter (bench/child.py) that imports
the program from ``src/``; passes run one after another for about
``--seconds`` seconds, and every pass's output is checked (bench/checks.py).
With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
traced and untraced passes alternate and the per-layer metrics are
reported.  The last line of standard output is a JSON object with the keys
correct, attempted, failed and metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

END_TO_END = (("run_s", "s"), ("rb_per_s", "1/s"), ("cpu_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))

MIN_PASSES = 3
# No run may exceed 180 s; a child still running this long after the run
# began is killed and its pass counted as failed.
RUN_DEADLINE_S = 165.0
# Spans must account for the traced run_s to within this fraction.
ACCOUNTING_TOLERANCE = 0.02

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One BLAS thread: the only parallelism is the program's own --threads.
    env.update({v: "1" for v in BLAS_THREAD_VARS})
    # A fixed hash seed gives every pass the same dict and set layouts,
    # one source of pass-to-pass variation fewer.
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Pass:
    """One child interpreter: its role, result record and, if it failed, why.

    Roles: "setup" (import and parse only), "reference" (the one-thread
    run a multi-threaded workload is compared with) and "timed".
    """

    dir: Path
    role: str
    traced: bool
    result: dict = field(default_factory=dict)
    error: str = None


def run_pass(work: Path, index: int, invocations, deadline: float, role="timed",
             traced=False) -> Pass:
    directory = work / f"pass{index:03d}"
    directory.mkdir()
    rel = directory.relative_to(ROOT).as_posix()
    setup_only = role == "setup"
    spec = {"trace": traced, "setup_only": setup_only,
            "invocations": [inv.to_json(rel) for inv in invocations]}
    (directory / "spec.json").write_text(json.dumps(spec))
    p = Pass(directory, role, traced)
    start = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), f"{rel}/spec.json", f"{rel}/result.json"]
    with open(directory / "stdout.txt", "wb") as out, open(directory / "stderr.txt", "wb") as err:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err,
                                  timeout=max(1.0, deadline - start))
        except subprocess.TimeoutExpired:
            proc = None
    result_path = directory / "result.json"
    if result_path.exists():
        p.result = json.loads(result_path.read_text())
    if proc is None:
        p.error = "killed at the run deadline"
    elif proc.returncode != 0 or p.result.get("error"):
        tail = (p.result.get("error") or (directory / "stderr.txt").read_text()[-2000:])
        p.error = f"child exited {proc.returncode}: {tail.strip()}"
    elif not setup_only and p.result["exit_codes"] != [0] * len(invocations):
        stderr = (directory / "stderr.txt").read_text()[-2000:].strip()
        p.error = f"blockfade exit codes {p.result['exit_codes']}: {stderr}"
    return p


def check_pass(p: Pass, invocations, reference, same_as=None) -> None:
    """Set ``p.error`` if any artifact of the pass fails its checks."""
    if p.error or p.role == "setup":
        return
    try:
        for inv in invocations:
            summary = checks.check_output(p.dir / inv.name, inv)
            if reference is not None:
                checks.compare_reference(summary, reference[inv.name])
            if same_as is not None:
                checks.same_bytes(p.dir / inv.name, same_as.dir / inv.name)
        if p.traced:
            frac = p.result["layers"]["trace.accounted_frac"]
            if abs(frac - 1.0) > ACCOUNTING_TOLERANCE:
                raise checks.CheckError(f"spans account for {frac:.4f} of the traced run_s")
    except (checks.CheckError, OSError, ValueError, KeyError) as exc:
        p.error = f"output check: {exc}"


def tail_percentile(values):
    """Highest whole percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 20:
        return None
    q = int(100 * (1 - 10 / n))
    return q, statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def git_commit():
    # An explicit --git-dir keeps git from searching directories above the
    # checkout, which may belong to another repository.
    try:
        out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (no git)"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(seed, digests, versions) -> dict:
    return {"git_commit": git_commit(), **versions,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": _cpu_model(), "workload_seed": seed, "input_sha256": digests}


def measure(workload, seed, seconds, trace, work: Path):
    """Run one workload; returns (passes, environment record)."""
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    invocations, digests = workloads.generate(workload, seed, work.relative_to(ROOT).as_posix())
    reference = None
    if seed == workloads.DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text())["artifacts"]
    passes = []

    def run(invs, **kw):
        p = run_pass(work, len(passes), invs, deadline, **kw)
        passes.append(p)
        return p

    # Warms the bytecode and file caches; its set-up time is not counted.
    run(invocations, role="setup")
    # The thread-count contract: a multi-threaded workload's artifacts must
    # equal, byte for byte, those of the same documents at one thread.
    one_thread = None
    if any(inv.threads > 1 for inv in invocations):
        serial = [replace(inv, threads=1) for inv in invocations]
        one_thread = run(serial, role="reference")
        check_pass(one_thread, serial, reference)
    measured_from = time.monotonic()
    walls = []
    while time.monotonic() < deadline:
        elapsed = time.monotonic() - measured_from
        if len(walls) >= MIN_PASSES and elapsed + statistics.median(walls) / 2 > seconds:
            break
        t0 = time.monotonic()
        # A set-up-only interpreter beside each pass doubles the set-up
        # samples and spreads them over the run like the pass samples.
        run(invocations, role="setup")
        p = run(invocations, traced=trace and len(walls) % 2 == 1)
        check_pass(p, invocations, reference, one_thread)
        for inv in invocations:
            shutil.rmtree(p.dir / inv.name, ignore_errors=True)
        walls.append(time.monotonic() - t0)
    versions = next((p.result["versions"] for p in passes if "versions" in p.result), {})
    return passes, environment(seed, digests, versions)


def _timed(passes, traced):
    return [p for p in passes if p.role == "timed" and p.traced == traced
            and "run_s" in p.result]


def end_to_end(passes):
    """Samples of every end-to-end metric, from the untraced interpreters.

    Set-up samples come from every untraced interpreter but the first,
    which warms the caches.
    """
    timed = _timed(passes, traced=False)
    return {
        "run_s": [p.result["run_s"] for p in timed],
        "rb_per_s": [p.result["rb_blocks"] / p.result["run_s"] for p in timed],
        "cpu_s": [p.result["cpu_s"] for p in timed],
        "peak_rss_mb": [p.result["peak_rss_mb"] for p in timed],
        "setup_s": [p.result["setup_s"] for p in passes[1:]
                    if "setup_s" in p.result and not p.traced],
    }


def per_layer(traced, untraced_run_s):
    """Medians of the per-layer metrics over the traced passes, and the
    layers that were not observed."""
    med = statistics.median
    out = {key: med([p.result["layers"][key] for p in traced])
           for key in traced[0].result["layers"]}
    out["scenario.realizations"] = med([p.result["realizations"] for p in traced])
    out["scenario.rb_blocks"] = med([p.result["rb_blocks"] for p in traced])
    run_s = med([p.result["run_s"] for p in traced])
    out["trace.run_s"] = run_s
    out["trace_overhead_frac"] = run_s / untraced_run_s - 1.0
    missing = sorted({m for p in traced for m in p.result.get("missing", [])})
    unobserved = [layer for layer in spans.LAYERS if out[f"{layer}.calls"] == 0]
    return out, missing + [f"{layer} (0 calls)" for layer in unobserved]


def unit_of(key):
    if key in ("stochastic.cholesky_useful_ratio", "trace.accounted_frac",
               "trace_overhead_frac"):
        return "ratio"
    if key == "emit.bytes_written":
        return "bytes"
    return "s" if key.endswith("_s") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "blockfade" / "__init__.py").is_file():
        print(f"benchmark: no blockfade sources under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        passes, env = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(passes)
    failures = [p for p in passes if p.error]
    samples = end_to_end(passes)
    traced = _timed(passes, traced=True)
    if not samples["run_s"] or not samples["setup_s"] or (args.trace and not traced):
        for p in failures:
            print(f"FAILED {p.dir.name}: {p.error}", file=sys.stderr)
        print("benchmark: no pass completed; no result", file=sys.stderr)
        return 1

    print(f"workload {args.workload}: {workloads.WORKLOADS[args.workload]}")
    print(f"seed {args.seed}, trace {args.trace}, {attempted} interpreters: "
          + ", ".join(f"{sum(p.role == r for p in passes)} {r}"
                      for r in ("setup", "reference", "timed")))
    print(f"error_rate {len(failures) / attempted:.4g} ratio "
          f"({len(failures)} failed / {attempted} attempted)")
    for p in failures:
        print(f"FAILED {p.dir.name}: {p.error}")
    metrics = {}
    if not args.trace:
        for name, unit in END_TO_END:
            values = samples[name]
            med = statistics.median(values)
            tail = tail_percentile(values)
            tail_text = (f"p{tail[0]} {tail[1]:.6g}" if tail
                         else "no percentile has 10 samples beyond it")
            print(f"{name:<14} median {med:.6g} {unit:<4} {tail_text}, n={len(values)}")
            metrics[name] = {"value": med, "unit": unit}
    else:
        layers, unobserved = per_layer(traced, statistics.median(samples["run_s"]))
        for key, value in layers.items():
            print(f"{key:<42} {value:.6g} {unit_of(key)} (median, n={len(traced)})")
            metrics[key] = {"value": value, "unit": unit_of(key)}
        for name in unobserved:
            print(f"not observed: {name}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
