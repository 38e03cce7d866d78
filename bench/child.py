"""One benchmark pass, run in a fresh interpreter.

Usage: python3 bench/child.py SPEC.json RESULT.json

SPEC lists the ``blockfade.cli.main`` command lines of the pass (see
run.py).  The pass imports blockfade from ``src/`` of the working
directory, parses or expands every scenario document (set-up), then runs
each command line in order.  RESULT receives the set-up time, the wall and
CPU time spent from the start of each scenario run to its manifest being
written, the peak resident memory, the exit codes and, when traced, the
per-layer totals.
"""

from time import perf_counter, process_time

T0 = perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _setup(spec):
    import blockfade
    from blockfade import analytics, cli, emit, scenario, stochastic
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(blockfade.__file__).startswith(src + os.sep):
        raise RuntimeError(f"blockfade imported from {blockfade.__file__}, not from {src}")
    modules = {"cli": cli, "scenario": scenario, "stochastic": stochastic,
               "analytics": analytics, "emit": emit}
    tracer = None
    if spec["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install(modules)
    for inv in spec["invocations"]:
        if inv["doc"] is not None:
            with open(inv["doc"], encoding="utf-8") as fh:
                scenario.parse_config(fh.read())
        else:
            scenario.expand_preset(inv["preset"], inv["seed"])
    return modules, tracer


def _time_runs(cli, totals):
    """Time every scenario run at the name the CLI calls it by."""
    inner = cli.run_scenario

    def timed(config, *args, **kwargs):
        w0, c0 = perf_counter(), process_time()
        try:
            return inner(config, *args, **kwargs)
        finally:
            totals["run_s"] += perf_counter() - w0
            totals["cpu_s"] += process_time() - c0
            totals["realizations"] += config.realizations
            totals["rb_blocks"] += config.realizations * config.grid.t_max * config.grid.f_max

    cli.run_scenario = timed


def _emitted(invocations):
    """Bytes and data rows the emit layer wrote, manifest included."""
    total_bytes = rows = 0
    for inv in invocations:
        out = inv["argv"][inv["argv"].index("--out") + 1]
        for name in os.listdir(out):
            total_bytes += os.path.getsize(os.path.join(out, name))
        with open(os.path.join(out, "manifest.csv"), encoding="utf-8") as fh:
            rows += sum(int(line.split(",")[1]) for line in fh.read().splitlines()[1:])
    return {"emit.bytes_written": total_bytes, "emit.rows": rows}


def _versions():
    import numpy as np
    info = {"python": sys.version.split()[0], "numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # show_config differs across numpy versions
        info["blas"] = "unknown"
    info["blas_threads"] = os.environ.get("OPENBLAS_NUM_THREADS", "default")
    return info


def main(spec_path, result_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    result = {"error": None, "exit_codes": []}
    try:
        modules, tracer = _setup(spec)
        result["setup_s"] = perf_counter() - T0
        result["versions"] = _versions()
        if not spec["setup_only"]:
            cli = modules["cli"]
            totals = {"run_s": 0.0, "cpu_s": 0.0, "realizations": 0, "rb_blocks": 0}
            _time_runs(cli, totals)
            report = io.StringIO()
            with contextlib.redirect_stdout(report):
                for inv in spec["invocations"]:
                    try:
                        code = cli.main(inv["argv"])
                    except SystemExit as exc:  # argparse rejects a command line
                        code = exc.code
                    result["exit_codes"].append(code)
            result.update(totals)
            if tracer is not None:
                result["layers"] = tracer.summary(totals["run_s"])
                result["layers"].update(_emitted(spec["invocations"]))
                result["missing"] = tracer.missing
    except Exception:
        result["error"] = traceback.format_exc()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 1 if result["error"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
