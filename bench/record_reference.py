"""Record bench/reference.json: artifact summaries at the default workload seed.

Usage (from the repository root): python3 bench/record_reference.py

Every timed pass at the default seed is compared with this file (see
checks.py for the tolerance).  Re-record it only for a change that alters
the artifacts on purpose, and say why where the change is described.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import checks
import run
import workloads


def main() -> int:
    work = run.ROOT / ".bench_work" / f"reference-{os.getpid()}"
    artifacts, versions = {}, {}
    try:
        # multi-rb-2t runs the multi-rb documents, so it shares their entry.
        for workload in ("validation-presets", "multi-rb", "raw-export"):
            wdir = work / workload
            wdir.mkdir(parents=True)
            invocations, _ = workloads.generate(workload, workloads.DEFAULT_SEED,
                                                wdir.relative_to(run.ROOT).as_posix())
            p = run.run_pass(wdir, 0, invocations, time.monotonic() + 600)
            if p.error:
                print(f"{workload}: {p.error}", file=sys.stderr)
                return 1
            for inv in invocations:
                artifacts[inv.name] = checks.check_output(p.dir / inv.name, inv)
            versions = p.result["versions"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {"seed": workloads.DEFAULT_SEED, "git_commit": run.git_commit(),
              "versions": versions, "artifacts": artifacts}
    # One line per scenario keeps the file diffable.
    scenarios = ",\n".join(f"  {json.dumps(name)}: {json.dumps(summary, sort_keys=True)}"
                           for name, summary in sorted(artifacts.items()))
    head = json.dumps({k: v for k, v in record.items() if k != "artifacts"}, sort_keys=True)
    run.REFERENCE.write_text(f'{head[:-1]}, "artifacts": {{\n{scenarios}\n}}}}\n')
    print(f"wrote {run.REFERENCE} ({len(artifacts)} scenarios)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
