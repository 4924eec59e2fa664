"""Self-test of the benchmark's tracer, run from the root of a checkout:

    python3 rwbench/selftest.py [WORKLOAD ...]     (default: every workload)

For each workload it makes two traced runs on one seed and checks that
  * each run is correct, which includes that its traced and untraced cycles
    gave the same verdicts, digests and invariants (run.py compares them);
  * both runs report identical per-layer counts.
Exit code 0 when every check holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run

SEED = 5
TIME_UNITS = ("s", "1/s")
TIMED_RATIOS = ("trace.overhead_ratio",)


def traced(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", workload,
         "--seed", str(SEED), "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=400)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(workloads) -> int:
    failures = []
    for workload in workloads:
        first, second = traced(workload), traced(workload)
        for result in (first, second):
            if not result["correct"] or result["failed"]:
                failures.append(f"{workload}: traced run not correct")
        counts, again = ({k: v["value"] for k, v in r["metrics"].items()
                          if v["unit"] not in TIME_UNITS and k not in TIMED_RATIOS}
                         for r in (first, second))
        differing = sorted(k for k in counts if counts[k] != again.get(k))
        if differing:
            failures.append(f"{workload}: counts differ between traced runs: {differing}")
        print(f"{workload}: {len(counts)} counts compared, "
              f"{'ok' if not differing else 'MISMATCH'}")
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or run.WORKLOADS))
