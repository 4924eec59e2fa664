"""Child entry points of the ramwedge benchmark, one fresh interpreter each.

    child.py cli TRACE_FILE CLI_ARGS...        traced cli.main call
    child.py setup WORKLOAD SEED DIR           one timed set-up; prints seconds
    child.py reference                         the reference work (run.py)

The traced call installs the tracer, runs ``ramwedge.cli.main`` and writes the
spans, counters and annihilator-cache totals to TRACE_FILE; its exit code is
the CLI's.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import run


def traced_cli(trace_file: str, argv: list) -> int:
    run.import_ramwedge()
    from tracer import Tracer, annihilator_cache_stats
    import ramwedge.cli
    tracer = Tracer()
    tracer.job = Path(trace_file).stem
    tracer.install()
    try:
        return ramwedge.cli.main(argv)
    finally:
        tracer.uninstall()
        dump = tracer.dump()
        dump["cache"] = annihilator_cache_stats()
        Path(trace_file).write_text(json.dumps(dump))


def setup(workload: str, seed: str, workdir: str) -> int:
    start = time.perf_counter()
    probe_dir = Path(workdir) / f"probe-{time.perf_counter_ns()}"
    run.setup_workload(workload, int(seed), probe_dir)
    print(time.perf_counter() - start)
    return 0


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "cli":
        sys.exit(traced_cli(rest[0], rest[1:]))
    if mode == "setup":
        sys.exit(setup(*rest))
    if mode == "reference":
        sys.exit(run.reference_work())
    sys.exit(f"unknown mode {mode!r}")
