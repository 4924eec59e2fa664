"""Benchmark for ramwedge: exact verdicts and certificates, timed end to end.

Run from the root of a checkout (standard library only):

    python3 rwbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 rwbench/run.py --record        # rewrite rwbench/expected.json

The harness drives ramwedge from outside, through ``python -m ramwedge.cli``
(cold workload, one fresh interpreter per job) and through the public
``chart`` and ``drivers`` functions (warm workload, one process).  Load is a
closed loop with one client: the next job starts when the previous one has
ended, so at most one child interpreter runs beside the harness.

Workloads (why each exists is in BENCHMARK.json):

* ``warm-check-n7``: set-up warms the n = 7, F_13 annihilator caches through
  ``run_counterexample(7)`` (which calls ``full_report``); each job is
  ``check_point_implications`` (one ``full_report`` plus the implication
  lattice) on the next point of a seeded stream over the field, dual and
  poly(a, b) rings: sampled points, dense nilpotent points P N P^-1 and the
  counterexample point.  Its ``setup_s`` is therefore the cold cost of n = 7
  lattice construction, measured in fresh interpreters.
* ``cold-small-rank``: ``verify all --n 3``, ``verify all --n 5`` (four
  times a cycle), ``basis kl --n 5 --l 3`` and ``check-point`` on point files
  at n = 3 and 5 over F_13 (field, dual, poly) and over the rationals,
  written afresh for each cycle from the seed.

Job costs cluster by kind (a sparse n = 7 point takes milliseconds, a dense
one a tenth of a second or more), and a percentile that falls between two
clusters jumps with the seed.  The job mix of a cycle is therefore fixed so
that the median falls inside one cluster (warm: the dense nilpotent dual
points, whose reports take the charpoly path; cold: the n = 5 check-points)
and the tail inside the slowest (warm: the dense poly points, three or more
a batch; cold: ``verify all --n 5``, four a cycle, so that a run of three
cycles on a slow host still has more than ten).

There is no cold n = 7 CLI workload: its five calls take 0.5 to 2.5 s each,
so a run fits about thirty jobs, and its median and tail then fall on single
job kinds and spread by a fifth across runs on a 2-core machine.

A run repeats whole cycles until their time adds up to ``--seconds``.  A
cycle holds the same job kinds in the same numbers (warm: one batch of the
stream), so the job mix, and with it the percentiles, does not depend on
where the time limit falls.

End-to-end metrics (``--trace 0``): ``setup_s`` (median of at least three
set-ups: the run's own and repeats in fresh interpreters, run between
cycles), ``verdicts_per_s`` (timed jobs over their summed time),
``verdict_s.p50``, ``verdict_s.tail`` (the highest percentile with at least
ten jobs beyond it), ``peak_rss_mb`` (largest child for the cold workload)
and ``ok_ratio`` (jobs whose output passed every check, over jobs attempted).

Host speed.  The shared host this was tuned on (2-core Xeon VM) switches a
long-lived process between a fast and a slow state, about half the speed,
for spells of a few seconds, with CPU time equal to wall time; fresh
interpreters are slowed far less.  Raw times of runs a few minutes apart
therefore spread by a quarter.  Each run also times a reference job on the
same host at the same moments, in the same kind of process: fixed
pure-Python work that does not use ramwedge (``reference_work``), run
in-process before every warm job and after the last one of a batch, and in
a fresh interpreter (start-up, standard-library imports, the same work)
before every COLD_REFERENCE_EVERY-th cold job and before and after every
set-up probe.  A job's host slowdown is the median of the REFERENCE_WINDOW
reference times around it over the reference's fast-state time
(WARM_REFERENCE_S in-process, CHILD_REFERENCE_S in a fresh interpreter); a
set-up's is the mean of the reference children around it.  Each job time
and set-up time is divided by its slowdown before the medians, the tail and
``verdicts_per_s`` are taken, so the times are seconds on the host's fast
state.  The raw values, the run's slowdown and the reference samples are in
the info line and the run record; per-layer metrics are raw.  The reference
runs outside the timed jobs, and no change to ramwedge changes it.

Per-layer metrics (``--trace 1``): one traced cycle, with spans around calls
into exterior, lattices, chart, drivers and cli and call counters on the hot
arithmetic (see tracer.py), then the same cycle untraced to measure the
tracing overhead.  The printed metrics give seconds only for span groups
that both workloads use, and call counts for the rest, so no printed time is
zero by construction; the seconds of every span group (``cli.self_s``,
``drivers.<result-id>.s``, ...) and the spans themselves are in the run
record written to ``rwbench/out/``.

Every job's output is checked: certificate verdicts and canonical-JSON
digests, the counterexample verdict vector, kottwitz on points nilpotent by
construction, the implication lattice, basis-dump invariants, check-point
reports against an in-process recomputation, and (warm) zero annihilator
cache misses in the timed phase.  Expected digests and invariants, with the
default and held-out seeds, are in ``rwbench/expected.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from math import comb
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
OUT = BENCH_DIR / "out"
EXPECTED_PATH = BENCH_DIR / "expected.json"

P = 13
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 9
SETUP_PROBE_BUDGET_S = 2.0
STARTUP_PROBES = 3
RUN_DEADLINE_S = 170.0
DEFAULT_SEED = 1
HELD_OUT_SEED = 97

WORKLOADS = ("cold-small-rank", "warm-check-n7")
# Cycles (cold) and batches (warm) whose outputs expected.json holds, per
# recorded seed: more than one run at that seed reaches.
RECORDED_CYCLES = 20

SMALL_RANK_JOBS = (
    ("verify", "all", "--n", "3"),
    ("verify", "all", "--n", "5"),
    ("verify", "all", "--n", "5"),
    ("verify", "all", "--n", "5"),
    ("verify", "all", "--n", "5"),
    ("basis", "kl", "--n", "5", "--l", "3"),
)
# The reference job (see the docstring, "Host speed"), in a fresh
# interpreter (cold jobs and set-ups) and in-process (warm jobs): its
# squarings and its median time on the host's fast state.
CHILD_REFERENCE_ROUNDS, CHILD_REFERENCE_S = 6, 0.12
WARM_REFERENCE_ROUNDS, WARM_REFERENCE_S = 1, 0.0035
COLD_REFERENCE_EVERY = 2
# Reference samples around a job whose median gives the job's slowdown
# (warm: the samples just before and just after it).
REFERENCE_WINDOW = {"cold-small-rank": 5, "warm-check-n7": 2}
REFERENCE_CHECKSUM = 3266

SMALL_RANK_POINTS = {3: 1, 5: 1}  # point files per ring and cycle, by n
# Warm batch: (ring kind, sampled points, dense nilpotent points).
WARM_MIX = (("field", 10, 4), ("dual", 10, 10), ("poly", 5, 3))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def import_ramwedge():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ramwedge  # noqa: F401
    import ramwedge.cli  # noqa: F401
    import ramwedge.drivers  # noqa: F401


def canonical_digest(obj) -> str:
    data = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(data.encode()).hexdigest()


def reference_work(rounds: int = CHILD_REFERENCE_ROUNDS) -> None:
    """Fixed pure-Python work that stands for the host's speed: ``rounds``
    squarings of a dense polynomial in two variables over F_13, held the way
    ramwedge holds sparse ring elements (dicts keyed by exponent tuples)."""
    a = {(i, j): (7 * i + 3 * j + 1) % 13 for i in range(12) for j in range(12)}
    for _ in range(rounds):
        square = {}
        for (i, j), x in a.items():
            for (k, l), y in a.items():
                key = (i + k, j + l)
                square[key] = (square.get(key, 0) + x * y) % 13
    if sum(square.values()) != REFERENCE_CHECKSUM:
        raise RuntimeError("reference work gave a wrong result")


def reference_seconds(rounds: int) -> float:
    """In-process reference time.  The collector is paused: a collection
    walks the whole heap, caches included, and would time the heap, not the
    host."""
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work(rounds)
        return time.perf_counter() - start
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Seeded inputs (the program only ever sees the generated points and files)


def nilpotent_matrix(n: int, rng: random.Random) -> list:
    """Integer matrix M = P N P^-1 with N the nilpotent Jordan block and
    P = L U unipotent, so P^-1 = U^-1 L^-1 is integral and M is nilpotent
    over Z, hence over Q and every F_p."""
    lower = [[1 if i == j else (rng.randrange(-2, 3) if i > j else 0)
              for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (rng.randrange(-2, 3) if i < j else 0)
              for j in range(n)] for i in range(n)]

    def mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]

    def unitriangular_inverse(u):  # upper unitriangular
        x = [[int(i == j) for j in range(n)] for i in range(n)]
        for j in range(n):
            for i in range(j - 1, -1, -1):
                x[i][j] = -sum(u[i][k] * x[k][j] for k in range(i + 1, j + 1))
        return x

    def transpose(a):
        return [list(row) for row in zip(*a)]

    p_mat = mul(lower, upper)
    p_inv = mul(unitriangular_inverse(upper),
                transpose(unitriangular_inverse(transpose(lower))))
    jordan = [[int(j == i + 1) for j in range(n)] for i in range(n)]
    return mul(mul(p_mat, jordan), p_inv)


def nilpotent_point(ring, n: int, rng: random.Random):
    """M over a field ring, x*M over the dual numbers, a*M over poly(a, b)."""
    from ramwedge.chart import ChartPoint
    field = ring.field
    m = nilpotent_matrix(n, rng)
    if ring.kind == "field":
        rows = [[field.of_int(c) for c in row] for row in m]
    elif ring.kind == "dual":
        rows = [[(field.zero, field.of_int(c)) for c in row] for row in m]
    else:
        (a,) = ring.var(0)  # exponent tuple of the first variable
        rows = [[{a: field.of_int(c)} if field.of_int(c) else {} for c in row]
                for row in m]
    return ChartPoint(n, ring, tuple(tuple(r) for r in rows), (n - 1, 1))


def warm_batch(seed: int, b: int) -> list:
    """Batch b of the stream, as (kind, point): per ring the sampled and
    dense nilpotent points of WARM_MIX, plus the counterexample point, in
    seeded order.  Three in five sampled points are sparse and take a few
    milliseconds; the dense ones, and all but the dual nilpotent points, take
    a tenth of a second or more, and the dual nilpotent points lie between,
    where the median falls."""
    from ramwedge.drivers import counterexample_point, sample_chart_points
    from ramwedge.fields import PrimeField
    from ramwedge.rings import DualNumbers, FieldRing, PolyRing
    field = PrimeField(P)
    rings = {"field": FieldRing(field), "dual": DualNumbers(field),
             "poly": PolyRing(field, ("a", "b"))}
    rng = random.Random(f"warm-check-n7:{seed}:{b}")
    batch = [("counterexample", counterexample_point(7, P))]
    for kind, sampled, nilpotent in WARM_MIX:
        ring = rings[kind]
        batch += [("sampled", pt) for pt in
                  sample_chart_points(7, ring, sampled, rng.randrange(2 ** 31))]
        batch += [("nilpotent", nilpotent_point(ring, 7, rng)) for _ in range(nilpotent)]
    rng.shuffle(batch)
    return batch


def small_rank_points(seed: int, cycle: int) -> list:
    """(name, kind, point) of one cycle, SMALL_RANK_POINTS per ring at n = 3
    and 5: dense nilpotent points over F_13 (field, poly) and Q, and sampled
    dense points over the dual numbers."""
    from ramwedge.drivers import sample_chart_points
    from ramwedge.fields import PrimeField, Rationals
    from ramwedge.rings import DualNumbers, FieldRing, PolyRing
    rng = random.Random(f"cold-small-rank:{seed}:{cycle}")
    f13 = PrimeField(P)
    out = []
    for n, count in SMALL_RANK_POINTS.items():
        for i in range(count):
            tag = f"c{cycle}-n{n}-{i}"
            out.append((f"{tag}-field", "nilpotent",
                        nilpotent_point(FieldRing(f13), n, rng)))
            dual = sample_chart_points(n, DualNumbers(f13), 5, rng.randrange(2 ** 31))
            out.append((f"{tag}-dual", "sampled", dual[2]))  # dense x1 and x3
            out.append((f"{tag}-poly", "nilpotent",
                        nilpotent_point(PolyRing(f13, ("a", "b")), n, rng)))
            out.append((f"{tag}-rationals", "nilpotent",
                        nilpotent_point(FieldRing(Rationals()), n, rng)))
    return out


# ---------------------------------------------------------------------------
# Output checks


def _counterexample_vector(where: str, got: dict) -> list:
    from ramwedge.drivers import REQUIRED_COUNTEREXAMPLE_VECTOR
    if {k: got.get(k) for k in REQUIRED_COUNTEREXAMPLE_VECTOR} != REQUIRED_COUNTEREXAMPLE_VECTOR:
        return [f"{where}: verdict vector {got}"]
    return []


class Checks:
    """Collects failures and the digests/invariants observed, compared with
    rwbench/expected.json where it has an entry."""

    def __init__(self, expected: dict, seed: int):
        self.expected = expected
        self.seed = str(seed)
        self.observed = {"certificates": {}, "bases": {}, "reports": {}}
        self.problems = []
        self._references = {}

    def _compare(self, section: str, key: str, value, scope=None) -> bool:
        table = self.expected.get(section, {})
        if scope is not None:
            table = table.get(scope, {}).get(self.seed, {})
        target = self.observed[section]
        if scope is not None:
            target = target.setdefault(scope, {}).setdefault(self.seed, {})
        if target.setdefault(key, value) != value:
            return False
        return key not in table or table[key] == value

    def certificate(self, label: str, path: Path) -> list:
        cert = json.loads(path.read_text())
        errors = []
        if cert.get("verdict") != "pass":
            errors.append(f"{path.name}: verdict {cert.get('verdict')!r}")
        if cert.get("result") == "counterexample":
            errors += _counterexample_vector(path.name, cert["evidence"]["verdicts"])
        if not self._compare("certificates", f"{label}:{path.name}",
                             canonical_digest(cert)):
            errors.append(f"{path.name}: digest differs from expected.json")
        return errors

    def basis(self, label: str, path: Path) -> list:
        dump = json.loads(path.read_text())
        inv = {"rank": len(dump["columns"]),
               "residueDimension": len(dump["residueBasis"]),
               "annihilatorSummary": dump["annihilatorSummary"]}
        if not self._compare("bases", f"{label}:{path.name}", inv):
            return [f"{path.name}: invariants {inv} differ from expected.json"]
        return []

    def spin_ranks(self, n: int) -> None:
        """The cached half-spin lattices have rank C(2n, n) / 2 for both signs."""
        import ramwedge.chart as chart
        for eps in (1, -1):
            ann = chart.spin_annihilators(n, ("Fp", P), eps, chart.DEFAULT_PRECISION)
            if ann.span_rank != comb(2 * n, n) // 2:
                self.problems.append(f"spin({eps:+d}) rank {ann.span_rank} at n = {n}")

    def report(self, scope: str, key: str, kind: str, report, violations) -> list:
        """A chart-point report (ConditionReport) and its implication check."""
        errors = [f"{key}: {v}" for v in violations]
        conditions = report.conditions
        if kind in ("nilpotent", "counterexample") and not conditions["kottwitz"].passed:
            errors.append(f"{key}: nilpotent point fails kottwitz")
        if kind == "counterexample":
            errors += _counterexample_vector(key, report.verdict_vector())
        if not self._compare("reports", key, canonical_digest(report.to_json()), scope):
            errors.append(f"{key}: report digest differs from expected.json")
        return errors

    def cold_job(self, job: dict, result: dict) -> list:
        """Every artifact a cold CLI job wrote, plus its exit code."""
        if result["code"] != 0:
            return [f"{job['label']}: exit code {result['code']}"]
        errors = []
        outdir = Path(result["outdir"])
        files = sorted(outdir.glob("*.json"))
        if not files:
            errors.append(f"{job['label']}: no artifact written")
        for path in files:
            try:
                if path.name.startswith("certificate-"):
                    errors += self.certificate(job["label"], path)
                elif path.name.startswith("basis-"):
                    errors += self.basis(job["label"], path)
                elif path.name == "report.json":
                    errors += self.point_report(job, path)
            except Exception as exc:  # malformed output fails the job, not the run
                errors.append(f"{job['label']}: {path.name}: {type(exc).__name__}: {exc}")
        return errors

    def point_report(self, job: dict, path: Path) -> list:
        from ramwedge.chart import chart_point_from_json
        from ramwedge.drivers import check_point_implications
        written = json.loads(path.read_text())["report"]
        if job["input"] not in self._references:  # each cycle reuses the files
            point = chart_point_from_json(json.loads(Path(job["input"]).read_text()))
            self._references[job["input"]] = check_point_implications(point)
        violations, reference = self._references[job["input"]]
        errors = []
        if written != reference.to_json():
            errors.append(f"{job['label']}: report differs from in-process full_report")
        return errors + self.report("cold-small-rank", job["point"], job["kind"],
                                    reference, violations)


# ---------------------------------------------------------------------------
# Cold jobs: one fresh interpreter per CLI call


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through the cleanup below


def run_child(argv: list, deadline: float, stdout_path: Path) -> dict:
    """Run one child to completion; wall time and its own peak RSS (wait4)."""
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise _Timeout()
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
        except BaseException:  # timeout or termination: leave no child behind
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"seconds": elapsed, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode}


def small_rank_jobs(seed: int, cycle: int, workdir: Path) -> list:
    """The jobs of one cycle, in seeded order.  Writes the point files.  A
    job's group names its kind without the cycle, for the per-kind times."""
    from ramwedge.chart import chart_point_to_json
    jobs = [{"label": " ".join(a), "group": " ".join(a), "argv": list(a)}
            for a in SMALL_RANK_JOBS]
    points_dir = workdir / "points"
    points_dir.mkdir(parents=True, exist_ok=True)
    for name, kind, point in small_rank_points(seed, cycle):
        path = points_dir / f"{name}.json"
        path.write_text(json.dumps(chart_point_to_json(point), sort_keys=True))
        n, ring = name.split("-")[1], name.split("-")[-1]
        jobs.append({"label": f"check-point {name}", "group": f"check-point {n}-{ring}",
                     "point": name, "kind": kind, "input": str(path),
                     "argv": ["check-point", "--input", str(path)]})
    random.Random(f"cold-small-rank:{seed}:order:{cycle}").shuffle(jobs)
    return jobs


def reference_child_seconds(workdir: Path, deadline: float) -> float:
    """Wall time of the reference work in a fresh interpreter (child.py)."""
    out = workdir / "reference.txt"
    result = run_child([sys.executable, str(BENCH_DIR / "child.py"), "reference"],
                       deadline, out)
    if result["code"] != 0:
        raise RuntimeError(f"reference child failed: {out.read_text()[-2000:]}")
    return result["seconds"]


def run_cold_cycle(jobs, workdir: Path, tag: str, deadline: float,
                   trace_dir: Path = None, references: list = None) -> list:
    """Run each job once, in order.  With trace_dir, jobs go through the
    harness child entry point, which traces and then calls cli.main.  With
    references, a reference child runs before every COLD_REFERENCE_EVERY-th
    job and its time is appended."""
    results = []
    for i, job in enumerate(jobs):
        if references is not None and i % COLD_REFERENCE_EVERY == 0:
            references.append(reference_child_seconds(workdir, deadline))
        outdir = workdir / f"{tag}-{i}"
        outdir.mkdir(parents=True)
        argv = job["argv"] + ["--out", str(outdir)]
        if trace_dir is None:
            cmd = [sys.executable, "-m", "ramwedge.cli"] + argv
        else:
            trace_file = trace_dir / f"{tag}-{i}.json"
            cmd = [sys.executable, str(BENCH_DIR / "child.py"), "cli",
                   str(trace_file)] + argv
        result = run_child(cmd, deadline, outdir / "stdout.txt")
        result["outdir"] = str(outdir)
        if references is not None:
            result["reference"] = len(references) - 1
        if trace_dir is not None:
            result["trace_file"] = str(trace_file)
        results.append(result)
    return results


def artifact_bytes(result: dict) -> int:
    return sum(p.stat().st_size for p in Path(result["outdir"]).glob("*.json"))


# ---------------------------------------------------------------------------
# Warm jobs: the library loop


def warm_setup(seed: int) -> list:
    """The first batch, plus the annihilator caches that full_report uses,
    warmed through the public path (run_counterexample calls full_report)."""
    from ramwedge.drivers import run_counterexample
    first = warm_batch(seed, 0)
    cert = run_counterexample(7, P)
    if cert.verdict != "pass":
        raise RuntimeError(f"warm-up counterexample certificate: {cert.verdict}")
    return first


def run_warm_batch(batch: list, tracer=None, tag: str = "", references: list = None) -> list:
    """Check each point in order.  With references, the reference work runs
    before every job and after the last, and its times are appended."""
    from ramwedge.drivers import check_point_implications
    results = []
    clock = time.perf_counter
    for i, (kind, point) in enumerate(batch):
        if references is not None:
            references.append(reference_seconds(WARM_REFERENCE_ROUNDS))
        if tracer is not None:
            tracer.job = f"{tag}-{i}"
        start = clock()
        try:
            violations, report = check_point_implications(point)
            error = None
        except Exception as exc:  # a crash is a failed job, not a crashed run
            violations, report, error = [], None, f"{type(exc).__name__}: {exc}"
        results.append({"seconds": clock() - start, "kind": kind,
                        "group": f"{point.ring.kind} {kind}", "report": report,
                        "violations": violations, "error": error})
        if references is not None:
            results[-1]["reference"] = len(references) - 1
    if references is not None:
        references.append(reference_seconds(WARM_REFERENCE_ROUNDS))
    return results


def check_warm(checks: Checks, b: int, results: list) -> int:
    """Check batch b and drop its reports, so the heap does not grow over a
    run (a full garbage collection walks all of it, inside some job)."""
    failed = 0
    for i, r in enumerate(results):
        if r["error"] is not None:
            errors = [f"batch {b} job {i}: {r['error']}"]
        else:
            errors = checks.report("warm-check-n7", f"b{b}-{i}", r["kind"],
                                   r["report"], r["violations"])
        r["report"] = None
        if errors:
            failed += 1
            checks.problems += errors
    return failed


# ---------------------------------------------------------------------------
# Measurements


def tail(samples: list):
    """(value, percentile): the highest percentile with at least ten jobs
    beyond it, or the maximum when there are ten jobs or fewer."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def steal_ticks():
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def machine_state() -> dict:
    return {"loadavg": list(os.getloadavg()), "steal_ticks": steal_ticks()}


def setup_probe_seconds(workload: str, seed: int, workdir: Path, deadline: float) -> float:
    """One set-up in a fresh interpreter (see child.py)."""
    out = workdir / f"setup-probe-{time.perf_counter_ns()}.txt"
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "setup", workload,
           str(seed), str(workdir)]
    result = run_child(cmd, deadline, out)
    if result["code"] != 0:
        raise RuntimeError(f"set-up probe failed: {out.read_text()[-2000:]}")
    return float(out.read_text().split()[-1])


def want_setup_probe(setups: list) -> bool:
    """At least SETUP_MIN_REPEATS set-ups; cheap ones are repeated more, for a
    steadier median."""
    return len(setups) < SETUP_MIN_REPEATS or (
        len(setups) < SETUP_MAX_REPEATS and sum(setups[1:]) < SETUP_PROBE_BUDGET_S)


def startup_seconds(workdir: Path, deadline: float) -> float:
    """Median wall time of a child that only imports ramwedge."""
    times = []
    for i in range(STARTUP_PROBES):
        result = run_child([sys.executable, "-c", "import ramwedge"], deadline,
                           workdir / f"startup-{i}.txt")
        if result["code"] != 0:
            raise RuntimeError("import-only child failed")
        times.append(result["seconds"])
    return statistics.median(times)


def setup_workload(workload: str, seed: int, workdir: Path):
    """Everything before the first timed job, after the harness starts."""
    import_ramwedge()
    if workload == "warm-check-n7":
        return warm_setup(seed)
    return small_rank_jobs(seed, 0, workdir)


# ---------------------------------------------------------------------------
# Runs


def timed_run(workload: str, seed: int, seconds: float, workdir: Path,
              expected: dict, harness_start: float, deadline: float) -> dict:
    """Whole cycles until their time adds up to ``seconds``.  Set-up probes
    run between cycles, so the set-up samples spread over the run."""
    warm = workload == "warm-check-n7"
    first = setup_workload(workload, seed, workdir)
    setups = [time.perf_counter() - harness_start]
    checks = Checks(expected, seed)
    if warm:
        from tracer import annihilator_cache_stats
        checks.spin_ranks(7)
        misses_before = annihilator_cache_stats()["misses"]
    # the run's own set-up is followed by a reference child, and each
    # repeat is taken between two
    setup_references = [[reference_child_seconds(workdir, deadline)]]
    cycles, cycle_s, references, failed = [], [], [], 0

    def setup_probe():
        """A set-up in a fresh interpreter, between two reference children:
        a long-lived harness and a fresh child need not run at one speed."""
        before = reference_child_seconds(workdir, deadline)
        setups.append(setup_probe_seconds(workload, seed, workdir, deadline))
        setup_references.append([before, reference_child_seconds(workdir, deadline)])

    while not cycle_s or sum(cycle_s) < seconds:
        c = len(cycles)
        if warm:
            batch = first if c == 0 else warm_batch(seed, c)
            cycles.append(run_warm_batch(batch, references=references))
            cycle_s.append(sum(r["seconds"] for r in cycles[-1]))
            failed += check_warm(checks, c, cycles[-1])
        else:
            jobs = first if c == 0 else small_rank_jobs(seed, c, workdir)
            results = run_cold_cycle(jobs, workdir, f"c{c}", deadline, references=references)
            cycles.append(list(zip(jobs, results)))
            cycle_s.append(sum(r["seconds"] for r in results))
        if want_setup_probe(setups):
            setup_probe()
    while want_setup_probe(setups):
        setup_probe()

    extra = {}
    if warm:
        misses = annihilator_cache_stats()["misses"] - misses_before
        if misses:
            checks.problems.append(f"{misses} annihilator-cache misses in the timed phase")
        extra["annihilator_cache_misses_timed"] = misses
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        jobs = [(r["group"], r["seconds"], r["reference"]) for results in cycles
                for r in results]
    else:
        runs = [pair for cycle in cycles for pair in cycle]
        for job, result in runs:
            errors = checks.cold_job(job, result)
            failed += bool(errors)
            checks.problems += errors
        rss_mb = max(result["rss_mb"] for _, result in runs)
        jobs = [(job["group"], result["seconds"], result["reference"])
                for job, result in runs]
    times = [t for _, t, _ in jobs]
    by_kind = {}
    for kind, t, _ in jobs:
        by_kind.setdefault(kind, []).append(t)
    attempted = len(times)

    reference_s = WARM_REFERENCE_S if warm else CHILD_REFERENCE_S

    def slowdown(k: int) -> float:  # around reference sample k
        width = REFERENCE_WINDOW[workload]
        lo = max(0, k - (width - 1) // 2)
        window = references[lo:lo + width]
        return statistics.median(window) / reference_s

    adjusted = [t / slowdown(k) for _, t, k in jobs]
    tail_value, tail_pct = tail(adjusted)
    metrics = {
        "setup_s": (statistics.median(t / (statistics.mean(refs) / CHILD_REFERENCE_S)
                                      for t, refs in zip(setups, setup_references)), "s"),
        "verdicts_per_s": (attempted / sum(adjusted), "1/s"),
        "verdict_s.p50": (statistics.median(adjusted), "s"),
        "verdict_s.tail": (tail_value, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    raw = {"setup_s": statistics.median(setups),
           "verdicts_per_s": attempted / sum(cycle_s),
           "verdict_s.p50": statistics.median(times),
           "verdict_s.tail": tail(times)[0]}
    info = dict(extra, cycles=len(cycles), jobs=attempted, tail_percentile=tail_pct,
                host_slowdown=statistics.median(references) / reference_s,
                raw=raw, reference_s=references, setup_samples_s=setups,
                setup_references=setup_references, cycle_s=cycle_s,
                median_s_by_kind={k: statistics.median(v) for k, v in by_kind.items()},
                jobs_by_kind={k: len(v) for k, v in by_kind.items()})
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "info": info, "checks": checks, "jobs": jobs}


def traced_run(workload: str, seed: int, workdir: Path, expected: dict,
               deadline: float) -> dict:
    """One traced cycle for the per-layer metrics, then the same cycle
    untraced for the overhead; both are checked and must agree."""
    from tracer import Tracer, annihilator_cache_stats, span_metrics
    import_ramwedge()
    checks_traced = Checks(expected, seed)
    checks_plain = Checks(expected, seed)
    if workload == "warm-check-n7":
        import ramwedge.drivers as drivers
        batch = warm_batch(seed, 0)
        tracer = Tracer()
        tracer.install()
        try:
            cert = drivers.run_counterexample(7, P)  # looked up after install
            start = time.perf_counter()
            traced = run_warm_batch(batch, tracer, "b0")
            traced_s = time.perf_counter() - start
        finally:
            tracer.uninstall()
        cache = annihilator_cache_stats()
        start = time.perf_counter()
        plain = run_warm_batch(batch)
        plain_s = time.perf_counter() - start
        if annihilator_cache_stats()["misses"] != cache["misses"]:
            checks_plain.problems.append("annihilator-cache misses after set-up")
        checks_plain.spin_ranks(7)
        if cert.verdict != "pass":
            checks_traced.problems.append("warm-up counterexample did not pass")
        failed = check_warm(checks_traced, 0, traced) + check_warm(checks_plain, 0, plain)
        attempted = 2 * len(batch)
        spans, counters, bytes_written = tracer.spans, tracer.counters, 0
    else:
        jobs = small_rank_jobs(seed, 0, workdir)
        trace_dir = workdir / "traces"
        trace_dir.mkdir()
        start = time.perf_counter()
        traced = run_cold_cycle(jobs, workdir, "traced", deadline, trace_dir)
        traced_s = time.perf_counter() - start
        start = time.perf_counter()
        plain = run_cold_cycle(jobs, workdir, "plain", deadline)
        plain_s = time.perf_counter() - start
        failed = 0
        for job, t_res, p_res in zip(jobs, traced, plain):
            for checks, res in ((checks_traced, t_res), (checks_plain, p_res)):
                errors = checks.cold_job(job, res)
                failed += bool(errors)
                checks.problems += errors
        attempted = 2 * len(jobs)
        spans, counters, cache = [], {}, {"hits": 0, "misses": 0}
        for res in traced:
            dump = json.loads(Path(res["trace_file"]).read_text())
            offset = len(spans)
            for s in dump["spans"]:
                if s[3] >= 0:
                    s[3] += offset
                spans.append(s)
            for k, v in dump["counters"].items():
                counters[k] = counters.get(k, 0) + v
            for k in cache:
                cache[k] += dump["cache"][k]
        bytes_written = sum(artifact_bytes(res) for res in traced)
    if checks_traced.observed != checks_plain.observed:
        checks_plain.problems.append("traced and untraced outputs differ")
    layer = span_metrics(spans, counters, cache)
    n_jobs = attempted // 2
    layer.update({
        "cli.bytes_written": bytes_written,
        "process.startup_s": startup_seconds(workdir, deadline),
        "trace.verdicts_per_s": n_jobs / traced_s,
        "trace.untraced_verdicts_per_s": n_jobs / plain_s,
        "trace.overhead_ratio": 1.0 - plain_s / traced_s,
    })
    checks_plain.problems += checks_traced.problems
    return {"attempted": attempted, "failed": failed, "layer": layer,
            "spans": spans, "checks": checks_plain}


def load_json(path: Path) -> dict:
    return json.loads(path.read_text()) if path.is_file() else {}


def record() -> int:
    """Rewrite expected.json from the outputs of this checkout, at both
    recorded seeds: RECORDED_CYCLES cold-small-rank cycles and as many warm
    batches."""
    import_ramwedge()
    observed = {"default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
                "certificates": {}, "bases": {}, "reports": {}}
    problems = []
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        checks = Checks({}, seed)
        workdir = WORK / f"record-s{seed}-{os.getpid()}"
        try:
            for c in range(RECORDED_CYCLES):
                jobs = small_rank_jobs(seed, c, workdir)
                results = run_cold_cycle(jobs, workdir, f"c{c}",
                                         time.perf_counter() + RUN_DEADLINE_S)
                for job, result in zip(jobs, results):
                    checks.problems += checks.cold_job(job, result)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        first = warm_setup(seed)
        for b in range(RECORDED_CYCLES):
            check_warm(checks, b, run_warm_batch(first if b == 0 else warm_batch(seed, b)))
        problems += checks.problems
        for section, table in checks.observed.items():
            if section == "reports":
                for scope, by_seed in table.items():
                    observed[section].setdefault(scope, {}).update(by_seed)
            else:
                observed[section].update(table)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    EXPECTED_PATH.write_text(json.dumps(observed, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    harness_start = time.perf_counter()
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite expected.json from this checkout")
    args = parser.parse_args(argv)
    if not (SRC / "ramwedge" / "__init__.py").is_file():
        print(f"error: ramwedge sources not found under {SRC}", file=sys.stderr)
        return 2
    benchmark = load_json(ROOT / "BENCHMARK.json")
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    expected = load_json(EXPECTED_PATH)
    seed = DEFAULT_SEED if args.seed is None else args.seed
    seconds = args.seconds or benchmark["run_seconds"]
    deadline = harness_start + RUN_DEADLINE_S
    machine_start = machine_state()
    workdir = WORK / f"{args.workload}-s{seed}-t{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            run = traced_run(args.workload, seed, workdir, expected, deadline)
            metrics = {m["name"]: {"value": run["layer"][m["name"]], "unit": m["unit"]}
                       for m in benchmark["per_layer"]}
            info = {"layer_all": run["layer"]}
        else:
            run = timed_run(args.workload, seed, seconds, workdir, expected,
                            harness_start, deadline)
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in run["metrics"].items()}
            info = run["info"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run's files are still there
            pass
    checks = run["checks"]
    machine_end = machine_state()
    steal = (None if None in (machine_start["steal_ticks"], machine_end["steal_ticks"])
             else machine_end["steal_ticks"] - machine_start["steal_ticks"])
    info.update(python=sys.version.split()[0], nproc=os.cpu_count(),
                loadavg_start=machine_start["loadavg"], loadavg_end=machine_end["loadavg"],
                steal_ticks=steal, workload=args.workload, seed=seed,
                trace=args.trace, problems=checks.problems[:50])
    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"{args.workload}-s{seed}-t{args.trace}.json"
    record_obj = {"info": info, "metrics": metrics}
    if args.trace:
        record_obj["spans"] = run["spans"]
    else:
        record_obj["jobs"] = run["jobs"]
    record_path.write_text(json.dumps(record_obj))
    for problem in checks.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"info": {k: v for k, v in info.items() if k != "layer_all"}}))
    print(json.dumps({"correct": not checks.problems, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
