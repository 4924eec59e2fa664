"""Acceptance criteria, one test per criterion, each printing a pass/fail
line with its timing.  Run with `pytest -s tests/test_acceptance.py` to see
the lines as they complete."""

import time

from ramwedge.drivers import (run_counterexample, verify_operator_identities,
                              verify_refined_basis, verify_sign_lemma,
                              verify_spin_structure, verify_worst_term_tables,
                              verify_x1_zero)

from oracles import verify_implications


def _report(num: int, label: str, ok: bool, elapsed: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {num} ({label}): {status} in {elapsed:.2f}s{suffix}")
    assert ok, f"criterion {num} ({label}) failed{suffix}"


def test_criterion_1_sign_lemma():
    t0 = time.monotonic()
    cert = verify_sign_lemma(6)
    elapsed = time.monotonic() - t0
    counts = cert.evidence["sets_checked"]
    ok = cert.passed and counts["6"] == 924 and elapsed < 1.0
    _report(1, "sign lemma n=2..6", ok, elapsed, f"sets {sum(counts.values())}")


def test_criterion_2_worst_term_tables():
    results = {}
    elapsed_by_n = {}
    for n in (3, 5, 7):
        t0 = time.monotonic()
        results[n] = verify_worst_term_tables(n)
        elapsed_by_n[n] = time.monotonic() - t0
    ok = all(c.passed for c in results.values()) and elapsed_by_n[7] < 10.0
    _report(2, "worst-term tables n=3,5,7", ok, sum(elapsed_by_n.values()),
            f"n=7 in {elapsed_by_n[7]:.2f}s")


def test_criterion_3_refined_basis():
    t0 = time.monotonic()
    certs = [verify_refined_basis(n) for n in (3, 5, 7)]
    elapsed = time.monotonic() - t0
    ok = all(c.passed for c in certs) and elapsed < 30.0
    dims = [c.evidence["residue_dimension"] for c in certs]
    _report(3, "refined lattice basis n=3,5,7", ok, elapsed,
            f"residue dims {dims}")


def test_criterion_4_spin_structure():
    t0 = time.monotonic()
    certs = [verify_spin_structure(n) for n in (3, 5, 7)]
    elapsed = time.monotonic() - t0
    ok = all(c.passed for c in certs)
    _report(4, "spin residue structure n=3,5,7", ok, elapsed)


def test_criterion_5_counterexample():
    t0 = time.monotonic()
    certs = [run_counterexample(n) for n in (5, 7)]
    elapsed = time.monotonic() - t0
    ok = all(c.passed for c in certs) and elapsed < 10.0
    _report(5, "separating point n=5,7", ok, elapsed,
            "verdict vector exact")


def test_criterion_6_x1_zero_ranks():
    t0 = time.monotonic()
    cert3 = verify_x1_zero(3)
    cert5 = verify_x1_zero(5)
    elapsed = time.monotonic() - t0
    ok = (cert3.passed and cert3.evidence["combined_rank"] == 4
          and cert5.passed and cert5.evidence["combined_rank"] == 16
          and elapsed < 120.0)
    _report(6, "symbolic vanishing certificate", ok, elapsed,
            f"ranks {cert3.evidence['combined_rank']}, "
            f"{cert5.evidence['combined_rank']}")


def test_criterion_7_implication_lattice():
    t0 = time.monotonic()
    certs = [verify_implications(n, samples=200, seed=20260808) for n in (3, 5)]
    elapsed = time.monotonic() - t0
    ok = all(c.passed for c in certs)
    checked = sum(c.evidence["points_checked"] for c in certs)
    positives = sum(c.evidence["refined_passes"] for c in certs)
    _report(7, "implication lattice on sampled points", ok, elapsed,
            f"{checked} points, {positives} refined-positive")


def test_criterion_8_operator_identities():
    t0 = time.monotonic()
    cert = verify_operator_identities(3, 2, 1)
    elapsed = time.monotonic() - t0
    ok = cert.passed
    _report(8, "wedge-power operator identities", ok, elapsed,
            f"{cert.evidence['eigenvalue_checks']} eigenvalue, "
            f"{cert.evidence['annihilation_checks']} annihilation checks")
