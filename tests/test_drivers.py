"""Certificate drivers: verdicts, evidence, and precondition handling."""

import json

import pytest

from ramwedge import drivers
from ramwedge.chart import DEFAULT_PRECISION, refined_annihilators
from ramwedge.drivers import (bundle_ranks, canonical_pairs, classify_pair_case,
                              counterexample_point, expected_pair_worst_term,
                              run_counterexample, run_driver,
                              scaled_generator_exponent, scaled_pair_generators,
                              verify_operator_identities, verify_refined_basis,
                              verify_sign_lemma, verify_spin_structure,
                              verify_worst_term_tables, verify_x1_zero)
from ramwedge.errors import RankError
from ramwedge.exterior import wedge_scale
from ramwedge.fields import PrimeField, Rationals
from ramwedge.lattices import pi_adic_column_echelon
from ramwedge.scalars import LaurentOps, PiLaurent

from oracles import lattice_contains, verify_implications

F = PrimeField(13)


def test_sign_lemma_certificate():
    cert = verify_sign_lemma(6)
    assert cert.passed
    assert cert.evidence["sets_checked"] == {
        "2": 6, "3": 20, "4": 70, "5": 252, "6": 924}
    with pytest.raises(ValueError):
        verify_sign_lemma(7)


def test_worst_term_tables_small_ranks():
    cert = verify_worst_term_tables(3)
    assert cert.passed
    assert cert.evidence["type_sets"] == 9
    assert cert.evidence["pairs"] == 6
    cert5 = verify_worst_term_tables(5)
    assert cert5.passed
    assert sum(cert5.evidence["case_histogram"].values()) == 15
    # every case fires somewhere at rank 5
    assert set(cert5.evidence["case_histogram"]) == {str(k) for k in range(1, 10)}
    with pytest.raises(ValueError):
        verify_worst_term_tables(4)


def test_pair_classification_covers_exactly_once():
    for n in (3, 5, 7, 9):
        for i, j in canonical_pairs(n):
            case = classify_pair_case(n, i, j)
            assert 1 <= case <= 9
        with pytest.raises(ValueError):
            classify_pair_case(n, n, n)


def test_cancellation_case_loses_one_valuation_step():
    # the same-index pair cancels its deepest terms: degree -m, not -(m+1)
    for n in (5, 7):
        m = n // 2
        i = 1
        assert classify_pair_case(n, i, i) == 4
        val, _ = expected_pair_worst_term(F, n, i, i)
        assert val == -m


def test_scaled_exponents_match_case_table():
    n = 5
    m = n // 2
    want = {1: m + 1, 2: m - 1, 3: m + 1, 4: m, 5: m - 1, 6: m, 7: m,
            8: m + 1, 9: m + 1}
    for i, j in canonical_pairs(n):
        assert scaled_generator_exponent(n, i, j) == want[classify_pair_case(n, i, j)]


def test_refined_basis_driver():
    cert = verify_refined_basis(3)
    assert cert.passed
    assert cert.evidence["residue_dimension"] == cert.evidence["listed_elements"] == 6
    with pytest.raises(ValueError):
        verify_refined_basis(9)


@pytest.mark.parametrize("n", [3, 5, 7])
@pytest.mark.parametrize("field", [PrimeField(3), PrimeField(13), Rationals()],
                         ids=["F3", "F13", "Q"])
def test_refined_basis_lattice_equality_is_the_containment_oracles(monkeypatch, field, n):
    # the driver decides each containment by the rank and pivot-valuation
    # sum of echelons; the oracle eliminates each column against the other
    # basis.  The scaled generators as they are and perturbed: one times
    # pi^k, one dropped, one divided by pi added
    ring = LaurentOps(field)
    scaled = scaled_pair_generators(field, n)
    i = len(scaled) // 2

    def times(k):
        return wedge_scale(scaled[i], PiLaurent.monomial(field, k), ring)

    cases = ([scaled] + [scaled[:i] + [times(k)] + scaled[i + 1:] for k in (-1, 1, 2)]
             + [scaled[:i] + scaled[i + 1:], scaled + [times(-1)]])
    refined = refined_annihilators(n, field.key(), n - 1, 1, DEFAULT_PRECISION).whole()[0]
    computed = refined.saturated()  # the lattice; the echelon columns span more
    monkeypatch.setattr(drivers, "PrimeField", lambda p: field)
    seen = set()
    for gens in cases:
        monkeypatch.setattr(drivers, "scaled_pair_generators", lambda f, n: gens)
        evidence = verify_refined_basis(n).evidence
        echelon = pi_adic_column_echelon(gens, DEFAULT_PRECISION)
        want = (all(lattice_contains(echelon.pivots, echelon.columns, col, DEFAULT_PRECISION)
                    for col in computed),
                all(lattice_contains(refined.pivots, computed, w, DEFAULT_PRECISION)
                    for w in gens))
        got = (evidence["computed_in_scaled"], evidence["scaled_in_computed"])
        assert got == want
        seen.add(got)
    assert seen == {(True, True), (True, False), (False, True)}


@pytest.mark.parametrize("change,want", [
    ("exponent+1", (False, True, True)),
    ("exponent-1", (True, False, True)),
    ("dropped", (True, True, False)),
])
def test_refined_basis_driver_fails_on_a_wrong_description(monkeypatch, change, want):
    # (computed_in_scaled, scaled_in_computed, residue_spans_equal)
    if change == "dropped":
        listed = drivers.corollary_residue_vectors
        monkeypatch.setattr(drivers, "corollary_residue_vectors",
                            lambda field, n: listed(field, n)[1:])
    else:
        shift = 1 if change == "exponent+1" else -1
        monkeypatch.setattr(drivers, "scaled_generator_exponent",
                            lambda n, i, j: scaled_generator_exponent(n, i, j)
                            + shift * ((i, j) == (1, 1)))
    cert = verify_refined_basis(5)
    assert cert.verdict == "fail"
    assert (cert.evidence["computed_in_scaled"], cert.evidence["scaled_in_computed"],
            cert.evidence["residue_spans_equal"]) == want


def test_spin_structure_driver():
    cert = verify_spin_structure(3)
    assert cert.passed
    for eps in ("+1", "-1"):
        block = cert.evidence[f"eps={eps}"]
        assert block["detector_coordinate_hits"] == 0
        assert all(block["listed_memberships"].values())


def test_counterexample_driver():
    cert = run_counterexample(5)
    assert cert.passed
    assert cert.evidence["verdicts"]["refined"] == "fail"
    assert cert.evidence["verdicts"]["spin(+1)"] == "pass"
    with pytest.raises(ValueError):
        run_counterexample(3)
    with pytest.raises(ValueError):
        run_counterexample(4)
    with pytest.raises(ValueError):
        counterexample_point(4)


def test_counterexample_verdicts_independent_of_prime():
    assert run_counterexample(5, p=5).passed
    assert run_counterexample(5, p=11).passed


def test_x1_zero_driver_small():
    cert = verify_x1_zero(3)
    assert cert.passed
    assert cert.evidence["variables"] == 4
    assert cert.evidence["combined_rank"] == 4
    # neither half of the system suffices on its own
    assert cert.evidence["rank_membership_alone"] < 4
    assert cert.evidence["rank_symmetry_alone"] < 4
    with pytest.raises(ValueError):
        verify_x1_zero(11)


# Evidence recorded with the dense eliminator the driver used before it
# shared lattices.residue_rank (n = 3, 5), and with tuple-keyed polynomials
# (n = 7): variables, combined rank, linear equations, nonlinear equations,
# rank of membership alone, rank of symmetry alone.  CI pins n = 9,
# (64, 64, 28, 12805, 28, 36), on the command line.
@pytest.mark.parametrize("n,evidence", [(3, (4, 4, 1, 1, 1, 3)),
                                        (5, (16, 16, 6, 53, 6, 10)),
                                        (7, (36, 36, 15, 887, 15, 21))])
def test_x1_zero_evidence_pinned(n, evidence):
    cert = verify_x1_zero(n)
    assert cert.passed
    keys = ("variables", "combined_rank", "linear_equations",
            "nonlinear_equations", "rank_membership_alone", "rank_symmetry_alone")
    assert tuple(cert.evidence[k] for k in keys) == evidence


def test_operator_identities_driver():
    cert = verify_operator_identities(3, 2, 1)
    assert cert.passed
    assert cert.evidence["eigenvalue_checks"] == 27
    assert cert.evidence["annihilation_checks"] > 0
    with pytest.raises(ValueError):
        verify_operator_identities(3, 1, 1)


@pytest.mark.parametrize("n,evidence", [(5, (75, 60)), (7, (147, 119))])
def test_operator_identities_evidence_pinned(n, evidence):
    cert = verify_operator_identities(n, n - 1, 1)
    assert cert.passed and cert.evidence["failures"] == []
    assert (cert.evidence["eigenvalue_checks"],
            cert.evidence["annihilation_checks"]) == evidence


def test_implications_driver_seeded():
    cert = verify_implications(3, samples=40, seed=7)
    assert cert.passed
    assert cert.evidence["points_checked"] == 120
    assert cert.evidence["refined_passes"] > 0
    # determinism of the seeded sample
    again = verify_implications(3, samples=40, seed=7)
    assert cert.to_json() == again.to_json()


def test_run_driver_registry():
    certs = run_driver("sign-lemma", n=3)
    assert len(certs) == 1 and certs[0].result == "sign-lemma"
    bundle = run_driver("all", n=3)
    assert [c.result for c in bundle] == [
        "sign-lemma", "worst-terms", "refined-basis", "spin-structure",
        "counterexample", "x1-zero", "operator-identities"]
    assert all(c.passed for c in bundle)
    with pytest.raises(ValueError):
        run_driver("nonsense")


def test_bundle_ranks_cap_each_driver_at_its_range():
    ids = ["sign-lemma", "worst-terms", "refined-basis", "spin-structure",
           "counterexample", "x1-zero", "operator-identities"]
    assert bundle_ranks(3) == list(zip(ids, [3, 3, 3, 3, 5, 3, 3]))
    assert bundle_ranks(5) == list(zip(ids, [5, 5, 5, 5, 5, 5, 5]))
    assert bundle_ranks(9) == list(zip(ids, [6, 9, 7, 7, 9, 9, 9]))
    assert bundle_ranks(13) == list(zip(ids, [6, 9, 7, 7, 13, 9, 11]))


@pytest.mark.parametrize("result_id,n", [
    ("sign-lemma", 0), ("sign-lemma", 7), ("worst-terms", 100),
    ("worst-terms", 4), ("refined-basis", 9), ("spin-structure", -3),
    ("counterexample", 3), ("x1-zero", 11), ("operator-identities", 4),
    ("operator-identities", 13), ("counterexample", 22), ("counterexample", 23),
    ("all", 4), ("all", 1), ("all", 23)])
def test_run_driver_rejects_ranks_out_of_range(result_id, n):
    with pytest.raises(RankError):
        run_driver(result_id, n=n)


def test_certificates_serialize():
    cert = verify_sign_lemma(3)
    blob = json.dumps(cert.to_json(), sort_keys=True)
    parsed = json.loads(blob)
    assert parsed["result"] == "sign-lemma"
    assert parsed["verdict"] == "pass"
