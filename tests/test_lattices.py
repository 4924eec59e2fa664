"""Spanning sets, pi-adic column reduction, residue bases, annihilators."""

import hashlib
import json
import random
from functools import lru_cache
from itertools import combinations

import pytest

from ramwedge.chart import (DEFAULT_PRECISION, kl_annihilators, refined_annihilators,
                            spin_annihilators, wedge_vector)
from ramwedge.drivers import _random_element, sample_chart_points
from ramwedge.errors import PrecisionExhaustedError
from ramwedge.exterior import (WedgeVector, _add_multiple, basis_wedge,
                               frame_in_e, wedge_columns_masks, wedge_scale)
from ramwedge.fields import PrimeField, Rationals
from ramwedge.indexsets import (IndexSet, bounded_type_masks, index_masks, lex_key,
                                perp_mask, shuffle_sign, sigma_sign_bruteforce,
                                type_masks)
from ramwedge.lattices import (GUARD_BAND, BlockLattice, annihilators,
                               functional_evaluations, gauss_jordan,
                               pi_adic_column_echelon, reduce_mod_pi,
                               residue_rank, signature_eps)
from ramwedge.records import replace
from ramwedge.rings import DualNumbers, FieldRing, PolyRing
from ramwedge.scalars import LaurentOps, PiLaurent

from oracles import (det, first_nonzero_evaluation, lattice_contains,
                     residue_spans_equal, saturated_residues, series_echelon,
                     spanning_set)

F = PrimeField(13)
PRECISION = 24


def L(coeffs):
    return PiLaurent.make(F, {e: F.of_int(c) for e, c in coeffs.items()})


def e_vec(n, sets_coeffs):
    return WedgeVector(n, {IndexSet.of(n, m).mask: c for m, c in sets_coeffs})


def test_refined_generator_count_matches_pair_count():
    for n in (3, 5):
        gens = spanning_set("refined", n, F, r=n - 1, s=1)
        pairs = 0
        for s in type_masks(n, n - 1, 1):
            i_s = min(t for t in IndexSet(n, s).members if t > n)
            i_p = min(t for t in IndexSet(n, perp_mask(n, s)).members if t > n)
            if i_s <= i_p:
                pairs += 1
        assert len(gens) == pairs == n * (n + 1) // 2


def test_spin_self_perp_generators_collapse_to_doubles():
    n = 3
    ring = LaurentOps(F)
    ffr = frame_in_e("f_split", n, F)
    for eps in (1, -1):
        gens = spanning_set("spin", n, F, eps=eps)
        for s in index_masks(n):
            if perp_mask(n, s) != s:
                continue
            f_s = basis_wedge(ffr, s)
            double = wedge_scale(f_s, L({0: 2}), ring)
            present = double in gens
            # the combination survives exactly when eps matches the shuffle sign
            assert present == (shuffle_sign(n, s) == eps)


def test_spin_generator_counts():
    # half of the top-degree coordinates for each sign
    for n in (3, 5):
        import math
        for eps in (1, -1):
            gens = spanning_set("spin", n, F, eps=eps)
            assert len(gens) == math.comb(2 * n, n) // 2


def test_kl_top_degree_is_signature_summand():
    n, r, s = 3, 2, 1
    gens = spanning_set("kl", n, F, l=n, r=r, s=s)
    assert len(gens) == len(type_masks(n, r, s))


def test_monomial_saturation():
    n = 3
    a = IndexSet.of(n, (1, 2, 3)).mask
    basis = pi_adic_column_echelon([e_vec(n, [((1, 2, 3), L({-3: 1}))])], PRECISION)
    assert len(basis) == 1
    assert basis.pivots == ((a, -3),)
    assert basis.saturated()[0].terms == {a: PiLaurent.one(F)}


def test_single_column_scaling():
    n = 3
    gen = e_vec(n, [((1, 2, 3), L({0: 1})), ((1, 2, 4), L({-1: 1}))])
    basis = pi_adic_column_echelon([gen], PRECISION)
    assert len(basis) == 1
    col = basis.saturated()[0].terms
    assert col[IndexSet.of(n, (1, 2, 3)).mask] == L({1: 1})
    assert col[IndexSet.of(n, (1, 2, 4)).mask] == L({0: 1})


def test_redundant_generators_detected():
    n = 3
    gen = e_vec(n, [((1, 2, 3), L({0: 1}))])
    dup = e_vec(n, [((1, 2, 3), L({2: 5}))])
    basis = pi_adic_column_echelon([gen, dup], PRECISION)
    assert len(basis) == 1


def test_precision_guard_trips():
    n = 3
    gen = e_vec(n, [((1, 2, 3), L({23: 1}))])
    with pytest.raises(PrecisionExhaustedError):
        pi_adic_column_echelon([gen], PRECISION)


def non_monomial_generators(field, shift=0):
    """Three generators at n = 2, degree 2, whose echelon meets only
    non-monomial pivots, each pi^shift times a unit other than a constant
    (no family meets one)."""
    def P(coeffs):
        return PiLaurent.make(field, {e + shift: field.of_int(c) for e, c in coeffs.items()})
    rows = [({0: 2, 1: 1}, {0: 1, 3: 5}, {1: 1}),
            ({0: 1, 2: 3}, {1: 1}, {0: 4}),
            ({1: 1, 2: 1}, {0: 7}, {2: 1})]
    return [WedgeVector(2, {m: P(c) for m, c in zip(index_masks(2, 2), row)})
            for row in rows]


@pytest.mark.parametrize("field", [F, Rationals()], ids=["F13", "Q"])
def test_non_monomial_pivots_take_the_fraction_free_step(field):
    # the echelon scales by each pivot's unit where the truncating
    # reference divides by its series inverse
    gens = non_monomial_generators(field)
    echelon = pi_adic_column_echelon(gens, PRECISION)
    reference = series_echelon(gens, PRECISION)
    assert echelon.pivots == reference.pivots
    assert all(val == 0 and len(col.terms[t].coeffs) > 1
               for (t, val), col in zip(echelon.pivots, echelon.columns))
    # one module: the echelon holds every generator, and the reference (a
    # basis of the generators' module) holds every echelon column
    assert all(lattice_contains(echelon.pivots, echelon.columns, g, PRECISION)
               for g in gens)
    assert all(lattice_contains(reference.pivots, reference.columns, col, PRECISION)
               for col in echelon.columns)
    # one residue span; the vectors differ by unit scalars
    ours = list(reduce_mod_pi(echelon).vectors)
    theirs = list(reduce_mod_pi(reference).vectors)
    assert ours != theirs
    assert residue_rank(field, ours) == residue_rank(field, ours + theirs) == 3
    # the reference fills its last column up to the bound; exact terms stop at pi^8
    def top(basis):
        return max(e for col in basis.columns for c in col.terms.values() for e in c.coeffs)
    assert (top(echelon), top(reference)) == (8, PRECISION - 1)


# The smallest headroom DEFAULT_PRECISION - GUARD_BAND - (largest pivot
# valuation) allowed of a checked lattice at the default precision.
HEADROOM_MARGIN = 20


@pytest.mark.parametrize("field", [F, Rationals()], ids=["F13", "Q"])
@pytest.mark.parametrize("n", [3, 5, 7])
def test_checked_lattices_keep_their_headroom(n, field):
    # every spin pivot has valuation -1; refined and kn pivots lie in -2..0
    # at n = 3 and in -4..-2 at n = 7
    key = field.key()
    lattices = {"spin(+1)": spin_annihilators(n, key, 1, DEFAULT_PRECISION),
                "spin(-1)": spin_annihilators(n, key, -1, DEFAULT_PRECISION),
                "refined": refined_annihilators(n, key, n - 1, 1, DEFAULT_PRECISION),
                "kn": kl_annihilators(n, key, n, n - 1, 1, DEFAULT_PRECISION)}
    for name, lattice in lattices.items():
        top = max(val for _, val in lattice.whole()[0].pivots)
        assert top <= 0, name
        assert DEFAULT_PRECISION - GUARD_BAND - top >= HEADROOM_MARGIN, name


def test_echelon_rejects_bad_generators():
    n = 3
    deg3 = e_vec(n, [((1, 2, 3), L({0: 1}))])
    deg2 = e_vec(n, [((1, 2), L({0: 1}))])
    with pytest.raises(ValueError, match="no generators"):
        pi_adic_column_echelon([], PRECISION)
    with pytest.raises(ValueError, match="all generators are zero"):
        pi_adic_column_echelon([WedgeVector(n, {})], PRECISION)
    with pytest.raises(ValueError, match="mixed wedge degree"):
        pi_adic_column_echelon([deg3, WedgeVector(n, {}), deg2], PRECISION)


def test_intersection_saturates_the_echelon():
    # the lattice is the echelon's columns shifted by their pivot
    # valuations, each to least valuation 0, reached at its pivot
    gens = spanning_set("refined", 3, F, r=2, s=1)
    echelon = pi_adic_column_echelon(gens, PRECISION)
    saturated = echelon.saturated()
    assert len(saturated) == len(echelon) == 6
    for (t, val), col, scaled in zip(echelon.pivots, echelon.columns, saturated):
        assert scaled.terms == {t2: c.shift(-val) for t2, c in col.terms.items()}
        assert min(c.ord() for c in scaled.terms.values()) == scaled.terms[t].ord() == 0


def lattices_equal(a, b):
    """Mutual membership of the saturated columns of two echelons."""
    sat_a, sat_b = a.saturated(), b.saturated()
    return (all(lattice_contains(b.pivots, sat_b, col, PRECISION) for col in sat_a)
            and all(lattice_contains(a.pivots, sat_a, col, PRECISION) for col in sat_b))


def test_intersection_idempotence():
    n = 3
    gens = spanning_set("refined", n, F, r=2, s=1)
    basis = pi_adic_column_echelon(gens, PRECISION)
    again = pi_adic_column_echelon(list(basis.saturated()), PRECISION)
    assert lattices_equal(basis, again)
    assert all(val == 0 for _, val in again.pivots)


def test_lattice_contains_rejects_fractional_coordinates():
    n = 3
    gens = spanning_set("refined", n, F, r=2, s=1)
    basis = pi_adic_column_echelon(gens, PRECISION)
    saturated = basis.saturated()
    inside = saturated[0]
    ring = LaurentOps(F)
    outside = wedge_scale(inside, L({-1: 1}), ring)
    assert lattice_contains(basis.pivots, saturated, inside, PRECISION)
    assert not lattice_contains(basis.pivots, saturated, outside, PRECISION)
    # the echelon columns span the generators' module, which is not the
    # lattice: a column of negative pivot valuation lies outside it
    assert min(val for _, val in basis.pivots) < 0
    assert [lattice_contains(basis.pivots, saturated, col, PRECISION)
            for col in basis.columns] == [val >= 0 for _, val in basis.pivots]


# ---------------------------------------------------------------------------
# Residues read at the pivot valuation against the saturating pipeline


def assert_residues_at_the_pivot_valuation(echelon):
    """reduce_mod_pi of the echelon is the saturating pipeline's residue
    basis, pivots, vectors and key order; each saturated column has least
    valuation 0, reached at its pivot."""
    got, want = reduce_mod_pi(echelon), saturated_residues(echelon)
    assert got.pivots == want.pivots
    assert [list(vec.items()) for vec in got.vectors] == \
        [list(vec.items()) for vec in want.vectors]
    for (t, _), col in zip(echelon.pivots, echelon.saturated()):
        assert min(c.ord() for c in col.terms.values()) == col.terms[t].ord() == 0


@pytest.mark.parametrize("field", [F, Rationals()], ids=["F13", "Q"])
@pytest.mark.parametrize("shift", [0, -2, 3])
def test_reduce_mod_pi_reads_non_monomial_pivots_at_their_valuation(field, shift):
    echelon = pi_adic_column_echelon(non_monomial_generators(field, shift), PRECISION)
    assert [val for _, val in echelon.pivots] == [shift] * 3
    assert_residues_at_the_pivot_valuation(echelon)


def test_reduce_mod_pi_refuses_a_pivot_below_its_column_minimum():
    n = 3
    a, b = IndexSet.of(n, (1, 2, 3)).mask, IndexSet.of(n, (1, 2, 4)).mask
    echelon = pi_adic_column_echelon([e_vec(n, [((1, 2, 3), L({0: 1}))])], PRECISION)
    bad = replace(echelon, columns=(WedgeVector(n, {a: L({0: 1}), b: L({-1: 1})}),))
    with pytest.raises(AssertionError, match="pivot does not attain the column minimum"):
        reduce_mod_pi(bad)


def test_residue_reduction_drops_pi():
    n = 3
    gens = spanning_set("refined", n, F, r=2, s=1)
    rb = reduce_mod_pi(pi_adic_column_echelon(gens, PRECISION))
    assert len(rb) == 6
    for vec, pivot in zip(rb.vectors, rb.pivots):
        assert pivot in vec
        assert all(not F.is_zero(c) for c in vec.values())


def test_annihilator_toy_examples():
    # single coordinate in a 2-coordinate space: the complementary
    # coordinate functional is the annihilator
    from ramwedge.lattices import ResidueBasis
    a = IndexSet.of(1, (1,)).mask
    b = IndexSet.of(1, (2,)).mask
    rb = ResidueBasis(1, 1, F, ({a: F.one},), (a,))
    ann = annihilators(rb)
    assert len(ann.functionals) == 0
    assert ann.coordinate_dim == 2
    assert ann.functional_count == 1
    ring = FieldRing(F)
    assert first_nonzero_evaluation(ann, {a: F.of_int(5)}, ring)[0]
    ok, witness, _ = first_nonzero_evaluation(ann, {b: F.one}, ring)
    assert not ok and "coordinate" in witness

    # difference vector: the annihilator is the coordinate sum
    rb = ResidueBasis(1, 1, F, ({a: F.one, b: F.neg(F.one)},), (a,))
    ann = annihilators(rb)
    assert len(ann.functionals) == 1
    assert ann.functionals[0] == {b: F.one, a: F.one}
    assert ann.functional_count + ann.span_rank == ann.coordinate_dim
    assert first_nonzero_evaluation(ann, {a: F.of_int(3), b: F.of_int(10)}, ring)[0]
    assert not first_nonzero_evaluation(ann, {a: F.of_int(3), b: F.of_int(3)}, ring)[0]


def test_rank_nullity_on_computed_lattices():
    ring = FieldRing(F)
    for kind in ("spin+1", "spin-1", "refined", "kl"):
        for n in (3, 4, 5):
            name, kwargs = span_parameters(kind, n)
            rb = reduce_mod_pi(pi_adic_column_echelon(
                spanning_set(name, n, F, **kwargs), PRECISION))
            ann = annihilators(rb)
            assert ann.functional_count + ann.span_rank == ann.coordinate_dim
            assert ann.span_rank == len(rb)
            for vec in rb.vectors:
                # every tracked functional vanishes on every residue vector
                assert all(F.is_zero(value) for _, value
                           in functional_evaluations(ann, vec, ring))
                assert first_nonzero_evaluation(ann, vec, ring)[0]


def test_membership_of_zero_vector():
    n = 3
    gens = spanning_set("spin", n, F, eps=1)
    ann = annihilators(reduce_mod_pi(pi_adic_column_echelon(gens, PRECISION)))
    assert first_nonzero_evaluation(ann, {}, FieldRing(F))[0]
    assert spin_annihilators(n, F.key(), 1, PRECISION).membership({}, FieldRing(F)).ok


def test_spin_residue_over_dual_numbers():
    # listed monomials stay members after extension to the dual numbers
    n = 3
    ring = DualNumbers(F)
    gens = spanning_set("spin", n, F, eps=-1)
    ann = annihilators(reduce_mod_pi(pi_adic_column_echelon(gens, PRECISION)))
    target = {IndexSet.of(n, (4, 5, 6)).mask: ring.x()}
    assert first_nonzero_evaluation(ann, target, ring)[0]
    assert spin_annihilators(n, F.key(), -1, PRECISION).membership(target, ring).ok


def test_pipeline_over_rationals_cross_check():
    from ramwedge.fields import Rationals
    q = Rationals()
    gens = spanning_set("refined", 3, q, r=2, s=1)
    basis = pi_adic_column_echelon(gens, PRECISION)
    rb = reduce_mod_pi(basis)
    assert len(basis) == len(rb) == 6
    ann = annihilators(rb)
    full = IndexSet.of(3, (4, 5, 6)).mask
    assert first_nonzero_evaluation(ann, {full: q.one}, FieldRing(q))[0]
    assert refined_annihilators(3, q.key(), 2, 1, PRECISION).membership(
        {full: q.one}, FieldRing(q)).ok


@lru_cache(maxsize=None)
def family_span_ranks(field) -> dict:
    """The span_rank of every spin +-, refined (r, s) and kl (l, r, s)
    family at n = 2..5, r + s = n."""
    ranks = {}
    for n in range(2, 6):
        ffr, gfr = frame_in_e("f_split", n, field), frame_in_e("g_split", n, field)
        for eps in (1, -1):
            ranks["spin", n, eps] = BlockLattice(ffr, n, None, eps, PRECISION).span_rank
        for r in range(n + 1):
            s = n - r
            ranks["refined", n, r, s] = BlockLattice(
                gfr, n, type_masks(n, r, s), signature_eps(s), PRECISION).span_rank
            for l in range(1, n + 1):
                ranks["kl", n, l, r, s] = BlockLattice(
                    gfr, l, bounded_type_masks(n, l, r, s), None, PRECISION).span_rank
    return ranks


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_residue_rank_independent_of_prime(p):
    field = PrimeField(p)
    gens = spanning_set("refined", 3, field, r=2, s=1)
    rb = reduce_mod_pi(pi_adic_column_echelon(gens, PRECISION))
    assert len(rb) == 6
    # F_p and Q give equal ranks, family by family
    got, want = family_span_ranks(field), family_span_ranks(Rationals())
    assert len(want) == 94
    assert {k: v for k, v in got.items() if v != want[k]} == {}


def test_residue_rank_and_span_equality():
    a = IndexSet.of(1, (1,)).mask
    b = IndexSet.of(1, (2,)).mask
    v1 = {a: F.one}
    v2 = {a: F.of_int(2)}
    v3 = {b: F.one}
    assert residue_rank(F, [v1, v2]) == 1
    assert residue_rank(F, [v1, v3]) == 2
    assert residue_spans_equal(F, [v1], [v2])
    assert not residue_spans_equal(F, [v1], [v3])


def test_residue_rank_is_largest_nonzero_minor():
    rng = random.Random(7)
    for p in (3, 5):
        field = PrimeField(p)
        ring = FieldRing(field)
        for _ in range(80):
            nrows, ncols = rng.randrange(1, 5), rng.randrange(1, 5)
            m = [[field.of_int(rng.randrange(p)) for _ in range(ncols)]
                 for _ in range(nrows)]
            want = 0
            for k in range(1, min(nrows, ncols) + 1):
                if any(not field.is_zero(det(ring, m, list(rs), list(cs)))
                       for rs in combinations(range(nrows), k)
                       for cs in combinations(range(ncols), k)):
                    want = k
            assert residue_rank(field, [dict(enumerate(r)) for r in m]) == want
            # another key order picks other pivots but not another rank
            backwards = [dict(reversed(list(enumerate(r)))) for r in m]
            assert residue_rank(field, backwards) == want


@pytest.mark.parametrize("field", [PrimeField(3), PrimeField(5), Rationals()],
                         ids=["F3", "F5", "Q"])
def test_gauss_jordan_rows_are_reduced_and_span_the_input(field):
    rng = random.Random(11)
    for _ in range(120):
        nrows, ncols = rng.randrange(0, 7), rng.randrange(1, 7)
        keys = rng.sample(range(10), ncols)
        rows = [{k: field.of_int(rng.randrange(-3, 4)) for k in keys
                 if rng.random() < 0.6} for _ in range(nrows)]
        reduced = gauss_jordan(field, rows)
        for p, row in reduced.items():
            # 1 at its own pivot, 0 (no entry) at every other pivot
            assert row[p] == field.one
            assert not any(q in row for q in reduced if q != p)
            assert not any(field.is_zero(c) for c in row.values())
        # each input row is the combination of the reduced rows that its
        # pivot entries dictate
        for vec in rows:
            rest = {k: c for k, c in vec.items() if not field.is_zero(c)}
            for p, row in reduced.items():
                a = vec.get(p, field.zero)
                for k, c in row.items():
                    rest[k] = field.sub(rest.get(k, field.zero), field.mul(a, c))
            assert all(field.is_zero(c) for c in rest.values())
        assert residue_spans_equal(field, list(reduced.values()), rows)


# Lattice rank and the first 16 hex digits of the SHA-256 of the residue
# basis JSON, per (kind, n, p), recorded before frames were converted to
# e-coordinates at build time.  refined and kl use the signature (n-1, 1);
# kl uses l = n - 1.
GOLDEN_SPANS = {
    ("spin+1", 2, 3): (3, "264c021ff8473f93"),
    ("spin+1", 2, 5): (3, "e95dac15a708c171"),
    ("spin+1", 2, 13): (3, "3098cb7d171a24d0"),
    ("spin+1", 3, 3): (10, "a32274a8f9c5a01a"),
    ("spin+1", 3, 5): (10, "3b5171138ab5a111"),
    ("spin+1", 3, 13): (10, "e8ba8f8eef3b9a27"),
    ("spin+1", 4, 3): (35, "c8d78850ff20befc"),
    ("spin+1", 4, 5): (35, "e74aa3fb9488fd0c"),
    ("spin+1", 4, 13): (35, "208d57aa8ad661ea"),
    ("spin+1", 5, 3): (126, "16eed6dce4bad4ae"),
    ("spin+1", 5, 5): (126, "648edaa116e6cad0"),
    ("spin+1", 5, 13): (126, "68ae731fa25138fb"),
    ("spin-1", 2, 3): (3, "55e60b12107b866c"),
    ("spin-1", 2, 5): (3, "60301e59ab507646"),
    ("spin-1", 2, 13): (3, "456694bcce6cc567"),
    ("spin-1", 3, 3): (10, "35e4ff791cde4a07"),
    ("spin-1", 3, 5): (10, "a45c73275a39f6a4"),
    ("spin-1", 3, 13): (10, "219524f4b5ce172e"),
    ("spin-1", 4, 3): (35, "d809fea7a777d18f"),
    ("spin-1", 4, 5): (35, "d61903fbca3b5f9c"),
    ("spin-1", 4, 13): (35, "d526c3e4440a5227"),
    ("spin-1", 5, 3): (126, "aa456787388e12af"),
    ("spin-1", 5, 5): (126, "7c98db29928b20d7"),
    ("spin-1", 5, 13): (126, "6005f7191d7b7801"),
    ("refined", 2, 3): (3, "ce337b2b38a75119"),
    ("refined", 2, 5): (3, "49bdd217038b7e70"),
    ("refined", 2, 13): (3, "4f11d395abfef0db"),
    ("refined", 3, 3): (6, "24a566c22c32aab5"),
    ("refined", 3, 5): (6, "c18eb873ebfb280b"),
    ("refined", 3, 13): (6, "428078b592113c79"),
    ("refined", 4, 3): (10, "23ef34cdb0f871f4"),
    ("refined", 4, 5): (10, "7d450bd62ba94459"),
    ("refined", 4, 13): (10, "dc20ac6726f033b1"),
    ("refined", 5, 3): (15, "e5c37537b8a828ae"),
    ("refined", 5, 5): (15, "8514353c9cb6a3d6"),
    ("refined", 5, 13): (15, "d3c25ee976bff932"),
    ("kl", 2, 3): (4, "d309c6a5f5488493"),
    ("kl", 2, 5): (4, "c97fe1c28d84a053"),
    ("kl", 2, 13): (4, "6b16550245a9961e"),
    ("kl", 3, 3): (12, "8b31f4772b64ad27"),
    ("kl", 3, 5): (12, "165dad2c5e146038"),
    ("kl", 3, 13): (12, "487746c7d769e40a"),
    ("kl", 4, 3): (28, "8b713d1b830d963e"),
    ("kl", 4, 5): (28, "e916f4ad7a17399a"),
    ("kl", 4, 13): (28, "82bf5e97f3f80523"),
    ("kl", 5, 3): (55, "54d8868431340a19"),
    ("kl", 5, 5): (55, "ebf0ea5e7a0b0b06"),
    ("kl", 5, 13): (55, "03f2b89ef5ca5a32"),
}


def span_parameters(kind, n):
    if kind.startswith("spin"):
        return "spin", {"eps": int(kind[4:])}
    if kind == "refined":
        return "refined", {"r": n - 1, "s": 1}
    return "kl", {"l": n - 1, "r": n - 1, "s": 1}


@pytest.mark.parametrize("kind,n,p", list(GOLDEN_SPANS))
def test_spanning_set_golden_spans(kind, n, p):
    name, kwargs = span_parameters(kind, n)
    basis = pi_adic_column_echelon(
        spanning_set(name, n, PrimeField(p), **kwargs), PRECISION)
    residue = json.dumps(reduce_mod_pi(basis).to_json(), sort_keys=True)
    digest = hashlib.sha256(residue.encode()).hexdigest()[:16]
    assert (len(basis), digest) == GOLDEN_SPANS[kind, n, p]


# Lattice rank and the first 16 hex digits of the SHA-256 of the annihilator
# set JSON (support, functionals in order, each sorted by index set, and the
# span rank), per (kind, n, p) with the parameters of GOLDEN_SPANS; recorded
# before the Gauss-Jordan step of annihilators was shared with residue_rank.
GOLDEN_ANNIHILATORS = {
    ("spin+1", 2, 3): (3, "54ad42d0fc1508d0"),
    ("spin+1", 2, 5): (3, "54ad42d0fc1508d0"),
    ("spin+1", 2, 13): (3, "54ad42d0fc1508d0"),
    ("spin+1", 3, 3): (10, "13635b4de4a6b477"),
    ("spin+1", 3, 5): (10, "13635b4de4a6b477"),
    ("spin+1", 3, 13): (10, "13635b4de4a6b477"),
    ("spin+1", 4, 3): (35, "672db4f2fe4cde75"),
    ("spin+1", 4, 5): (35, "22987bfbbb3a58b4"),
    ("spin+1", 4, 13): (35, "91249b8b19966534"),
    ("spin+1", 5, 3): (126, "ab11eb72c3d7f01d"),
    ("spin+1", 5, 5): (126, "ab11eb72c3d7f01d"),
    ("spin+1", 5, 13): (126, "ab11eb72c3d7f01d"),
    ("spin-1", 2, 3): (3, "d57600da0a840024"),
    ("spin-1", 2, 5): (3, "9d2317c835ce175a"),
    ("spin-1", 2, 13): (3, "adbd7bc0015cd971"),
    ("spin-1", 3, 3): (10, "13635b4de4a6b477"),
    ("spin-1", 3, 5): (10, "13635b4de4a6b477"),
    ("spin-1", 3, 13): (10, "13635b4de4a6b477"),
    ("spin-1", 4, 3): (35, "c3fd6b7359355c41"),
    ("spin-1", 4, 5): (35, "747a6e3719c3965f"),
    ("spin-1", 4, 13): (35, "c596b99aa99e8e79"),
    ("spin-1", 5, 3): (126, "ab11eb72c3d7f01d"),
    ("spin-1", 5, 5): (126, "ab11eb72c3d7f01d"),
    ("spin-1", 5, 13): (126, "ab11eb72c3d7f01d"),
    ("refined", 2, 3): (3, "d57600da0a840024"),
    ("refined", 2, 5): (3, "9d2317c835ce175a"),
    ("refined", 2, 13): (3, "adbd7bc0015cd971"),
    ("refined", 3, 3): (6, "242da71634ae01c9"),
    ("refined", 3, 5): (6, "242da71634ae01c9"),
    ("refined", 3, 13): (6, "242da71634ae01c9"),
    ("refined", 4, 3): (10, "56910e01eeffe65a"),
    ("refined", 4, 5): (10, "329b98caf495b111"),
    ("refined", 4, 13): (10, "9a8537874d6d2c98"),
    ("refined", 5, 3): (15, "052f928518331a23"),
    ("refined", 5, 5): (15, "b43d0e5e965aca4a"),
    ("refined", 5, 13): (15, "415709ffcaf08f5b"),
    ("kl", 2, 3): (4, "faf75706b8c0879e"),
    ("kl", 2, 5): (4, "faf75706b8c0879e"),
    ("kl", 2, 13): (4, "faf75706b8c0879e"),
    ("kl", 3, 3): (12, "611cce98555bd1c6"),
    ("kl", 3, 5): (12, "611cce98555bd1c6"),
    ("kl", 3, 13): (12, "611cce98555bd1c6"),
    ("kl", 4, 3): (28, "1711fcdb3dbc5c05"),
    ("kl", 4, 5): (28, "1711fcdb3dbc5c05"),
    ("kl", 4, 13): (28, "1711fcdb3dbc5c05"),
    ("kl", 5, 3): (55, "5a9116e1ebba585c"),
    ("kl", 5, 5): (55, "5a9116e1ebba585c"),
    ("kl", 5, 13): (55, "5a9116e1ebba585c"),
}


def annihilator_digest(ann):
    field = ann.field
    obj = {"support": [IndexSet(ann.n, t).to_json() for t in ann.support],
           "functionals": [[[IndexSet(ann.n, t).to_json(), field.element_to_json(c)]
                            for t, c in sorted(phi.items(), key=lambda kv: lex_key(kv[0]))]
                           for phi in ann.functionals],
           "span_rank": ann.span_rank}
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


@pytest.mark.parametrize("kind,n,p", list(GOLDEN_ANNIHILATORS))
def test_annihilator_golden_digests(kind, n, p):
    name, kwargs = span_parameters(kind, n)
    ann = annihilators(reduce_mod_pi(pi_adic_column_echelon(
        spanning_set(name, n, PrimeField(p), **kwargs), PRECISION)))
    assert (ann.span_rank, annihilator_digest(ann)) == GOLDEN_ANNIHILATORS[kind, n, p]


def smallest_working_precision(gens):
    """The least precision the guard band admits, with the basis at it."""
    precision = 1
    while True:
        try:
            return precision, pi_adic_column_echelon(gens, precision)
        except PrecisionExhaustedError:
            precision += 1


# Precision oracle: the residue basis at the tightest precision, just above
# the largest pivot valuation plus the guard band, is the one at PRECISION
# (pinned in GOLDEN_SPANS over F_p, recomputed over Q).
@pytest.mark.parametrize("kind", ["spin+1", "spin-1", "refined", "kl"])
@pytest.mark.parametrize("n,p", [(3, 3), (3, 13), (5, 3), (5, 13),
                                 (3, "rationals")])
def test_residue_basis_at_smallest_working_precision(kind, n, p):
    field = Rationals() if p == "rationals" else PrimeField(p)
    name, kwargs = span_parameters(kind, n)
    gens = spanning_set(name, n, field, **kwargs)
    precision, basis = smallest_working_precision(gens)
    assert precision == max(val for _, val in basis.pivots) + GUARD_BAND + 1
    if p == "rationals":
        at_default = pi_adic_column_echelon(gens, PRECISION)
        assert reduce_mod_pi(basis).to_json() == reduce_mod_pi(at_default).to_json()
    else:
        residue = json.dumps(reduce_mod_pi(basis).to_json(), sort_keys=True)
        digest = hashlib.sha256(residue.encode()).hexdigest()[:16]
        assert (len(basis), digest) == GOLDEN_SPANS[kind, n, p]


def test_engine_structures_hold_only_int_keys():
    # one key format from fold to witness: the index-set bitmask
    from ramwedge.chart import wedge_vector
    from ramwedge.drivers import counterexample_point

    def ints(keys):
        return all(type(t) is int for t in keys)

    fold = wedge_vector(counterexample_point(5))
    assert fold.terms and ints(fold.terms)
    for kind, n in (("spin+1", 3), ("refined", 5), ("kl", 4)):
        name, kwargs = span_parameters(kind, n)
        gens = spanning_set(name, n, F, **kwargs)
        assert all(ints(g.terms) for g in gens)
        basis = pi_adic_column_echelon(gens, PRECISION)
        assert ints(t for t, _ in basis.pivots)
        assert all(ints(col.terms) for col in basis.columns)
        rb = reduce_mod_pi(basis)
        assert ints(rb.pivots) and all(ints(vec) for vec in rb.vectors)
        ann = annihilators(rb)
        assert ints(ann.support) and all(ints(phi) for phi in ann.functionals)


# ---------------------------------------------------------------------------
# Mask-enumerated generators against the filters and folds they replace


def filtered_spanning_set(kind, n, field, eps=None, r=None, s=None, l=None):
    """spanning_set as it was built before the closed form: filters over
    all C(2n, card) member tuples, S-perp from its definition with the
    lesser tuple as the pair representative, the brute-force shuffle sign,
    and the generic fold for every frame wedge."""
    ring = LaurentOps(field)

    def tuples(card, bound):
        return [t for t in combinations(range(1, 2 * n + 1), card)
                if sum(i <= n for i in t) <= bound[0]
                and sum(i > n for i in t) <= bound[1]]

    def perp(t):
        star = {2 * n + 1 - i for i in t}
        return tuple(i for i in range(1, 2 * n + 1) if i not in star)

    def fold(frame, t):
        return wedge_columns_masks([frame.vector(p) for p in t], ring)

    def paired(frame, sets, eps):
        gens = []
        for t in sets:
            if perp(t) < t:
                continue
            terms = fold(frame, t)
            sign = sigma_sign_bruteforce(n, IndexSet.of(n, t).mask)
            q = PiLaurent.const(field, field.of_int(eps * sign))
            _add_multiple(ring, terms, q, fold(frame, perp(t)))
            if terms:
                gens.append(terms)
        return gens

    if kind == "spin":
        return paired(frame_in_e("f_split", n, field), tuples(n, (n, n)), eps)
    gfr = frame_in_e("g_split", n, field)
    if kind == "refined":
        # an exact type (r, s): bounded by (r, s) at cardinality r + s = n;
        # the sign is the one s fixes unless one is given
        return paired(gfr, tuples(n, (r, s)), (-1) ** s if eps is None else eps)
    return [fold(gfr, t) for t in tuples(l, (r, s))]


@pytest.mark.parametrize("field", [PrimeField(3), F, Rationals()],
                         ids=["F3", "F13", "Q"])
@pytest.mark.parametrize("n", [3, 5])
def test_spanning_sets_are_the_filtered_folds(n, field):
    cases = [("spin", {"eps": eps}) for eps in (1, -1)]
    for r in range(n + 1):
        cases += [("refined", {"r": r, "s": n - r})]
        cases += [("kl", {"l": l, "r": r, "s": n - r}) for l in range(1, n + 1)]
    for kind, kwargs in cases:
        got = [list(g.terms.items()) for g in spanning_set(kind, n, field, **kwargs)]
        want = [list(g.items()) for g in filtered_spanning_set(kind, n, field, **kwargs)]
        # terms, coefficients and key order, generator by generator
        assert got == want, (kind, kwargs)


@pytest.mark.parametrize("eps", [1, -1])
def test_spin_generators_are_the_filtered_folds_at_rank_7(eps):
    got = [list(g.terms.items()) for g in spanning_set("spin", 7, F, eps=eps)]
    want = [list(g.items()) for g in filtered_spanning_set("spin", 7, F, eps=eps)]
    assert got == want


def test_off_support_witnesses_come_in_lex_order():
    # lex_key sorts the support and the off-support coordinates as
    # their member tuples
    n = 3

    def members(t):
        return IndexSet(n, t).members

    gens = spanning_set("refined", n, F, r=2, s=1)
    ann = annihilators(reduce_mod_pi(pi_adic_column_echelon(gens, PRECISION)))
    assert ann.support_set == frozenset(ann.support)
    assert list(ann.support) == sorted(ann.support, key=members)
    ring, lattice = FieldRing(F), refined_annihilators(n, F.key(), 2, 1, PRECISION)
    dense = {t: F.one for t in reversed(index_masks(n))}
    off = sorted((t for t in dense if t not in ann.support_set), key=lex_key)
    assert off == sorted(off, key=members)
    for t in off:
        # with the off-support coordinates before t zero, t is the witness
        want = (False, f"coordinate{members(t)}", F.one)
        assert first_nonzero_evaluation(ann, dense, ring) == want
        got = lattice.membership(dense, ring)
        assert (got.ok, got.witness, got.value) == want
        dense[t] = F.zero


@pytest.mark.parametrize("n", [3, 5, 7])
def test_membership_witness_is_the_sorting_oracles(n):
    # BlockLattice.membership picks its coordinate witness in one pass; the
    # oracle sorts.  Seeded vectors over the field, dual and poly rings,
    # visited in shuffled key order: chart wedges, residue-span members,
    # members with off-support entries whose lex-least key holds an explicit
    # zero, and sparse vectors over every mask and over the support; each
    # decided on the merged lattice and on a fresh one, which builds blocks
    # only up to the witness
    rng = random.Random(n)
    masks = index_masks(n)
    for build, args in ((refined_annihilators, (n, F.key(), n - 1, 1, PRECISION)),
                        (spin_annihilators, (n, F.key(), 1, PRECISION))):
        merged = build(*args)
        _, rb, ann = merged.whole()
        off = [t for t in masks if t not in ann.support_set]
        for ring in (FieldRing(F), DualNumbers(F), PolyRing(F, ("a", "b"))):
            vectors = [wedge_vector(pt).terms
                       for pt in sample_chart_points(n, ring, 5, seed=n)]
            for _ in range(12):
                member = {}
                for vec in rng.sample(rb.vectors, 3):
                    _add_multiple(ring, member, _random_element(ring, rng),
                                  {t: ring.from_base(c) for t, c in vec.items()})
                vectors.append(member)
                extra = sorted(rng.sample(off, 4), key=lambda t: IndexSet(n, t).members)
                vectors.append({**member, extra[0]: ring.zero})
                vectors.append({**member, extra[0]: ring.zero,
                                **{t: _random_element(ring, rng) for t in extra[1:]}})
                for pool in (masks, ann.support):
                    vectors.append({t: _random_element(ring, rng)
                                    for t in rng.sample(pool, 6)})
            outcomes = set()
            for terms in vectors:
                items = list(terms.items())
                rng.shuffle(items)
                terms = dict(items)
                want = first_nonzero_evaluation(ann, terms, ring)
                for lattice in (merged, build.__wrapped__(*args)):
                    res = lattice.membership(terms, ring)
                    assert (res.ok, res.witness, res.value) == want
                outcomes.add(want[1].split("[")[0].split("(")[0] if want[1] else None)
            # every path was taken: a pass, and both kinds of witness where
            # the lattice has kernel functionals
            assert outcomes >= ({None, "coordinate", "functional"} if ann.functionals
                                else {None, "coordinate"})


# ---------------------------------------------------------------------------
# Generator digests, recorded before the spanning sets took masks: SHA-256
# over every generator's (mask, exponent, coefficient) terms, in dict order,
# in list order, over every parameter of the kind at that rank


def digest_cases(kind, n):
    if kind == "spin":
        return [{"eps": 1}, {"eps": -1}]
    if kind == "refined":
        return [{"r": n - s, "s": s} for s in range(n + 1)]
    return [{"l": l, "r": n - s, "s": s} for l in range(1, n + 1) for s in range(n + 1)]


GENERATOR_DIGESTS = {
    ("F13", "spin", 3): "f10d7ec71a80e3e7330b379c53da22c0dcf502d74cd18658ba643af9778e5876",
    ("F13", "spin", 5): "66c4f689c4ce2b8b279a25ba32d25318afee653e234ce5f050b7fa26c3bed9d6",
    ("F13", "spin", 7): "d4144d39d00226c26ece84aa3037f2983a0051e4c69cd31510f627c32f957dcd",
    ("F13", "refined", 3): "189ce63ef9e270fb40a7c6bfd0cbc99dd260295c629085f5e38098bddd97276d",
    ("F13", "refined", 5): "d3733bb475d98dc21c3d9b8c3ffc3bb27237ff38bd1092874376790e411f9a71",
    ("F13", "kl", 3): "690e0c9bf6ff5bce31cdfe4afad37e62a3390e8d2803df4125274bae6d198f8b",
    ("F13", "kl", 5): "52a61090cb77130b3e4051176a9384fcfac2851d5c6cd1916dd6f8394c31d50c",
    ("Q", "spin", 3): "ee98041e4c74ec4167db38212785c6eef31e5bbad8dd4d04132a6cdf34f011e9",
    ("Q", "spin", 5): "479ab1259b15d4fad010a422228d4476ad8a7bf3fb0ab914cdf3693f635d4808",
    ("Q", "spin", 7): "60d84b0416a203b9226db53cd26926b4586de18701d1cb1b6d4e2b6b464a6f9b",
    ("Q", "refined", 3): "3c6b345c1eb7b5590543833688affc09958991c51415786d1ebf193d4f3d40d0",
    ("Q", "refined", 5): "a37cdfacb3e3cbd707ed02eb6016382d76a83fd4fbb16aa3dccf2bd8557e2fa6",
    ("Q", "kl", 3): "a6efacef800cf6290559f78f5c701772074cef25ba892e48720e085e9837c8b4",
    ("Q", "kl", 5): "702f8bcdec94c9125da0f5210999b7463f20f36f1a6a3fb30b43e9ec1a783064",
}


@pytest.mark.parametrize("field_name,kind,n", list(GENERATOR_DIGESTS))
def test_generator_digests(field_name, kind, n):
    field = F if field_name == "F13" else Rationals()
    h = hashlib.sha256()
    for kwargs in digest_cases(kind, n):
        h.update(repr(sorted(kwargs.items())).encode())
        for g in spanning_set(kind, n, field, **kwargs):
            h.update(b"|")
            for mask, c in g.terms.items():
                for e, x in c.coeffs.items():
                    h.update(f"{mask},{e},{x};".encode())
    assert h.hexdigest() == GENERATOR_DIGESTS[field_name, kind, n]


# ---------------------------------------------------------------------------
# Refined takes its sign from s


@pytest.mark.parametrize("n", [3, 5])
def test_refined_sign_is_derived_from_s(n):
    # the refined generators are the pairs of type (r, s) with the sign
    # signature_eps(s), and differ from the pairs with the other sign
    for s in range(n + 1):
        got = [list(g.terms.items())
               for g in spanning_set("refined", n, F, r=n - s, s=s)]
        for eps in (1, -1):
            want = [list(g.items()) for g in
                    filtered_spanning_set("refined", n, F, eps=eps, r=n - s, s=s)]
            assert (got == want) == (eps == signature_eps(s)), (s, eps)
