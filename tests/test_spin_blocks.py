"""The half-spin lattice built one weight block at a time, against the
global pipeline (intersect_with_standard_lattice of spanning_set("spin"))
as its oracle."""

import pytest

from ramwedge.chart import check_spin, spin_annihilators, wedge_vector
from ramwedge.drivers import counterexample_point, sample_chart_points
from ramwedge.exterior import Frame, frame_in_e
from ramwedge.fields import PrimeField, Rationals
from ramwedge.indexsets import IndexSet, index_masks, lex_ranks
from ramwedge.lattices import (HalfSpinLattice, annihilators,
                               intersect_with_standard_lattice,
                               membership_over_R, pi_adic_column_echelon,
                               reduce_mod_pi, spanning_set)
from ramwedge.rings import DualNumbers, FieldRing, PolyRing
from ramwedge.scalars import PiLaurent
from ramwedge import lattices

from test_lattices import annihilator_digest

PRECISION = 24
FIELDS = {"F3": PrimeField(3), "F5": PrimeField(5), "F13": PrimeField(13),
          "Q": Rationals()}


def block_lattice(n, field, eps):
    return HalfSpinLattice(frame_in_e("f_split", n, field), eps, PRECISION)


def global_lattice(n, field, eps):
    basis = intersect_with_standard_lattice(spanning_set("spin", n, field, eps=eps),
                                            PRECISION)
    residue = reduce_mod_pi(basis)
    return basis, residue, annihilators(residue)


def weight(n, mask):
    """|S ∩ {i, n+i}| for each slot i."""
    return tuple((mask >> i & 1) + (mask >> n + i & 1) for i in range(n))


def same_block(n, a, b):
    wa, wb = weight(n, a), weight(n, b)
    return wb in (wa, tuple(2 - x for x in reversed(wa)))


@pytest.mark.parametrize("eps", [1, -1])
@pytest.mark.parametrize("field_name", list(FIELDS))
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_merged_blocks_are_the_global_lattice(n, field_name, eps):
    field = FIELDS[field_name]
    basis, residue, ann = global_lattice(n, field, eps)
    merged_basis, merged_residue, merged_ann = block_lattice(n, field, eps).whole()
    assert merged_basis.pivots == basis.pivots
    assert [list(c.terms.items()) for c in merged_basis.columns] == \
        [list(c.terms.items()) for c in basis.columns]
    assert merged_residue.pivots == residue.pivots
    assert merged_residue.vectors == residue.vectors
    assert annihilator_digest(merged_ann) == annihilator_digest(ann)
    assert merged_ann == ann
    # built lazily, block by block, the merged annihilators are the same
    assert block_lattice(n, field, eps).annihilators == ann


def test_a_generator_that_crosses_blocks_raises():
    # frame vectors 1 and 2 swapped: each still lies in one slot, but not in
    # the slot of its position, so wedges leave the weight of their set
    f = FIELDS["F13"]
    vectors = list(frame_in_e("f_split", 3, f).vectors)
    vectors[0], vectors[1] = vectors[1], vectors[0]
    swapped = HalfSpinLattice(Frame("f_split", 3, f, tuple(vectors)), 1, PRECISION)
    with pytest.raises(ValueError, match="crosses the weight block of"):
        swapped.block(IndexSet.of(3, (1, 3, 6)).mask)
    with pytest.raises(ValueError, match="crosses"):
        swapped.whole()


@pytest.mark.parametrize("eps", [1, -1])
@pytest.mark.parametrize("n", [3, 5, 7])
def test_odd_rank_block_support_is_the_sets_holding_n_plus_m(n, eps):
    # ROADMAP item 2: at odd n the residue span is spanned by the e_S with
    # n + m in S, m = (n + 1) / 2, block by block, with no kernel functionals
    lattice = block_lattice(n, FIELDS["F13"], eps)
    corner = 1 << n + (n + 1) // 2 - 1
    for mask in index_masks(n):
        ann = lattice.block(mask)
        assert ann.functionals == ()
        assert (mask in ann.support_set) == bool(mask & corner)
        assert all(same_block(n, mask, t) for t in ann.support)
    assert lattice.span_rank == len(lattice.support_set) == len(index_masks(n)) // 2


@pytest.mark.parametrize("eps", [1, -1])
def test_even_rank_contrast_at_4_is_pinned(eps):
    ann = block_lattice(4, FIELDS["F13"], eps).annihilators
    assert (ann.span_rank, len(ann.support), len(ann.functionals)) == (35, 62, 27)


def test_covering_with_functionals_uses_the_global_numbering():
    # at even n a touched block may carry kernel functionals; covering then
    # falls back to the merged set, so witnesses name functionals by their
    # place in it
    field = FIELDS["F13"]
    ring = FieldRing(field)
    _, _, ann = global_lattice(4, field, 1)
    fallbacks = 0
    for t in index_masks(4):
        lattice = block_lattice(4, field, 1)
        vector = {t: field.one}
        covering = lattice.covering(vector)
        fallbacks += covering is lattice.annihilators
        assert (membership_over_R(vector, covering, ring)
                == membership_over_R(vector, ann, ring))
    assert fallbacks > 0


def test_a_point_builds_only_the_blocks_it_touches():
    # the counterexample's top wedge lies in the all-ones block: 128 sets at
    # n = 7, 64 of them in the support
    n = 7
    pt = counterexample_point(n)
    lattice = block_lattice(n, pt.ring.field, 1)
    w = wedge_vector(pt)
    assert all(weight(n, t) == (1,) * n for t in w.terms)
    assert membership_over_R(w, lattice.covering(w.terms), pt.ring).ok
    assert len(lattice.support_set) == 64


@pytest.mark.parametrize("n,count", [(5, 10), (7, 5)])
def test_both_signs_give_one_verdict_on_sampled_points(n, count):
    # ROADMAP item 2: at odd n both signs have one residue span, so one
    # verdict and one witness; the lazy blocks give the global ones
    field = FIELDS["F13"]
    _, _, ann = global_lattice(n, field, 1)
    for ring in (FieldRing(field), DualNumbers(field), PolyRing(field, ("a", "b"))):
        for pt in sample_chart_points(n, ring, count, seed=0):
            w = wedge_vector(pt)
            plus = check_spin(pt, 1, wedge=w)
            assert plus == check_spin(pt, -1, wedge=w)
            got = membership_over_R(w, ann, ring)
            assert (plus.passed, plus.witness) == (got.ok, got.witness)


def test_spin_annihilators_is_one_cached_lattice():
    field = FIELDS["F13"]
    a = spin_annihilators(5, field.key(), 1, PRECISION)
    assert a is spin_annihilators(5, field.key(), 1, PRECISION)
    assert isinstance(a, HalfSpinLattice)


def test_echelon_inverts_a_pivot_only_when_a_column_holds_its_row(monkeypatch):
    calls = []
    original = lattices.truncated_inverse
    monkeypatch.setattr(lattices, "truncated_inverse",
                        lambda a, precision: calls.append(a) or original(a, precision))
    field = FIELDS["F13"]
    one = PiLaurent.one(field)
    a, b = index_masks(2)[:2]
    rank = lex_ranks(2, 2)
    # disjoint rows: nothing to eliminate, nothing to invert
    pi_adic_column_echelon([{a: one}, {b: one}], PRECISION, rank)
    assert calls == []
    # the first pivot, at a, is eliminated from the second column; the
    # second pivot, at b, from none
    pi_adic_column_echelon([{a: one, b: one}, {a: one}], PRECISION, rank)
    assert calls == [one]
