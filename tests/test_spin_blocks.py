"""The block lattice of each family (half-spin, signature-refined and
degree-l type-bounded), built one weight block at a time, against the
global pipeline (pi_adic_column_echelon of the oracle spanning_set) as
its oracle."""

import random
import re

import pytest

from ramwedge.chart import (FAIL, PASS, Verdict, check_kl, check_refined, check_spin,
                            kl_annihilators, refined_annihilators,
                            spin_annihilators, wedge_vector)
from ramwedge.drivers import counterexample_point, sample_chart_points
from ramwedge.exterior import Frame, WedgeVector, frame_in_e
from ramwedge.fields import PrimeField, Rationals
from ramwedge.indexsets import IndexSet, bounded_type_masks, index_masks, type_masks
from ramwedge.lattices import (BlockLattice, annihilators,
                               pi_adic_column_echelon, reduce_mod_pi,
                               signature_eps)
from ramwedge.rings import DualNumbers, FieldRing, PolyRing
from ramwedge.scalars import PiLaurent
from ramwedge import lattices

from oracles import first_nonzero_evaluation, spanning_set
from test_chart import dense_points, nilpotent_point, rings_over
from test_lattices import annihilator_digest, assert_residues_at_the_pivot_valuation

PRECISION = 24
FIELDS = {"F3": PrimeField(3), "F5": PrimeField(5), "F13": PrimeField(13),
          "Q": Rationals()}


def family_lattice(kind, n, field, eps=None, r=None, s=None, l=None, frame=None):
    """The block lattice of a family, with the parameters of spanning_set;
    frame replaces the family's own frame."""
    if kind == "spin":
        frame_kind, degree, masks = "f_split", n, index_masks(n)
    elif kind == "refined":
        frame_kind, degree, masks, eps = "g_split", n, type_masks(n, r, s), signature_eps(s)
    else:
        frame_kind, degree, masks = "g_split", l, bounded_type_masks(n, l, r, s)
    return BlockLattice(frame or frame_in_e(frame_kind, n, field), degree, masks, eps,
                        PRECISION)


def report_families(n):
    """The families of full_report's four lattices at signature (n - 1, 1),
    as (kind, family_lattice parameters)."""
    return [("spin", {"eps": 1}), ("spin", {"eps": -1}),
            ("refined", {"r": n - 1, "s": 1}), ("kl", {"l": n, "r": n - 1, "s": 1})]


def built_blocks(lattice) -> int:
    # a paired block holds two slot weights of the index, one when self-perp
    return len({id(ann) for ann in lattice._block_of.values()})


def block_lattice(n, field, eps):
    return family_lattice("spin", n, field, eps=eps)


def global_lattice(n, field, eps):
    basis = pi_adic_column_echelon(spanning_set("spin", n, field, eps=eps), PRECISION)
    residue = reduce_mod_pi(basis)
    return basis, residue, annihilators(residue)


def weight(n, mask):
    """|S ∩ {i, n+i}| for each slot i."""
    return tuple((mask >> i & 1) + (mask >> n + i & 1) for i in range(n))


def same_block(n, a, b):
    wa, wb = weight(n, a), weight(n, b)
    return wb in (wa, tuple(2 - x for x in reversed(wa)))


def merged_cases():
    """Spin at n <= 7 in every field, with the ids it has always had;
    refined at every signature and kl at l in {1, n - 2, n} in signature
    (n - 1, 1), at n <= 7 over F_3, F_13 and Q."""
    cases = [pytest.param(n, name, "spin", {"eps": eps}, id=f"{n}-{name}-{eps}")
             for n in range(2, 8) for name in FIELDS for eps in (1, -1)]
    for n in range(2, 8):
        for name in ("F3", "F13", "Q"):
            cases += [pytest.param(n, name, "refined", {"r": n - s, "s": s},
                                   id=f"{n}-{name}-refined-{n - s}-{s}")
                      for s in range(n + 1)]
            cases += [pytest.param(n, name, "kl", {"l": l, "r": n - 1, "s": 1},
                                   id=f"{n}-{name}-kl-{l}-{n - 1}-1")
                      for l in sorted({1, n - 2, n} - {0})]
    return cases


@pytest.mark.parametrize("n,field_name,kind,params", merged_cases())
def test_merged_blocks_are_the_global_lattice(n, field_name, kind, params):
    field = FIELDS[field_name]
    gens = spanning_set(kind, n, field, **params)
    basis = pi_adic_column_echelon(gens, PRECISION)
    residue = reduce_mod_pi(basis)
    ann = annihilators(residue)
    lattice = family_lattice(kind, n, field, **params)
    merged_basis, merged_residue, merged_ann = lattice.whole()
    assert merged_basis.pivots == basis.pivots
    assert [list(c.terms.items()) for c in merged_basis.columns] == \
        [list(c.terms.items()) for c in basis.columns]
    assert merged_residue.pivots == residue.pivots
    assert merged_residue.vectors == residue.vectors
    assert annihilator_digest(merged_ann) == annihilator_digest(ann)
    assert merged_ann == ann
    # each block's generators are counted once, however often it is reduced
    assert lattice.generators == len(gens)
    # built lazily, block by block, the merged annihilators are the same (the
    # other families meet the lazy path in the witness numbering test)
    if kind == "spin":
        assert family_lattice(kind, n, field, **params).annihilators == ann


@pytest.mark.parametrize("field_name", ["F3", "F13", "Q"])
@pytest.mark.parametrize("n", [3, 5, 7])
def test_reduce_mod_pi_is_the_saturating_pipeline_on_every_block(n, field_name):
    # every block echelon of full_report's four families, and each merged one
    valuations = set()
    for kind, params in report_families(n):
        lattice = family_lattice(kind, n, FIELDS[field_name], **params)
        for _, weights in lattice._family_blocks():
            echelon = lattice._reduce(weights)[0]
            assert_residues_at_the_pivot_valuation(echelon)
            valuations.update(val for _, val in echelon.pivots)
        assert_residues_at_the_pivot_valuation(lattice.whole()[0])
    # spin pivots sit at pi^-1: reading pi^0 instead would differ
    assert -1 in valuations


@pytest.mark.parametrize("n", range(2, 8))
def test_spin_without_masks_finds_the_blocks_of_every_mask(n):
    # masks None (as spin_annihilators builds it) lists one mask per slot
    # weight, not all C(2n, n): the same blocks, each once, and the same
    # merged lattice as listing every mask
    field = FIELDS["F13"]
    listed = block_lattice(n, field, -1)
    unlisted = BlockLattice(frame_in_e("f_split", n, field), n, None, -1, PRECISION)
    blocks = [frozenset(weights) for _, weights in unlisted._family_blocks()]
    assert len(blocks) == len(set(blocks))
    assert set(blocks) == {frozenset(weights) for _, weights in listed._family_blocks()}
    (basis, residue, ann), want = unlisted.whole(), listed.whole()
    assert basis.pivots == want[0].pivots
    assert [list(c.terms.items()) for c in basis.columns] == \
        [list(c.terms.items()) for c in want[0].columns]
    assert (residue, ann) == want[1:]
    assert unlisted.generators == listed.generators


def test_a_generator_that_crosses_blocks_raises():
    # frame vectors 1 and 2 swapped: each still lies in one slot, but not in
    # the slot of its position, so wedges leave the weight of their set; the
    # f-frame for spin, the g-frame for refined and for kl at l = 3 and 2
    f = FIELDS["F13"]
    for kind, params, members in (("spin", {"eps": 1}, (1, 3, 6)),
                                  ("refined", {"r": 2, "s": 1}, (1, 3, 6)),
                                  ("kl", {"l": 3, "r": 2, "s": 1}, (1, 3, 6)),
                                  ("kl", {"l": 2, "r": 2, "s": 1}, (1, 6))):
        frame = frame_in_e("f_split" if kind == "spin" else "g_split", 3, f)
        vectors = list(frame.vectors)
        vectors[0], vectors[1] = vectors[1], vectors[0]
        swapped = Frame(frame.kind, 3, f, tuple(vectors))
        with pytest.raises(ValueError, match="crosses the weight block of"):
            family_lattice(kind, 3, f, frame=swapped, **params).block(
                IndexSet.of(3, members).mask)
        with pytest.raises(ValueError, match="crosses"):
            family_lattice(kind, 3, f, frame=swapped, **params).whole()


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


def test_membership_with_functionals_uses_the_global_numbering():
    # at even n a touched block may carry kernel functionals; membership
    # decides by the merged set when one fails, so witnesses name
    # functionals by their place in it, and builds that set only then
    field = FIELDS["F13"]
    ring = FieldRing(field)
    _, _, ann = global_lattice(4, field, 1)
    off = next(t for t in index_masks(4) if t not in ann.support_set)
    merges = 0
    for t in index_masks(4):
        # alone, and with an off-support coordinate that is the witness
        # whatever the functionals give, so no block needs its number
        for vector in ({t: field.one}, {t: field.one, off: field.one}):
            lattice = block_lattice(4, field, 1)
            got = lattice.membership(vector, ring)
            assert (got.ok, got.witness, got.value) == first_nonzero_evaluation(ann, vector, ring)
            # the first nonzero evaluation on t's block: off-support
            # coordinates come before its functionals
            ok, witness, _ = first_nonzero_evaluation(lattice.block(t), vector, ring)
            merged = "annihilators" in vars(lattice)
            assert merged == (not ok and witness.startswith("functional"))
            assert len(vector) == 1 or not merged
            merges += merged
    assert merges > 0


@pytest.mark.parametrize("n", [3, 5])
def test_a_lattice_merged_first_decides_as_a_fresh_one(n):
    # membership reads the blocks a vector touches whether or not the
    # merged set exists, so merging first changes no verdict or witness;
    # at n = 5 only the counterexample fails at a kernel functional
    field = FIELDS["F13"]
    families = report_families(n)
    fresh = [family_lattice(kind, n, field, **params) for kind, params in families]
    merged = [family_lattice(kind, n, field, **params) for kind, params in families]
    for lattice in merged:
        lattice.annihilators
    witnesses = set()
    for ring in (FieldRing(field), DualNumbers(field), PolyRing(field, ("a", "b"))):
        pts = sample_chart_points(n, ring, 8, seed=2)
        if ring.kind == "dual" and n == 5:
            pts.append(counterexample_point(n))
        for pt in pts:
            w = wedge_vector(pt)
            for a, b in zip(fresh, merged):
                got = a.membership(w.terms, ring)
                assert got == b.membership(w.terms, ring)
                witnesses.add(got.witness and re.match(r"\w+", got.witness)[0])
    assert witnesses == {None, "coordinate", "functional"}


def test_a_point_builds_only_the_blocks_it_touches():
    # the counterexample's top wedge lies in the all-ones block: 128 sets at
    # n = 7, 64 of them in the support
    n = 7
    pt = counterexample_point(n)
    lattice = block_lattice(n, pt.ring.field, 1)
    w = wedge_vector(pt)
    assert all(weight(n, t) == (1,) * n for t in w.terms)
    assert lattice.membership(w.terms, pt.ring).ok
    assert len(lattice.support_set) == 64 and built_blocks(lattice) == 1
    # kn is unpaired, so its block is the one slot weight: the n sets of
    # type (n - 1, 1) in it give its generators; the block holds kn's one
    # kernel functional, which vanishes on the wedge, so membership merges
    # no other block
    kn = family_lattice("kl", n, pt.ring.field, l=n, r=n - 1, s=1)
    ann = kn.block(next(iter(w.terms)))
    assert kn.generators == n
    assert all(weight(n, t) == (1,) * n for t in ann.support)
    assert len(ann.functionals) == 1
    assert kn.membership(w.terms, pt.ring).ok
    assert kn.generators == n and "annihilators" not in vars(kn)
    assert first_nonzero_evaluation(kn.annihilators, w.terms, pt.ring)[0]
    # refined fails the wedge at a kernel functional, numbered among all
    refined = family_lattice("refined", n, pt.ring.field, r=n - 1, s=1)
    assert refined.membership(w.terms, pt.ring).witness == "functional[5]"
    assert "annihilators" in vars(refined)


def test_a_dense_nilpotent_point_builds_one_block_per_lattice():
    # det X = 0, so the wedge fails every lattice at the second index set
    # in lex order, whose block is off the support there: membership walks
    # the wedge's coordinates in lex order and reduces only that block
    n, field = 5, FIELDS["F13"]
    second = IndexSet.of(n, (1, 2, 3, 4, 6)).mask
    for seed in (1, 2, 3):
        pt = nilpotent_point(n, FieldRing(field), random.Random(seed))
        w = wedge_vector(pt)
        for kind, params in report_families(n):
            lattice = family_lattice(kind, n, field, **params)
            assert lattice.membership(w.terms, pt.ring).witness == "coordinate(1, 2, 3, 4, 6)"
            assert set(lattice._block_of) == set(lattice._block_weights(second))
            assert built_blocks(lattice) == 1


@pytest.mark.parametrize("n", [5, 7])
def test_a_point_that_passes_spin_builds_every_block_it_touches(n):
    # with no off-support coordinate the walk reaches the end: the blocks
    # built are those of the wedge's nonzero coordinates, some but not all
    field = FIELDS["F13"]
    touched = set()
    for ring in rings_over(field):
        for pt in sample_chart_points(n, ring, 6, seed=1):
            w = wedge_vector(pt)
            lattice = block_lattice(n, field, 1)
            if lattice.membership(w.terms, ring).ok:
                nonzero = [t for t, c in w.terms.items() if not ring.is_zero(c)]
                assert set(lattice._block_of) == {
                    wt for t in nonzero for wt in lattice._block_weights(t)}
                touched.add(built_blocks(lattice))
    assert min(touched) < max(touched)


@pytest.mark.parametrize("history", ["fresh", "merged"])
@pytest.mark.parametrize("field", ["F3", "F13", "Q"])
@pytest.mark.parametrize("n", [3, 5, 7])
def test_membership_is_membership_over_the_merged_blocks(n, field, history):
    # the oracle of the walk is first_nonzero_evaluation against the merged
    # annihilators, every block built: on dense sampled, dense nilpotent
    # and counterexample-shaped points, over each ring, with lattices new
    # for each point or merged before the first
    field = FIELDS[field]
    merged = [family_lattice(kind, n, field, **params) for kind, params in report_families(n)]
    for lattice in merged:
        lattice.annihilators
    witnesses = set()
    for ring in rings_over(field):
        for pt in dense_points(n, ring).values():
            w = wedge_vector(pt)
            lattices = merged if history == "merged" else [
                family_lattice(kind, n, field, **params) for kind, params in report_families(n)]
            for lattice, oracle in zip(lattices, merged):
                got = lattice.membership(w.terms, ring)
                assert (got.ok, got.witness, got.value) == first_nonzero_evaluation(
                    oracle.annihilators, w.terms, ring)
                witnesses.add(got.witness and re.match(r"\w+", got.witness)[0])
    # at n = 3 no such point fails at a kernel functional
    assert witnesses == {None, "coordinate", "functional"} - ({"functional"} if n == 3 else set())


@pytest.mark.parametrize("n,count", [(5, 10), (7, 5)])
def test_both_signs_give_one_verdict_on_sampled_points(n, count):
    # ROADMAP item 2: at odd n both signs have one residue span, so one
    # verdict and one witness; the lazy blocks give the global ones
    field = FIELDS["F13"]
    _, _, ann = global_lattice(n, field, 1)
    plus, minus = (spin_annihilators(n, field.key(), eps, PRECISION) for eps in (1, -1))
    for ring in (FieldRing(field), DualNumbers(field), PolyRing(field, ("a", "b"))):
        for pt in sample_chart_points(n, ring, count, seed=0):
            w = wedge_vector(pt)
            got = plus.membership(w.terms, ring)
            assert got == minus.membership(w.terms, ring)
            assert (got.ok, got.witness, got.value) == first_nonzero_evaluation(ann, w.terms, ring)
            if n == 5:  # the checkers themselves, each folding on its own
                verdicts = [check_spin(pt, 1), check_spin(pt, -1)]
                assert verdicts == [Verdict(PASS if got.ok else FAIL, got.witness)] * 2


def test_spin_annihilators_is_one_cached_lattice():
    # precision is positional-only and required, so equal calls have one
    # cache key: a second call is a hit, and no keyword spelling makes a
    # second entry
    key = FIELDS["F13"].key()
    for build, args in ((spin_annihilators, (5, key, 1)),
                        (refined_annihilators, (5, key, 4, 1)),
                        (kl_annihilators, (5, key, 3, 4, 1))):
        a = build(*args, PRECISION)
        before = build.cache_info()
        assert a is build(*args, PRECISION)
        assert isinstance(a, BlockLattice)
        after = build.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)
        for call in (lambda: build(*args), lambda: build(*args, precision=PRECISION)):
            with pytest.raises(TypeError):
                call()
        assert build.cache_info().currsize == after.currsize


@pytest.mark.parametrize("history", ["fresh", "whole", "sampled"])
@pytest.mark.parametrize("n,index", [(5, 2), (7, 5), (9, 9)])
def test_witness_numbering_does_not_depend_on_build_order(n, index, history):
    # the counterexample fails refined at one kernel functional and passes
    # kn, whether its lattices are new, built whole, or have first decided
    # other points' wedges (blocks built in another order)
    refined_annihilators.cache_clear()
    kl_annihilators.cache_clear()
    pt = counterexample_point(n)
    key = pt.ring.field.key()
    if history == "whole":
        refined_annihilators(n, key, n - 1, 1, PRECISION).whole()
        kl_annihilators(n, key, n, n - 1, 1, PRECISION).whole()
    elif history == "sampled":
        for other in sample_chart_points(n, pt.ring, 4, seed=1):
            w = wedge_vector(other)
            refined_annihilators(n, key, n - 1, 1, PRECISION).membership(w.terms, pt.ring)
            kl_annihilators(n, key, n, n - 1, 1, PRECISION).membership(w.terms, pt.ring)
    assert check_refined(pt) == Verdict(FAIL, f"functional[{index}]")
    assert check_kl(pt, n).passed


def test_echelon_inverts_a_pivot_only_when_a_column_holds_its_row(monkeypatch):
    calls = []
    original = lattices.truncated_inverse
    monkeypatch.setattr(lattices, "truncated_inverse",
                        lambda a: calls.append(a) or original(a))
    field = FIELDS["F13"]
    one = PiLaurent.one(field)
    a, b = index_masks(2)[:2]
    # disjoint rows: nothing to eliminate, nothing to invert
    pi_adic_column_echelon([WedgeVector(2, {a: one}), WedgeVector(2, {b: one})], PRECISION)
    assert calls == []
    # the first pivot, at a, is eliminated from the second column; the
    # second pivot, at b, from none
    pi_adic_column_echelon([WedgeVector(2, {a: one, b: one}), WedgeVector(2, {a: one})],
                           PRECISION)
    assert calls == [one]
