"""Lattices over the valuation ring inside wedge powers: the paired and
unpaired frame-wedge generators; the pi-adic column echelon; reduction mod
pi; one Gauss-Jordan elimination over k for ranks and annihilators;
annihilator-based membership over coefficient rings; and BlockLattice, the
one lattice the checkers and dumps read, built one weight block at a time
for each of its three families (half-spin, signature-refined, and degree-l
type-bounded).

All wedge coordinates here are in the e-basis of the standard lattice,
where lattice membership means every coefficient has valuation >= 0.  The
column reduction is unimodular (multipliers are integral because pivots are
chosen with globally minimal valuation), so the echelon columns c_i span
the same module as the input, and each reaches its least valuation v_i at
its pivot.  The columns pi^(-v_i) c_i are then a basis of (F-span of the
input) intersected with the standard lattice: reduce_mod_pi reads their
residues as the pi^(v_i) coefficients of the c_i, and only the basis dumps
(DVRTriangularBasis.to_json) and verify refined-basis (saturated()) build
them.
"""

from __future__ import annotations

import heapq
from functools import cached_property
from itertools import combinations
from math import comb

from .errors import PrecisionExhaustedError
from .exterior import WedgeVector, _add_multiple, basis_wedge, terms_to_json
from .indexsets import IndexSet, lex_key, perp_mask, shuffle_sign
from .records import frozen
from .scalars import LaurentOps, truncated_inverse

GUARD_BAND = 4


# ---------------------------------------------------------------------------
# Generators


def signature_eps(s: int) -> int:
    """The half-spin sign that goes with a signature (r, s): -1 for odd s,
    +1 for even s."""
    return -1 if s % 2 else 1


def paired_generator(frame, mask: int, eps: int) -> WedgeVector:
    """w_S + eps * sgn(sigma_S) * w_{S-perp} for the mask of S, with w_T
    the basis_wedge of the frame at T; a self-perp S is folded once."""
    n = frame.n
    perp = perp_mask(n, mask)
    w = basis_wedge(frame, mask)
    terms = dict(w.terms)
    flip = eps * shuffle_sign(n, mask) < 0
    # the sparse add of _add_multiple, with the constant +-1 as a sign
    for t, c in (w if perp == mask else basis_wedge(frame, perp)).terms.items():
        if flip:
            c = -c
        cur = terms.get(t)
        new = c if cur is None else cur + c
        if new.is_zero:
            terms.pop(t, None)
        else:
            terms[t] = new
    return WedgeVector(n, terms)


def _paired_generators(frame, masks: list, eps: int):
    """The nonzero paired generators for S running over the given masks (in
    lex order), one representative per {S, S-perp} pair: the
    lexicographically least."""
    n = frame.n
    wanted = set(masks)
    gens = []
    for m in masks:
        perp = perp_mask(n, m)
        if (d := m ^ perp) & -d & perp:  # S-perp comes first (see lex_key)
            continue
        if perp not in wanted:
            raise ValueError("perp partner escapes the requested family")
        g = paired_generator(frame, m, eps)
        if g.terms:
            gens.append(g)
    return gens


# ---------------------------------------------------------------------------
# pi-adic column echelon over the valuation ring


@frozen
class DVRTriangularBasis:
    """Echelon columns c_i of a module over the valuation ring: pairwise
    distinct pivot index sets, recorded with the pivot valuations v_i,
    triangular in processing order; c_i reaches its least valuation v_i at
    its pivot."""

    n: int
    degree: int
    field: object
    pivots: tuple
    columns: tuple

    def __len__(self):
        return len(self.columns)

    def saturated(self) -> tuple:
        """The columns pi^(-v_i) c_i: a basis of (F-span of the columns)
        intersected with the standard lattice."""
        return tuple(WedgeVector(self.n, {t: c.shift(-val) for t, c in col.terms.items()})
                     for (_, val), col in zip(self.pivots, self.columns))

    def to_json(self):
        """The saturated columns, each shifted as it is written."""
        return {
            "columns": [
                {"pivot": IndexSet(self.n, piv).to_json(), "pivotValuation": val,
                 "terms": terms_to_json(self.n, col.terms,
                                        lambda c, val=val: c.shift(-val).to_json())}
                for (piv, val), col in zip(self.pivots, self.columns)
            ],
        }


def pi_adic_column_echelon(generators: list, precision: int,
                           lex: dict = None) -> DVRTriangularBasis:
    """Unimodular echelon form of the module that the generators, e-basis
    wedge vectors of one degree, span over the valuation ring, without
    saturation scaling; zero and redundant generators are tolerated.

    Column reduction with global minimum-valuation pivots: each pivot row is
    eliminated from every later column, and ties break to the
    lexicographically least index set, then the earliest generator.  lex:
    {mask: lex_key(mask)} over the generators' masks (elimination adds
    none).  Exact; precision bounds the pivot valuations: a pivot in the
    guard band below it raises PrecisionExhaustedError.
    """
    if not generators:
        raise ValueError("no generators")
    nonzero = [g for g in generators if not g.is_zero]
    if not nonzero:
        raise ValueError("all generators are zero")
    if len({g.degree() for g in nonzero}) > 1:
        raise ValueError("generators of mixed wedge degree")
    live, heap, incidence = {}, [], {}
    if lex is None:
        lex = {t: lex_key(t) for g in nonzero for t in g.terms}
    for cid, g in enumerate(nonzero):
        col = {t: c for t, c in g.terms.items() if not c.is_zero}
        if not col:
            continue
        live[cid] = col
        for t, c in col.items():
            heapq.heappush(heap, (c.ord(), lex[t], cid, t))
            incidence.setdefault(t, set()).add(cid)
    pivots, columns = [], []
    while live:
        while True:
            if not heap:
                raise AssertionError("live columns but no heap candidates")
            val, _, cid, t = heapq.heappop(heap)
            pivot = live.get(cid, {}).get(t)
            if pivot is not None and pivot.ord() == val:
                break
        if val >= precision - GUARD_BAND:
            raise PrecisionExhaustedError(
                f"pivot valuation {val} within {GUARD_BAND} of precision {precision}")
        pivot_col = live.pop(cid)
        pivots.append((t, val))
        columns.append(WedgeVector(nonzero[0].n, pivot_col))
        ops = LaurentOps(pivot.field)
        # a monomial pivot is inverted exactly; any other, pi^val * unit, scales
        # each column it meets by its unit (fraction-free): module and valuations stay
        unit = pivot.shift(-val) if len(pivot.coeffs) > 1 else None
        inv = None  # computed once a live column holds the pivot row
        rest = [t2 for t2 in pivot_col if t2 != t]
        for cid2 in sorted(incidence.pop(t, ())):
            # incidence also lists columns that have since lost t or left
            col2 = live.get(cid2)
            if col2 is None or t not in col2:
                continue
            if unit is not None:
                q = -col2[t].shift(-val)
                col2.update({t2: c * unit for t2, c in col2.items()})
            else:
                if inv is None:
                    inv = truncated_inverse(pivot)
                q = -(col2[t] * inv)
            _add_multiple(ops, col2, q, pivot_col)
            for t2 in rest:
                c = col2.get(t2)
                if c is not None:
                    incidence[t2].add(cid2)
                    heapq.heappush(heap, (c.ord(), lex[t2], cid2, t2))
            # _add_multiple cancels the pivot row exactly
            if not col2:
                del live[cid2]
    g = nonzero[-1]
    return DVRTriangularBasis(g.n, g.degree(), next(iter(g.terms.values())).field,
                              tuple(pivots), tuple(columns))


# ---------------------------------------------------------------------------
# Reduction mod pi and residue spans


@frozen
class ResidueBasis:
    """k-basis of the image of a saturated lattice in the standard lattice
    mod pi; inherits the triangular pivot structure."""

    n: int
    degree: int
    field: object
    vectors: tuple
    pivots: tuple

    def __len__(self):
        return len(self.vectors)

    def to_json(self):
        return [{"pivot": IndexSet(self.n, p).to_json(),
                 "terms": terms_to_json(self.n, vec, self.field.element_to_json)}
                for p, vec in zip(self.pivots, self.vectors)]


def reduce_mod_pi(echelon: DVRTriangularBasis) -> ResidueBasis:
    """Reduction pi -> 0 of each saturated column pi^(-v) c, read off the
    echelon column c as its pi^v coefficients, v the pivot valuation.  c
    reaches v at its pivot, so no residue vector vanishes, and the distinct
    pivots keep them independent."""
    vectors = []
    for (_, val), col in zip(echelon.pivots, echelon.columns):
        vec = {}
        for t, c in col.terms.items():
            if c.ord() < val:
                raise AssertionError("pivot does not attain the column minimum")
            if (r := c.coeffs.get(val)) is not None:
                vec[t] = r
        vectors.append(vec)
    return ResidueBasis(echelon.n, echelon.degree, echelon.field, tuple(vectors),
                        tuple(t for t, _ in echelon.pivots))


def gauss_jordan(field, rows) -> dict:
    """Reduced row echelon form of sparse k-vectors keyed by anything
    hashable (index-set masks, column numbers), built one row at a time:
    each row is reduced against the rows so far, takes the first key of
    what is left as its pivot, is scaled to 1 there, and clears that pivot
    from the earlier rows.  Returns {pivot: row} in input order; zero rows
    drop out."""
    reduced = {}
    holders = {}  # key -> pivots of the reduced rows that had an entry there
    for vec in rows:
        row = {t: c for t, c in vec.items() if not field.is_zero(c)}
        # reduced rows vanish at each other's pivots: one subtraction each
        for p in [t for t in row if t in reduced]:
            _add_multiple(field, row, field.neg(row[p]), reduced[p])
        if not row:
            continue
        p = next(iter(row))
        inv = field.inv(row[p])
        row = {t: field.mul(c, inv) for t, c in row.items()}
        for q in holders.pop(p, ()):
            prow = reduced[q]
            if p in prow:  # p may have cancelled there since q was recorded
                _add_multiple(field, prow, field.neg(prow[p]), row)
                for t in row:
                    holders.setdefault(t, set()).add(q)
        reduced[p] = row
        for t in row:
            holders.setdefault(t, set()).add(p)
    return reduced


def residue_rank(field, vectors: list) -> int:
    """Rank of a family of sparse k-coefficient vectors."""
    return len(gauss_jordan(field, vectors))


# ---------------------------------------------------------------------------
# Annihilators and membership over coefficient rings


@frozen
class AnnihilatorSet:
    """k-linear functionals cutting out the span of a residue basis inside
    the full coordinate space of its wedge degree.  A coefficient vector
    over any k-algebra R lies in R tensor (the span) iff every tracked
    functional vanishes and every coordinate off the tracked support
    vanishes; this is sound because the span is a k-rational direct summand
    and scalar extension of free modules is exact.
    """

    n: int
    degree: int
    field: object
    support: tuple
    functionals: tuple
    span_rank: int

    @cached_property
    def support_set(self) -> frozenset:
        return frozenset(self.support)

    @property
    def coordinate_dim(self) -> int:
        return comb(2 * self.n, self.degree)

    @property
    def functional_count(self) -> int:
        """On-support kernel functionals plus one coordinate functional per
        off-support coordinate (rank-nullity over the full space)."""
        return len(self.functionals) + self.coordinate_dim - len(self.support)


def annihilators(rb: ResidueBasis, lex: dict = None) -> AnnihilatorSet:
    """Kernel functionals of the residue span, read off its reduced row
    echelon form: one per non-pivot coordinate t of the support, with 1 at
    t and minus the t-entry of each reduced row at that row's pivot; lex
    as for pi_adic_column_echelon, over the support."""
    f = rb.field
    # A residue vector holds no earlier pivot, so with its own pivot moved
    # to the front it keeps that pivot through the Gauss-Jordan step.
    reduced = gauss_jordan(f, ({p: vec[p], **vec}
                               for p, vec in zip(rb.pivots, rb.vectors)))
    if tuple(reduced) != rb.pivots:
        raise AssertionError("residue basis is not triangular in its pivots")
    functionals = {}
    for p, row in reduced.items():
        for t, c in row.items():
            if t not in reduced:
                functionals.setdefault(t, {t: f.one})[p] = f.neg(c)
    support = sorted({t for row in reduced.values() for t in row},
                     key=lex_key if lex is None else lex.__getitem__)
    return AnnihilatorSet(rb.n, rb.degree, f, tuple(support),
                          tuple(functionals[t] for t in support if t not in reduced),
                          len(reduced))


@frozen
class MembershipResult:
    ok: bool
    witness: str = None
    value: object = None


def functional_evaluations(ann: AnnihilatorSet, terms: dict, ring):
    """Each tracked kernel functional of ann evaluated on a vector over R
    ({mask: coefficient}), as (label, value) pairs in order."""
    for idx, phi in enumerate(ann.functionals):
        total = ring.zero
        for t, coef in phi.items():
            if (c := terms.get(t)) is not None:
                total = ring.add(total, ring.mul(ring.from_base(coef), c))
        yield (f"functional[{idx}]", total)


# ---------------------------------------------------------------------------
# One lattice, one weight block at a time


def _slot_weight(n: int, mask: int) -> tuple:
    """The slot weight of S, |S ∩ {i, n+i}| for each slot i, as the pair
    (slots S meets twice, slots S meets once) of masks over the slots."""
    low, high = mask & ((1 << n) - 1), mask >> n
    return low & high, low ^ high


def _weight_masks(n: int, twos: int, ones: int) -> list:
    """The masks of one slot weight: both members of each slot in twos, one
    of the two members of each slot in ones."""
    out = [twos | twos << n]
    while ones:
        bit = ones & -ones
        ones ^= bit
        out = [m | b for m in out for b in (bit, bit << n)]
    return out


class BlockLattice:
    """The lattice of one generator family, built one weight block at a
    time.  The family is its masks of one wedge degree and its pairing
    sign eps: spin pairs f_S + eps * sgn(sigma_S) * f_{S-perp} over every
    mask of size n (masks None: listed only to merge every block); refined
    pairs the g-frame wedges the same way over the type-(r, s) masks with
    eps = signature_eps(s); kl takes the unpaired g_S over the type-bounded
    masks of size l (eps None).

    A block is the index sets of slot weight w, with those of 2 - reverse(w),
    the weight of S-perp, when the family is paired; its generators are
    those of the family masks in it, so a block without one is empty and
    its coordinates are off the support.  Every frame vector lies in one
    slot, so each generator lies in the block of its set (one that does not
    raises ValueError), the lattice is the direct sum of its blocks, and a
    block is reduced on its own the first time a mask of it is asked for;
    only its annihilators are kept, under its slot weights (w and, paired,
    that of S-perp: none per mask), and `generators` counts its generators.

    membership(terms, ring) builds blocks only up to a vector's witness:
    support_set is the union of the built blocks' supports, and an unbuilt
    block's coordinates are zero, in every span and off its functionals.
    whole() merges the family's blocks into the echelon that the global
    pipeline, pi_adic_column_echelon of every generator of the family,
    builds, column for column; its saturated() columns are the lattice.
    """

    def __init__(self, frame, degree: int, masks, eps, precision: int):
        if eps not in (1, -1, None):
            raise ValueError("the pairing sign eps is +1, -1 or None (unpaired)")
        self.frame, self.degree, self.eps = frame, degree, eps
        self.n, self.precision = frame.n, precision
        self.masks = masks
        self._family = None if masks is None else frozenset(masks)
        self.generators = 0
        self.support_set = set()
        self._block_of = {}  # slot weight -> annihilators of its block, once built
        self._functional_blocks = []  # the built blocks' annihilators with functionals

    def _block_weights(self, mask: int) -> list:
        """The slot weights of the block holding the mask: its own, then
        that of S-perp if the family is paired and the two differ."""
        n, w = self.n, _slot_weight(self.n, mask)
        perp = w if self.eps is None else _slot_weight(n, perp_mask(n, mask))
        return [w] if perp == w else [w, perp]

    def _reduce(self, weights: list) -> tuple:
        """The block of these slot weights reduced: its echelon and the
        annihilators of its residue span, recorded for block()."""
        n, frame = self.n, self.frame
        masks = [m for w in weights for m in _weight_masks(n, *w)]
        lex = {m: lex_key(m) for m in masks}  # the echelon and annihilators share it
        family = sorted((m for m in masks if self._family is None or m in self._family),
                        key=lex.__getitem__)
        gens = ([basis_wedge(frame, m) for m in family] if self.eps is None
                else _paired_generators(frame, family, self.eps))
        for g in gens:
            if not lex.keys() >= g.terms.keys():
                raise ValueError(f"a generator crosses the weight block of "
                                 f"{IndexSet(n, min(masks, key=lex.__getitem__)).members}")
        basis = (pi_adic_column_echelon(gens, self.precision, lex) if gens else
                 DVRTriangularBasis(n, self.degree, frame.field, (), ()))
        ann = annihilators(reduce_mod_pi(basis), lex)
        if weights[0] not in self._block_of:
            self._block_of.update(dict.fromkeys(weights, ann))
            self.support_set.update(ann.support)
            if ann.functionals:
                self._functional_blocks.append(ann)
            self.generators += len(gens)
        return basis, ann

    def block(self, mask: int) -> AnnihilatorSet:
        """The annihilators of the block holding the mask, built on first touch."""
        found = self._block_of.get(_slot_weight(self.n, mask))
        return self._reduce(self._block_weights(mask))[1] if found is None else found

    def _family_blocks(self):
        """Each block holding a family mask, once, as its first family mask
        and its slot weights, in the order of the masks; for spin (masks
        None) they are one per slot weight, twos | twos << n | ones."""
        n, seen, slots = self.n, set(), [1 << i for i in range(self.n)]
        masks = self.masks if self.masks is not None else (
            sum(twos) * ((1 << n) + 1) + sum(ones) for k in range(self.degree // 2 + 1)
            for twos in combinations(slots, k)
            for ones in combinations([b for b in slots if b not in twos],
                                     self.degree - 2 * k))
        for m in masks:
            if _slot_weight(n, m) not in seen:
                seen.update(weights := self._block_weights(m))
                yield m, weights

    def membership(self, terms, ring) -> MembershipResult:
        """Whether a vector with these terms ({mask: coefficient}) over ring
        lies in ring tensor the residue span.  On failure, the witness of the
        merged annihilators: the lex-least nonzero coordinate off the support,
        else the first failing functional (the merged set is built only then,
        which numbers it among all)."""
        index, n, support = self._block_of, self.n, self.support_set
        # one pass: the lex-least nonzero t off the built blocks' supports,
        # and the nonzero t of unbuilt blocks before it; lex order (t
        # precedes u iff t holds the lowest bit of t ^ u) is tested first
        least, unbuilt = None, []
        for t, c in terms.items():
            if t in support or least is not None and not (d := t ^ least) & -d & t:
                continue
            if _slot_weight(n, t) not in index:
                unbuilt.append(t)
            elif not ring.is_zero(c):
                least = t
        unbuilt = [t for t in unbuilt if (least is None or (d := t ^ least) & -d & t)
                   and not ring.is_zero(terms[t])]
        if unbuilt:  # walked in lex order; the lex-least (bit test) is often the witness
            first = unbuilt[0]
            for t in unbuilt:
                if (d := t ^ first) & -d & t:
                    first = t
            walk = ([first] if first not in self.block(first).support_set
                    else sorted(unbuilt, key=lex_key))
            least = next((t for t in walk if t not in self.block(t).support_set), least)
        if least is not None:
            return MembershipResult(False, f"coordinate{IndexSet(n, least).members}",
                                    terms[least])
        if any(not ring.is_zero(v) for ann in self._functional_blocks
               for _, v in functional_evaluations(ann, terms, ring)):
            # every nonzero coordinate is on the support: a functional decides
            return next(MembershipResult(False, label, v) for label, v
                        in functional_evaluations(self.annihilators, terms, ring)
                        if not ring.is_zero(v))
        return MembershipResult(True)

    @cached_property
    def annihilators(self) -> AnnihilatorSet:
        """The annihilators of every block, merged into those of the whole
        residue span: the supports and the functionals in lex order, each
        functional keyed by its first entry, the non-pivot support
        coordinate it belongs to (as annihilators orders them)."""
        blocks = [self.block(m) for m, _ in self._family_blocks()]
        functionals = sorted((phi for ann in blocks for phi in ann.functionals),
                             key=lambda phi: lex_key(next(iter(phi))))
        return AnnihilatorSet(self.n, self.degree, self.frame.field,
                              tuple(sorted(self.support_set, key=lex_key)),
                              tuple(functionals),
                              sum(ann.span_rank for ann in blocks))

    @property
    def span_rank(self) -> int:
        return self.annihilators.span_rank

    def whole(self) -> tuple:
        """The family's blocks reduced again and merged, not kept: the
        echelon, residue basis and annihilators that the global pipeline
        builds.  The block echelons are interleaved by (pivot
        valuation, lex order of the pivot), the order in which the global
        echelon takes their pivots, since no column holds entries of two
        blocks."""
        blocks = [self._reduce(weights)[0] for _, weights in self._family_blocks()]
        merged = list(heapq.merge(
            *(zip(b.pivots, b.columns) for b in blocks),
            key=lambda pivot_column: (pivot_column[0][1], lex_key(pivot_column[0][0]))))
        basis = DVRTriangularBasis(self.n, self.degree, self.frame.field,
                                   tuple(p for p, _ in merged),
                                   tuple(c for _, c in merged))
        return basis, reduce_mod_pi(basis), self.annihilators
