"""Lattices over the valuation ring inside wedge powers: spanning sets for
the half-spin, signature-refined, and lower-degree eigenspace subspaces;
intersection with the standard lattice by pi-adic column reduction;
reduction mod pi; and annihilator-based membership over coefficient rings.

All wedge coordinates here are in the e-basis of the standard lattice,
where lattice membership means every coefficient has valuation >= 0.  The
column reduction is unimodular (multipliers are integral because pivots are
chosen with globally minimal valuation), so the reduced columns span the
same module as the input; the final scaling step saturates each column to
valuation 0 and yields a basis of (F-span of the input) intersected with
the standard lattice.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from math import comb

from .errors import PrecisionExhaustedError
from .exterior import (WedgeVector, basis_wedge, frame_in_e, wedge_add,
                       wedge_scale)
from .indexsets import IndexSet, all_index_sets, sigma_sign_closed
from .scalars import LaurentOps, PiLaurent, truncated_inverse

GUARD_BAND = 4


# ---------------------------------------------------------------------------
# Spanning sets


def _paired_generators(frame, sets, eps: int):
    """Nonzero elements w_S + eps * sgn(sigma_S) * w_{S-perp} for S running
    over the given sets, one representative per {S, S-perp} pair."""
    field = frame.field
    ring = LaurentOps(field)
    wanted = set(sets)
    chosen = [s for s in sets if s.perp().sort_key() >= s.sort_key()]
    needed = set(chosen) | {s.perp() for s in chosen}
    cache = {t: basis_wedge(frame, t, ring) for t in needed}
    gens = []
    for s in chosen:
        sp = s.perp()
        if sp not in wanted:
            raise ValueError("perp partner escapes the requested family")
        partner = wedge_scale(cache[sp], PiLaurent.const(field, field.of_int(eps)), ring)
        if sigma_sign_closed(s) < 0:
            partner = wedge_scale(partner, PiLaurent.const(field, field.neg(field.one)), ring)
        w = wedge_add(cache[s], partner, ring)
        if not w.is_zero:
            gens.append(w)
    return gens


def spanning_set(kind: str, n: int, field, eps: int = None, r: int = None,
                 s: int = None, l: int = None) -> list:
    """F-spanning set, in e-basis coordinates, of one of:

      spin:    the eps-eigenspace of the half-spin involution
               (generators f_S + eps*sgn(sigma_S)*f_{S-perp});
      refined: its intersection with the signature-(r, s) summand
               (generators g_S + eps*sgn(sigma_S)*g_{S-perp}, S of type (r, s));
      kl:      the degree-l sum of eigenspace wedges with at most r factors
               from the -pi eigenspace and at most s from the +pi one
               (generators g_S, |S| = l, componentwise type bounded by (r, s)).
    """
    if kind == "spin":
        if eps not in (1, -1):
            raise ValueError("spin requires eps in {+1, -1}")
        return _paired_generators(frame_in_e("f_split", n, field),
                                  list(all_index_sets(n)), eps)
    if kind == "refined":
        if eps not in (1, -1) or r is None or s is None or r + s != n:
            raise ValueError("refined requires eps and a signature r + s = n")
        gfr = frame_in_e("g_split", n, field)
        sets = [t for t in all_index_sets(n) if t.type_pair() == (r, s)]
        return _paired_generators(gfr, sets, eps)
    if kind == "kl":
        if l is None or not 1 <= l <= n or r is None or s is None or r + s != n:
            raise ValueError("kl requires 1 <= l <= n and a signature r + s = n")
        ring = LaurentOps(field)
        gfr = frame_in_e("g_split", n, field)
        gens = []
        for t in all_index_sets(n, card=l):
            j, k = t.type_pair()
            if j <= r and k <= s:
                gens.append(basis_wedge(gfr, t, ring))
        return gens
    raise ValueError(f"unknown spanning kind {kind!r}")


# ---------------------------------------------------------------------------
# pi-adic column echelon over the valuation ring


def pi_adic_column_echelon(columns: list, precision: int):
    """Unimodular column reduction with global minimum-valuation pivots.

    columns: sparse {IndexSet: PiLaurent} maps (consumed).
    Returns [(pivot_set, pivot_valuation, column)] in processing order; each
    pivot row is eliminated from every later column.  Ties break to the
    lexicographically least index set, then the earliest column.  Raises
    PrecisionExhaustedError when a pivot valuation enters the guard band
    below the working precision.
    """
    live = {}
    heap = []
    incidence = {}
    for cid, col in enumerate(columns):
        col = {t: c for t, c in col.items() if not c.is_zero}
        if not col:
            continue
        live[cid] = col
        for t, c in col.items():
            heapq.heappush(heap, (c.ord(), t.sort_key(), cid, t))
            incidence.setdefault(t, set()).add(cid)
    processed = []
    while live:
        while True:
            if not heap:
                raise AssertionError("live columns but no heap candidates")
            val, _, cid, t = heapq.heappop(heap)
            col = live.get(cid)
            if col is None:
                continue
            c = col.get(t)
            if c is None or c.ord() != val:
                continue
            break
        if val >= precision - GUARD_BAND:
            raise PrecisionExhaustedError(
                f"pivot valuation {val} within {GUARD_BAND} of precision {precision}")
        pivot_col = live.pop(cid)
        for t2 in pivot_col:
            incidence[t2].discard(cid)
        pivot = pivot_col[t]
        processed.append((t, val, pivot_col))
        inv = truncated_inverse(pivot, precision)
        for cid2 in sorted(incidence.get(t, set())):
            col2 = live[cid2]
            q = col2[t] * inv
            if not q.is_zero:
                for t2, p2 in pivot_col.items():
                    delta = q * p2
                    cur = col2.get(t2)
                    new = -delta if cur is None else cur - delta
                    if new.is_zero:
                        if cur is not None:
                            del col2[t2]
                            incidence[t2].discard(cid2)
                    else:
                        col2[t2] = new
                        incidence.setdefault(t2, set()).add(cid2)
                        heapq.heappush(heap, (new.ord(), t2.sort_key(), cid2, t2))
            # the pivot row cancels exactly at working precision
            if t in col2:
                del col2[t]
                incidence[t].discard(cid2)
            if not col2:
                del live[cid2]
    return processed


@dataclass(frozen=True)
class DVRTriangularBasis:
    """Basis of a saturated lattice: columns scaled to minimum valuation 0,
    pairwise distinct pivot index sets (recorded with their pre-scaling
    valuations), triangular in processing order."""

    n: int
    degree: int
    field: object
    precision: int
    pivots: tuple
    columns: tuple

    @property
    def rank(self) -> int:
        return len(self.columns)

    def to_json(self):
        return {
            "columns": [
                {"pivot": piv.to_json(), "pivotValuation": val,
                 "terms": col.to_json()["terms"]}
                for (piv, val), col in zip(self.pivots, self.columns)
            ],
        }


def echelon_lattice_basis(generators: list, precision: int) -> DVRTriangularBasis:
    """Unimodular echelon form of the module spanned by the generators over
    the valuation ring, without saturation scaling.  Generators must be
    e-basis wedge vectors of a common degree; zero and redundant generators
    are tolerated."""
    if not generators:
        raise ValueError("no generators")
    n = generators[0].n
    degree = None
    field = None
    cols = []
    for g in generators:
        if g.is_zero:
            continue
        d = g.degree()
        if degree is None:
            degree = d
        elif d != degree:
            raise ValueError("generators of mixed wedge degree")
        field = next(iter(g.terms.values())).field
        cols.append(dict(g.terms))
    if not cols:
        raise ValueError("all generators are zero")
    processed = pi_adic_column_echelon(cols, precision)
    pivots = tuple((t, val) for t, val, _ in processed)
    columns = tuple(WedgeVector(n, col) for _, _, col in processed)
    return DVRTriangularBasis(n, degree, field, precision, pivots, columns)


def intersect_with_standard_lattice(generators: list,
                                    precision: int) -> DVRTriangularBasis:
    """Basis of (F-span of the generators) intersected with the standard
    lattice, at the working precision: the echelon basis with each column
    saturated to minimum valuation 0."""
    echelon = echelon_lattice_basis(generators, precision)
    columns = []
    for (t, val), col in zip(echelon.pivots, echelon.columns):
        if any(c.ord() < val for c in col.terms.values()):
            raise AssertionError("pivot does not attain the column minimum")
        columns.append(WedgeVector(echelon.n, {t2: c.shift(-val)
                                               for t2, c in col.terms.items()}))
    return replace(echelon, columns=tuple(columns))


def lattice_contains(basis: DVRTriangularBasis, w: WedgeVector) -> bool:
    """Whether w lies in the span of the basis columns over the valuation
    ring, decided at the basis precision."""
    rem = dict(w.terms)
    for (t, _), col in zip(basis.pivots, basis.columns):
        c = rem.get(t)
        if c is None or c.is_zero:
            rem.pop(t, None)
            continue
        a = c * truncated_inverse(col.terms[t], basis.precision)
        if a.is_zero:
            continue
        if a.ord() < 0:
            return False
        for t2, p2 in col.terms.items():
            delta = a * p2
            cur = rem.get(t2)
            new = -delta if cur is None else cur - delta
            if new.is_zero:
                rem.pop(t2, None)
            else:
                rem[t2] = new
        rem.pop(t, None)
    leftovers = [c for c in rem.values() if not c.is_zero]
    if not leftovers:
        return True
    if all(c.ord() >= basis.precision - GUARD_BAND for c in leftovers):
        raise PrecisionExhaustedError("membership remainder falls in the guard band")
    return False


def lattices_equal(a: DVRTriangularBasis, b: DVRTriangularBasis) -> bool:
    """Mutual membership of the two column families."""
    return (all(lattice_contains(b, col) for col in a.columns)
            and all(lattice_contains(a, col) for col in b.columns))


# ---------------------------------------------------------------------------
# Reduction mod pi and residue spans


@dataclass(frozen=True)
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
        return [
            {"pivot": p.to_json(),
             "terms": [{"indexSet": t.to_json(),
                        "coefficient": self.field.element_to_json(c)}
                       for t, c in sorted(vec.items(), key=lambda kv: kv[0].sort_key())]}
            for p, vec in zip(self.pivots, self.vectors)
        ]


def reduce_mod_pi(basis: DVRTriangularBasis) -> ResidueBasis:
    """Coefficientwise reduction pi -> 0 of each scaled column.  Columns have
    minimum valuation 0, so no residue vector vanishes, and the distinct
    pivots keep them independent."""
    vectors = []
    pivots = []
    f = basis.field
    for (t, _), col in zip(basis.pivots, basis.columns):
        vec = {}
        for t2, c in col.terms.items():
            r = c.residue()
            if not f.is_zero(r):
                vec[t2] = r
        if vec:
            vectors.append(vec)
            pivots.append(t)
    return ResidueBasis(basis.n, basis.degree, f, tuple(vectors), tuple(pivots))


def residue_rank(field, vectors: list) -> int:
    """Rank of a family of sparse k-coefficient vectors, keyed by anything
    hashable (index sets, column numbers)."""
    rows = [dict(v) for v in vectors if v]
    pivots = {}
    rank = 0
    for row in rows:
        for p, prow in pivots.items():
            c = row.get(p)
            if c is None or field.is_zero(c):
                continue
            for t, v in prow.items():
                s = field.sub(row.get(t, field.zero), field.mul(c, v))
                if field.is_zero(s):
                    row.pop(t, None)
                else:
                    row[t] = s
        row = {t: c for t, c in row.items() if not field.is_zero(c)}
        if not row:
            continue
        p = next(iter(row))
        inv = field.inv(row[p])
        pivots[p] = {t: field.mul(c, inv) for t, c in row.items()}
        rank += 1
    return rank


def residue_spans_equal(field, vecs_a: list, vecs_b: list) -> bool:
    ra = residue_rank(field, vecs_a)
    rb = residue_rank(field, vecs_b)
    return ra == rb == residue_rank(field, list(vecs_a) + list(vecs_b))


# ---------------------------------------------------------------------------
# Annihilators and membership over coefficient rings


@dataclass(frozen=True)
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

    @property
    def coordinate_dim(self) -> int:
        return comb(2 * self.n, self.degree)

    @property
    def functional_count(self) -> int:
        """On-support kernel functionals plus one coordinate functional per
        off-support coordinate (rank-nullity over the full space)."""
        return len(self.functionals) + self.coordinate_dim - len(self.support)


def annihilators(rb: ResidueBasis) -> AnnihilatorSet:
    """Kernel functionals of the residue span, exploiting the triangular
    pivot structure (Gauss-Jordan on the pivot coordinates)."""
    f = rb.field
    rows = []
    for p, vec in zip(rb.pivots, rb.vectors):
        inv = f.inv(vec[p])
        rows.append({t: f.mul(c, inv) for t, c in vec.items()})
    pivot_of = {p: i for i, p in enumerate(rb.pivots)}
    incidence = {}
    for i, row in enumerate(rows):
        for t in row:
            incidence.setdefault(t, set()).add(i)
    for i, p in enumerate(rb.pivots):
        holders = sorted(incidence.get(p, set()) - {i})
        for j in holders:
            row = rows[j]
            c = row.pop(p)
            incidence[p].discard(j)
            for t, v in rows[i].items():
                if t == p:
                    continue
                s = f.sub(row.get(t, f.zero), f.mul(c, v))
                if f.is_zero(s):
                    if t in row:
                        del row[t]
                        incidence[t].discard(j)
                else:
                    row[t] = s
                    incidence.setdefault(t, set()).add(j)
    support = set()
    for row in rows:
        support.update(row)
    support.update(rb.pivots)
    support = tuple(sorted(support, key=IndexSet.sort_key))
    functionals = []
    one = f.one
    for t in support:
        if t in pivot_of:
            continue
        phi = {t: one}
        for i in incidence.get(t, set()):
            phi[rb.pivots[i]] = f.neg(rows[i][t])
        functionals.append(phi)
    return AnnihilatorSet(rb.n, rb.degree, f, support, tuple(functionals), len(rows))


@dataclass(frozen=True)
class MembershipResult:
    ok: bool
    witness: str = None
    value: object = None

    def __bool__(self):
        return self.ok


def annihilator_evaluations(ann: AnnihilatorSet, terms: dict, ring):
    """All functional evaluations against a coefficient vector over R:
    off-support coordinates present in the vector, then the tracked kernel
    functionals.  Yields (label, value) pairs."""
    support = set(ann.support)
    for t, c in sorted(terms.items(), key=lambda kv: kv[0].sort_key()):
        if t not in support:
            yield (f"coordinate{t.members}", c)
    for idx, phi in enumerate(ann.functionals):
        total = ring.zero
        for t, coef in phi.items():
            c = terms.get(t)
            if c is None:
                continue
            total = ring.add(total, ring.mul(ring.from_base(coef), c))
        yield (f"functional[{idx}]", total)


def membership_over_R(w, ann: AnnihilatorSet, ring) -> MembershipResult:
    """Whether an e-basis coefficient vector over R lies in R tensor the
    residue span; on failure reports one nonzero evaluation."""
    terms = w.terms if isinstance(w, WedgeVector) else w
    for label, value in annihilator_evaluations(ann, terms, ring):
        if not ring.is_zero(value):
            return MembershipResult(False, label, value)
    return MembershipResult(True)
