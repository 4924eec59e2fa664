"""Brute-force oracles and reference arithmetic shared by the tests; the
package does not use them."""

from ramwedge.chart import DEFAULT_P, DEFAULT_PRECISION
from ramwedge.drivers import Certificate, check_point_implications, sample_chart_points
from ramwedge.errors import PrecisionExhaustedError
from ramwedge.exterior import (Frame, WedgeVector, _add_multiple, basis_wedge,
                               frame_in_e, wedge_columns)
from ramwedge.fields import PrimeField
from ramwedge.indexsets import (IndexSet, bounded_type_masks, index_masks, lex_key,
                                type_masks)
from ramwedge.lattices import (GUARD_BAND, DVRTriangularBasis, ResidueBasis,
                               _paired_generators, residue_rank, signature_eps)
from ramwedge.rings import DualNumbers, FieldRing, PolyRing
from ramwedge.scalars import LaurentOps, PiLaurent


def spanning_set(kind, n, field, eps=None, r=None, s=None, l=None):
    """Every generator of a family (see lattices.BlockLattice) built whole:
    the global pipeline's input, the block lattice's oracle."""
    if kind == "spin":
        return _paired_generators(frame_in_e("f_split", n, field), index_masks(n), eps)
    gfr = frame_in_e("g_split", n, field)
    if kind == "refined":
        return _paired_generators(gfr, type_masks(n, r, s), signature_eps(s))
    return [basis_wedge(gfr, m) for m in bounded_type_masks(n, l, r, s)]


def apply_wedge_power_operator(op_cols: tuple, degree: int, w: WedgeVector,
                               ring) -> WedgeVector:
    """Induced action of the degree-th wedge power of an operator on V, term
    by term: each e_S goes to the wedge of the operator's columns at S.  The
    reference for verify operator-identities, which folds the images of the
    frame vectors of a decomposable wedge instead."""
    if w.terms and w.degree() != degree:
        raise ValueError(f"vector has degree {w.degree()}, expected {degree}")
    out = {}
    for s, c in w.terms.items():
        images = [op_cols[p] for p in range(2 * w.n) if s >> p & 1]
        _add_multiple(ring, out, c, wedge_columns(w.n, images, ring).terms)
    return WedgeVector(w.n, out)


def wedge_columns_masks_per_term(columns, ring) -> dict:
    """The column fold one ring element at a time, with the ring's own mul,
    add and is_zero: the reference for exterior.wedge_columns_masks, which
    folds the k-basis expansions of the coefficients over the base field."""
    if not all(columns):
        return {}
    acc = {0: ring.one}
    for col in columns:
        entries = [(1 << (pos - 1), pos, x, ring.neg(x)) for pos, x in col.items()]
        nxt = {}
        for mask, c in acc.items():
            for bit, pos, x, neg_x in entries:
                if mask & bit:
                    continue
                term = ring.mul(c, neg_x if (mask >> pos).bit_count() & 1 else x)
                key = mask | bit
                if key in nxt:
                    merged = ring.add(nxt[key], term)
                    if ring.is_zero(merged):
                        del nxt[key]
                    else:
                        nxt[key] = merged
                elif not ring.is_zero(term):
                    nxt[key] = term
        acc = nxt
    return acc


def lattice_contains(pivots, columns, w: WedgeVector, precision: int) -> bool:
    """Whether w lies in the span over the valuation ring of the columns of
    a triangular basis, each with its pivot in pivots (the (mask,
    valuation) pairs of a DVRTriangularBasis; the valuation is not read):
    the echelon columns give the module they span, the saturated() columns
    the lattice.  By eliminating w against them at the given precision:
    with series inverses cut there, so only the remainder's terms below it
    decide.  The reference for verify refined-basis, which compares the
    rank and pivot-valuation sum of two echelons instead."""
    rem = dict(w.terms)
    for (t, _), col in zip(pivots, columns):
        c = rem.get(t)
        if c is None or c.is_zero:
            rem.pop(t, None)
            continue
        a = c * series_inverse(col.terms[t], precision)
        if a.ord() < 0:
            return False
        _add_multiple(LaurentOps(a.field), rem, -a, col.terms)
        rem.pop(t, None)
    leftovers = [c for c in (cut(c, precision) for c in rem.values())
                 if not c.is_zero]
    if not leftovers:
        return True
    if all(c.ord() >= precision - GUARD_BAND for c in leftovers):
        raise PrecisionExhaustedError("membership remainder falls in the guard band")
    return False


def residue_spans_equal(field, vecs_a: list, vecs_b: list) -> bool:
    """Whether two families of sparse k-vectors span one space, by three
    ranks.  The reference for verify refined-basis, which decides the
    listed families by their rank and their membership."""
    ra = residue_rank(field, vecs_a)
    rb = residue_rank(field, vecs_b)
    return ra == rb == residue_rank(field, list(vecs_a) + list(vecs_b))


def first_nonzero_evaluation(ann, terms: dict, ring) -> tuple:
    """(ok, witness, value) of a coefficient vector over R against an
    annihilator set, by sorting: its off-support coordinates in the order
    of their member tuples, then the tracked functionals in order, and the
    first nonzero evaluation fails.  The reference for
    BlockLattice.membership, which finds the coordinate in one pass."""
    support = set(ann.support)
    evaluations = [(f"coordinate{IndexSet(ann.n, t).members}", terms[t])
                   for t in sorted(terms, key=lambda t: IndexSet(ann.n, t).members)
                   if t not in support]
    for idx, phi in enumerate(ann.functionals):
        total = ring.zero
        for t, coef in phi.items():
            if t in terms:
                total = ring.add(total, ring.mul(ring.from_base(coef), terms[t]))
        evaluations.append((f"functional[{idx}]", total))
    return next(((False, label, value) for label, value in evaluations
                 if not ring.is_zero(value)), (True, None, None))


def det(ring, m, rows, cols):
    """Determinant of the submatrix of m on the given rows and columns, by
    cofactor expansion along the first row (sparse entries prune the
    recursion).  The reference for the Berkowitz characteristic polynomial
    (test_chart.py) and for ranks (test_lattices.py); no checker calls it."""
    if not rows:
        return ring.one
    i = rows[0]
    rest = rows[1:]
    acc = ring.zero
    for pos, j in enumerate(cols):
        c = m[i][j]
        if ring.is_zero(c):
            continue
        sub = det(ring, m, rest, cols[:pos] + cols[pos + 1:])
        term = ring.mul(c, sub)
        if pos % 2:
            term = ring.neg(term)
        acc = ring.add(acc, term)
    return acc


def cut(a, precision: int):
    """The terms of a PiLaurent below pi^precision."""
    return PiLaurent(a.field, {e: c for e, c in a.coeffs.items() if e < precision})


def series_inverse(a, precision: int):
    """Truncated inverse of a nonzero PiLaurent a = c pi^v (1 + t), ord t > 0:
    c^-1 pi^-v times the geometric series 1 - t + t^2 - ... with every term
    cut below pi^precision (a relative precision), as an exact PiLaurent.
    The reference for a truncated inverse; in the package,
    scalars.truncated_inverse inverts monomials only, and the echelon
    scales by a non-monomial pivot's unit part."""
    f = a.field
    v = a.ord()
    lead_inv = f.inv(a.coeffs[v])
    t = cut(a.shift(-v) * PiLaurent.const(f, lead_inv) - PiLaurent.one(f), precision)
    acc = term = cut(PiLaurent.one(f), precision)
    while not term.is_zero:
        term = cut(-(term * t), precision)
        acc = acc + term
    return acc.shift(-v) * PiLaurent.const(f, lead_inv)


def series_echelon(generators: list, precision: int) -> DVRTriangularBasis:
    """Triangular basis of the module that the generators (e-basis wedge
    vectors of one degree) span over the valuation ring, by the column
    reduction that divides by each pivot through its series inverse and
    keeps every entry modulo pi^precision.  Pivots as in
    pi_adic_column_echelon: the least valuation, then the
    lexicographically least index set, then the earliest column.  The
    truncating reference for its fraction-free step."""
    g = generators[0]
    ops = LaurentOps(next(iter(g.terms.values())).field)
    live = [dict(w.terms) for w in generators if w.terms]
    pivots, columns = [], []
    while live:
        val, _, i, t = min((c.ord(), lex_key(t), i, t)
                           for i, col in enumerate(live) for t, c in col.items())
        pivot_col = live.pop(i)
        pivots.append((t, val))
        columns.append(WedgeVector(g.n, pivot_col))
        inv = series_inverse(pivot_col[t], precision)
        for k, col in enumerate(live):
            if t in col:
                _add_multiple(ops, col, -(col[t] * inv), pivot_col)
                cuts = {t2: cut(c, precision) for t2, c in col.items() if t2 != t}
                live[k] = {t2: c for t2, c in cuts.items() if not c.is_zero}
        live = [col for col in live if col]
    return DVRTriangularBasis(g.n, g.degree(), ops.field, tuple(pivots), tuple(columns))


def saturated_residues(echelon) -> ResidueBasis:
    """The residue basis of an echelon's lattice as the global pipeline built
    it before reduce_mod_pi read the echelon: each column shifted by
    pi^-v, v its pivot valuation, to minimum valuation 0, then the pi^0
    coefficient of each entry, zeros dropped.  The reference for
    reduce_mod_pi, which reads the pi^v coefficients of the unshifted
    column."""
    f = echelon.field
    vectors = []
    for (_, val), col in zip(echelon.pivots, echelon.columns):
        scaled = {t: c.shift(-val) for t, c in col.terms.items()}
        if any(c.ord() < 0 for c in scaled.values()):
            raise AssertionError("pivot does not attain the column minimum")
        residues = {t: c.coeffs.get(0, f.zero) for t, c in scaled.items()}
        vectors.append({t: r for t, r in residues.items() if not f.is_zero(r)})
    return ResidueBasis(echelon.n, echelon.degree, f, tuple(vectors),
                        tuple(t for t, _ in echelon.pivots))


class TuplePolyRing:
    """Polynomials keyed by exponent tuples, the arithmetic PolyRing had
    before its monomials were packed into ints: the reference for the
    packed keys (test_rings.py).  Elements are {exponent tuple: coefficient}
    maps over the same field."""

    def __init__(self, field, nvars: int):
        self.field = field
        self.nvars = nvars

    def add(self, a, b):
        f = self.field
        out = dict(a)
        for m, c in b.items():
            s = f.add(out.get(m, f.zero), c)
            if f.is_zero(s):
                out.pop(m, None)
            else:
                out[m] = s
        return out

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        f = self.field
        out = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = tuple(x + y for x, y in zip(m1, m2))
                s = f.add(out.get(m, f.zero), f.mul(c1, c2))
                if f.is_zero(s):
                    out.pop(m, None)
                else:
                    out[m] = s
        return out

    def neg(self, a):
        return {m: self.field.neg(c) for m, c in a.items()}

    def is_homogeneous_linear(self, a) -> bool:
        return bool(a) and all(sum(m) == 1 for m in a)

    def linear_row(self, a) -> list:
        row = [self.field.zero] * self.nvars
        for m, c in a.items():
            row[m.index(1)] = c
        return row

    def element_to_json(self, a):
        return [{"coeff": self.field.element_to_json(c), "exponents": list(m)}
                for m, c in sorted(a.items())]

    def element_from_json(self, obj):
        f = self.field
        out = {}
        for term in obj:
            m = tuple(term["exponents"])
            c = f.element_from_json(term["coeff"])
            if not f.is_zero(c):
                out[m] = f.add(out.get(m, f.zero), c)
        return {m: c for m, c in out.items() if not f.is_zero(c)}


# ---------------------------------------------------------------------------
# Ambient coordinates: the reference for the e-coordinate frames and form.
# Ambient position i (1 <= i <= n) holds e_i x 1 and position n+i holds
# (pi x 1) e_i, so "pi x 1" has the same matrix as in e-coordinates; any
# pi^(-1) e_j x 1 is stored as pi^(-2) times position n+j.


def ambient_frame(kind, n, field):
    """The frames in ambient coordinates: "lambda" is the basis of the
    standard lattice Lambda_m (m = floor(n/2)) that defines the e-basis;
    "chart" (odd n), "g_split" and "f_split" are written in the paper's
    notation, vector by vector."""
    m = n // 2
    one = PiLaurent.one(field)
    half = field.inv(field.of_int(2))
    inv_pi = PiLaurent.monomial(field, -1)
    minus_one = field.neg(field.one)

    def pi_pow(j, a, scale=field.one):
        """(pi x 1)^a e_j: even a lands on position j, odd a on n+j."""
        if a % 2 == 0:
            return {j: PiLaurent.make(field, {a: scale})}
        return {n + j: PiLaurent.make(field, {a - 1: scale})}

    def g_pair(j):
        return ({j: one, n + j: -inv_pi},
                {j: PiLaurent.const(field, half),
                 n + j: PiLaurent.monomial(field, -1, half)})

    if kind == "lambda":
        vecs = ([pi_pow(j, -1) for j in range(1, m + 1)]
                + [pi_pow(j, 0) for j in range(m + 1, n + 1)]
                + [pi_pow(j, 0) for j in range(1, m + 1)]
                + [pi_pow(j, 1) for j in range(m + 1, n + 1)])
    elif kind == "chart":
        upper = range(m + 2, n + 1)
        vecs = ([pi_pow(j, 0) for j in upper] + [pi_pow(j, -1) for j in range(1, m + 1)]
                + [pi_pow(m + 1, 0)] + [pi_pow(j, 1) for j in upper]
                + [pi_pow(j, 0) for j in range(1, m + 1)] + [pi_pow(m + 1, 1)])
    elif kind == "g_split":
        pairs = [g_pair(j) for j in range(1, n + 1)]
        vecs = [p[0] for p in pairs] + [p[1] for p in pairs]
    elif kind == "f_split":
        odd = n % 2
        upper = range(m + 1 + odd, n + 1)
        minus, plus = g_pair(m + 1)
        vecs = ([pi_pow(j, -1, minus_one) for j in range(1, m + 1)]
                + [minus] * odd + [{j: one} for j in upper]
                + [{j: one} for j in range(1, m + 1)]
                + [plus] * odd + [{n + j: one} for j in upper])
    else:
        raise ValueError(f"unknown frame kind {kind!r}")
    return Frame(kind, n, field, tuple(vecs))


def in_lattice_basis(frame):
    """An ambient frame rewritten in the basis of ambient_frame("lambda"):
    ambient position a is c times the lattice vector p holding it, for a
    monomial c, so an ambient coordinate x at a becomes x / c at p."""
    field, n = frame.field, frame.n
    relabel = {}
    for p, vec in enumerate(ambient_frame("lambda", n, field).vectors, 1):
        (amb, c), = vec.items()
        (exp, cf), = c.coeffs.items()
        relabel[amb] = (p, PiLaurent.make(field, {-exp: field.inv(cf)}))
    vectors = tuple({relabel[a][0]: x * relabel[a][1] for a, x in vec.items()}
                    for vec in frame.vectors)
    return Frame(frame.kind, n, field, vectors)


def ambient_form_eval(kind, n, v, w, field):
    """The symmetric or alternating form on ambient-coordinate vectors.  On
    basis positions a, b:

      symmetric:   (a, b) = 1 if a, b <= n and a + b = n + 1;
                   -pi^2 if a, b > n and a + b = 3n + 1; else 0.
      alternating: <a, b> = 1 if a <= n < b and b - n = n + 1 - a;
                   -1 if b <= n < a and a - n = n + 1 - b; else 0.
    """
    total = PiLaurent.zero(field)
    pi_sq = PiLaurent.monomial(field, 2)
    for a, ca in v.items():
        for b, cb in w.items():
            if kind == "symmetric":
                if a <= n and b <= n and a + b == n + 1:
                    total = total + ca * cb
                elif a > n and b > n and a + b == 3 * n + 1:
                    total = total - ca * cb * pi_sq
            elif kind == "alternating":
                if a <= n and b > n and b - n == n + 1 - a:
                    total = total + ca * cb
                elif a > n and b <= n and a - n == n + 1 - b:
                    total = total - ca * cb
            else:
                raise ValueError(f"unknown form {kind!r}")
    return total


def verify_implications(n: int, p: int = DEFAULT_P, samples: int = 200,
                        seed: int = 0,
                        precision: int = DEFAULT_PRECISION) -> Certificate:
    """The implications of check_point_implications on seeded samples over
    the field, dual and poly(a, b) rings, as a certificate; the CLI runs no
    such driver."""
    field = PrimeField(p)
    rings = [FieldRing(field), DualNumbers(field), PolyRing(field, ("a", "b"))]
    violations = []
    refined_passes = 0
    checked = 0
    for ring in rings:
        for pt in sample_chart_points(n, ring, samples, seed):
            checked += 1
            bad, report = check_point_implications(pt, precision)
            if report.conditions["refined"].passed:
                refined_passes += 1
            for msg in bad:
                violations.append({"ring": ring.kind, "message": msg})
    verdict = "pass" if not violations else "fail"
    return Certificate("implications",
                       {"n": n, "p": p, "samples": samples, "seed": seed},
                       verdict,
                       {"points_checked": checked,
                        "refined_passes": refined_passes,
                        "violations": violations})
