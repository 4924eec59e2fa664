"""The 2n-dimensional ambient space V, its distinguished frames, both
bilinear forms, and sparse exterior algebra on top of them.

Ambient basis convention: position i (1 <= i <= n) holds e_i x 1 and
position n+i holds pi*e_i x 1.  The operator "pi x 1" sends position i to
position n+i and position n+i to pi^2 times position i, so it squares to
the scalar pi^2.  A vector is a sparse {position: PiLaurent} map; any
pi^(-1)*e_j x 1 is stored as pi^(-2) times position n+j, which keeps every
frame coordinate a finite Laurent polynomial.

Frame builders write their vectors in ambient coordinates and check them
there; frame_in_e rewrites a frame in the basis of the standard lattice
frame (e-coordinates) once.  Every wedge is taken of e-coordinate vectors,
so wedge coordinates are e_S coordinates: sparse {IndexSet: coefficient}
maps whose value at S is the minor on rows S taken in increasing row
order, with columns wedged from left to right.  "pi x 1" has the same
matrix in e-coordinates as in ambient coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .indexsets import IndexSet, sigma_sign_closed
from .scalars import INF, LaurentOps, PiLaurent

E_BASIS = "e_basis"


# ---------------------------------------------------------------------------
# Frames


@dataclass(frozen=True)
class Frame:
    """An ordered basis of V, each vector a sparse coordinate map: ambient
    coordinates from the builders, e-coordinates from frame_in_e."""

    kind: str
    n: int
    field: object
    vectors: tuple

    def vector(self, pos: int) -> dict:
        return self.vectors[pos - 1]


def _pi_pow_e(field, n: int, j: int, a: int, scale=None) -> dict:
    """pi^a * e_j x 1 in ambient coordinates (even a lands on position j,
    odd a on position n+j)."""
    c = field.one if scale is None else scale
    if a % 2 == 0:
        return {j: PiLaurent.make(field, {a: c})}
    return {n + j: PiLaurent.make(field, {a - 1: c})}


def lambda_frame(field, n: int, i: int) -> Frame:
    """Ordered basis of the i-th standard lattice tensored up to V.

    For i = b*n + c with 0 <= c < n the lattice is spanned over the valuation
    ring by pi^(-b-1)*e_j (j <= c) and pi^(-b)*e_j (j > c); the order below
    puts the most negative powers first, then repeats one pi higher.  At
    i = m = floor(n/2) this is the frame that defines the e_S wedge basis.
    """
    b, c = divmod(i, n)
    vecs = []
    for j in range(1, c + 1):
        vecs.append(_pi_pow_e(field, n, j, -b - 1))
    for j in range(c + 1, n + 1):
        vecs.append(_pi_pow_e(field, n, j, -b))
    for j in range(1, c + 1):
        vecs.append(_pi_pow_e(field, n, j, -b))
    for j in range(c + 1, n + 1):
        vecs.append(_pi_pow_e(field, n, j, -b + 1))
    frame = Frame(f"lambda({i})", n, field, tuple(vecs))
    _check_monomial(frame)
    return frame


def standard_e_frame(field, n: int) -> Frame:
    """The frame defining the e_S basis: lambda(m) with m = floor(n/2)."""
    return lambda_frame(field, n, n // 2)


def chart_frame(field, n: int) -> Frame:
    """The same lattice basis as standard_e_frame, reordered so that the
    distinguished affine chart consists of the columns of [X; I_n].  Odd n
    only."""
    if n % 2 == 0 or n < 3:
        raise ValueError("the affine chart frame requires odd n >= 3")
    m = n // 2
    vecs = []
    for j in range(m + 2, n + 1):
        vecs.append(_pi_pow_e(field, n, j, 0))
    for j in range(1, m + 1):
        vecs.append(_pi_pow_e(field, n, j, -1))
    vecs.append(_pi_pow_e(field, n, m + 1, 0))
    for j in range(m + 2, n + 1):
        vecs.append(_pi_pow_e(field, n, j, 1))
    for j in range(1, m + 1):
        vecs.append(_pi_pow_e(field, n, j, 0))
    vecs.append(_pi_pow_e(field, n, m + 1, 1))
    frame = Frame("chart", n, field, tuple(vecs))
    _check_monomial(frame)
    return frame


def g_frame(field, n: int) -> Frame:
    """Split ordered basis with the first n vectors in the -pi eigenspace of
    pi x 1 and the last n in the +pi eigenspace."""
    half = field.inv(field.of_int(2))
    inv_pi = PiLaurent.monomial(field, -1)
    vecs = []
    for j in range(1, n + 1):
        vecs.append({j: PiLaurent.one(field), n + j: -inv_pi})
    for j in range(1, n + 1):
        vecs.append({j: PiLaurent.const(field, half),
                     n + j: inv_pi.scale(half)})
    frame = Frame("g_split", n, field, tuple(vecs))
    _check_split(frame)
    _check_pi_eigen(frame)
    return frame


def f_frame(field, n: int) -> Frame:
    """The pinned split ordered basis used to fix the two half-spin summands
    (both parities of n)."""
    m = n // 2
    one = PiLaurent.one(field)
    vecs = []
    if n % 2 == 0:
        for j in range(1, m + 1):
            vecs.append(_pi_pow_e(field, n, j, -1, scale=field.neg(field.one)))
        for j in range(m + 1, n + 1):
            vecs.append({j: one})
        for j in range(1, m + 1):
            vecs.append({j: one})
        for j in range(m + 1, n + 1):
            vecs.append({n + j: one})
    else:
        half = field.inv(field.of_int(2))
        inv_pi = PiLaurent.monomial(field, -1)
        for j in range(1, m + 1):
            vecs.append(_pi_pow_e(field, n, j, -1, scale=field.neg(field.one)))
        vecs.append({m + 1: one, n + m + 1: -inv_pi})
        for j in range(m + 2, n + 1):
            vecs.append({j: one})
        for j in range(1, m + 1):
            vecs.append({j: one})
        vecs.append({m + 1: PiLaurent.const(field, half),
                     n + m + 1: inv_pi.scale(half)})
        for j in range(m + 2, n + 1):
            vecs.append({n + j: one})
    frame = Frame("f_split", n, field, tuple(vecs))
    _check_split(frame)
    return frame


def build_frame(kind: str, n: int, field, index: int = None) -> Frame:
    """Dispatcher over the frame kinds; "lambda" takes the lattice index."""
    if n < 2:
        raise ValueError("rank n must be at least 2")
    if kind == "lambda":
        if index is None:
            index = n // 2
        return lambda_frame(field, n, index)
    if kind == "f_split":
        return f_frame(field, n)
    if kind == "g_split":
        return g_frame(field, n)
    if kind == "chart":
        return chart_frame(field, n)
    raise ValueError(f"unknown frame kind {kind!r}")


@lru_cache(maxsize=None)
def frame_in_e(kind: str, n: int, field) -> Frame:
    """The frame of the given kind with each vector rewritten in the basis
    of standard_e_frame, built and self-checked once per (kind, n, field).
    Ambient position a is c times the standard frame vector p holding it,
    for a monomial c, so an ambient coordinate x at a becomes x / c at p.
    The vectors are shared by every caller and must not be mutated."""
    frame = build_frame(kind, n, field)
    relabel = {}
    for p, vec in enumerate(standard_e_frame(field, n).vectors, 1):
        (amb, c), = vec.items()
        (exp, cf), = c.coeffs.items()
        relabel[amb] = (p, PiLaurent.make(field, {-exp: field.inv(cf)}))
    vectors = tuple({relabel[a][0]: x * relabel[a][1] for a, x in vec.items()}
                    for vec in frame.vectors)
    return Frame(frame.kind, n, field, vectors)


# ---------------------------------------------------------------------------
# Bilinear forms


def form_eval(kind: str, n: int, v: dict, w: dict, field) -> PiLaurent:
    """Evaluate the symmetric or alternating form on ambient-coordinate
    vectors (positions 1..2n).  On basis positions a, b:

      symmetric:   (a, b) = 1 if a, b <= n and a + b = n + 1;
                   -pi^2 if a, b > n and a + b = 3n + 1; else 0.
      alternating: <a, b> = 1 if a <= n < b and b - n = n + 1 - a;
                   -1 if b <= n < a and a - n = n + 1 - b; else 0.

    The -pi^2 block is forced by splitness of the distinguished frames: the
    conjugate of pi is -pi, so pairing pi*e_i against pi*e_j picks up a sign.
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


def _check_split(frame: Frame):
    """(v_i, v_j) = delta_{i, j*} for a split frame."""
    n, field = frame.n, frame.field
    one = PiLaurent.one(field)
    zero = PiLaurent.zero(field)
    for a in range(1, 2 * n + 1):
        for b in range(1, 2 * n + 1):
            want = one if a + b == 2 * n + 1 else zero
            got = form_eval("symmetric", n, frame.vector(a), frame.vector(b), field)
            if got != want:
                raise AssertionError(
                    f"{frame.kind} frame is not split at ({a}, {b}): {got.to_json()}")


def _check_pi_eigen(frame: Frame):
    """First n vectors scale by -pi, last n by +pi, under pi x 1."""
    n, field = frame.n, frame.field
    op = operator_pi_action(field, n)
    pi = PiLaurent.monomial(field, 1)
    for pos in range(1, 2 * n + 1):
        image = apply_operator(op, frame.vector(pos), field)
        lam = -pi if pos <= n else pi
        want = {p: c * lam for p, c in frame.vector(pos).items()}
        if not _vec_eq(image, want):
            raise AssertionError(f"{frame.kind} vector {pos} is not a pi-eigenvector")


def _check_monomial(frame: Frame):
    seen = set()
    for pos in range(1, 2 * frame.n + 1):
        vec = frame.vector(pos)
        if len(vec) != 1:
            raise AssertionError(f"{frame.kind} vector {pos} is not a monomial")
        (amb, coeff), = vec.items()
        if len(coeff.coeffs) != 1:
            raise AssertionError(f"{frame.kind} vector {pos} has a non-monomial scalar")
        if amb in seen:
            raise AssertionError(f"{frame.kind} repeats ambient position {amb}")
        seen.add(amb)


def _vec_eq(v: dict, w: dict) -> bool:
    keys = set(v) | set(w)
    for k in keys:
        a = v.get(k)
        b = w.get(k)
        if a is None or b is None:
            if (a or b).is_zero:
                continue
            return False
        if a != b:
            return False
    return True


# ---------------------------------------------------------------------------
# Sparse wedge expansion


@dataclass(frozen=True)
class WedgeVector:
    """Element of a wedge power as a sparse {IndexSet: coefficient} map;
    the library builds every one in e_S coordinates."""

    n: int
    terms: dict

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        if not self.terms:
            return 0
        return next(iter(self.terms)).card

    def items_sorted(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    def to_json(self):
        return {
            "basis": E_BASIS,
            "terms": [{"indexSet": s.to_json(), "coefficient": c.to_json()}
                      for s, c in self.items_sorted()],
        }


def _insert_sign(mask: int, pos: int) -> int:
    """Parity sign for moving a new factor at position pos past the factors
    of mask that sit above it."""
    return -1 if (mask >> pos).bit_count() % 2 else 1


def wedge_columns_masks(columns, ring) -> dict:
    """Fold columns (sparse {position: coeff} maps) into a sparse wedge,
    keyed by bitmask.  Bilinear and alternating in the columns; the value at
    a set is the minor on those rows in increasing order."""
    acc = {0: ring.one}
    for col in columns:
        nxt = {}
        for mask, c in acc.items():
            for pos, x in col.items():
                bit = 1 << (pos - 1)
                if mask & bit:
                    continue
                term = ring.mul(c, x)
                if _insert_sign(mask, pos) < 0:
                    term = ring.neg(term)
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


def wedge_columns(n: int, columns, ring) -> WedgeVector:
    """Wedge of len(columns) sparse vectors over a 2n-position space."""
    if not 1 <= len(columns) <= 2 * n:
        raise ValueError(f"expected between 1 and {2 * n} columns, got {len(columns)}")
    for col in columns:
        for pos in col:
            if not 1 <= pos <= 2 * n:
                raise ValueError(f"position {pos} outside 1..{2 * n}")
    masks = wedge_columns_masks(columns, ring)
    return WedgeVector(n, {IndexSet(n, m): c for m, c in masks.items()})


def wedge_add(a: WedgeVector, b: WedgeVector, ring) -> WedgeVector:
    if a.n != b.n:
        raise ValueError("wedge vectors of different rank")
    out = dict(a.terms)
    for s, c in b.terms.items():
        if s in out:
            merged = ring.add(out[s], c)
            if ring.is_zero(merged):
                del out[s]
            else:
                out[s] = merged
        else:
            out[s] = c
    return WedgeVector(a.n, out)


def wedge_scale(w: WedgeVector, c, ring) -> WedgeVector:
    if ring.is_zero(c):
        return WedgeVector(w.n, {})
    return WedgeVector(w.n, {s: ring.mul(v, c) for s, v in w.terms.items()})


def wedge_eq(a: WedgeVector, b: WedgeVector) -> bool:
    return a.n == b.n and a.terms == b.terms


def basis_wedge(frame: Frame, s: IndexSet, ring=None) -> WedgeVector:
    """Wedge of the frame vectors indexed by s, in increasing order; e_S
    coordinates when the frame comes from frame_in_e."""
    if ring is None:
        ring = LaurentOps(frame.field)
    cols = [frame.vector(p) for p in s.members]
    return wedge_columns(frame.n, cols, ring)


# ---------------------------------------------------------------------------
# Worst terms


def worst_terms(w: WedgeVector):
    """The sum of all minimum-valuation terms of a nonzero wedge vector with
    exact coefficients retained, together with that minimum valuation."""
    if w.is_zero:
        raise ValueError("worst terms of the zero vector")
    val = INF
    for c in w.terms.values():
        o = c.ord()
        if o < val:
            val = o
    kept = {s: c for s, c in w.terms.items() if c.ord() == val}
    return WedgeVector(w.n, kept), val


# ---------------------------------------------------------------------------
# Operators on V and their wedge powers


def operator_identity(field, n: int) -> tuple:
    one = PiLaurent.one(field)
    return tuple({p: one} for p in range(1, 2 * n + 1))


def operator_pi_action(field, n: int) -> tuple:
    """Matrix of pi x 1: position j to n+j, position n+j to pi^2 times j."""
    pi_sq = PiLaurent.monomial(field, 2)
    one = PiLaurent.one(field)
    cols = []
    for j in range(1, n + 1):
        cols.append({n + j: one})
    for j in range(1, n + 1):
        cols.append({j: pi_sq})
    return tuple(cols)


def operator_scalar(field, n: int, t: PiLaurent) -> tuple:
    if t.is_zero:
        return tuple({} for _ in range(2 * n))
    return tuple({p: t} for p in range(1, 2 * n + 1))


def operator_add(cols_a: tuple, cols_b: tuple) -> tuple:
    out = []
    for a, b in zip(cols_a, cols_b):
        col = dict(a)
        for p, c in b.items():
            s = col.get(p)
            s = c if s is None else s + c
            if s.is_zero:
                col.pop(p, None)
            else:
                col[p] = s
        out.append(col)
    return tuple(out)


def operator_sub(cols_a: tuple, cols_b: tuple) -> tuple:
    neg_b = tuple({p: -c for p, c in col.items()} for col in cols_b)
    return operator_add(cols_a, neg_b)


def apply_operator(op_cols: tuple, v: dict, field) -> dict:
    out = {}
    for pos, c in v.items():
        for q, a in op_cols[pos - 1].items():
            s = out.get(q)
            s = a * c if s is None else s + a * c
            if s.is_zero:
                out.pop(q, None)
            else:
                out[q] = s
    return out


def apply_wedge_power_operator(op_cols: tuple, degree: int, w: WedgeVector,
                               ring=None, field=None) -> WedgeVector:
    """Induced action of the degree-th wedge power of an operator on V; on a
    decomposable vector it is the wedge of the images."""
    if w.terms and w.degree() != degree:
        raise ValueError(f"vector has degree {w.degree()}, expected {degree}")
    if ring is None:
        if field is None:
            raise ValueError("a coefficient ring or field is required")
        ring = LaurentOps(field)
    total = WedgeVector(w.n, {})
    for s, c in w.terms.items():
        images = [op_cols[p - 1] for p in s.members]
        piece = wedge_columns(w.n, images, ring)
        total = wedge_add(total, wedge_scale(piece, c, ring), ring)
    return total


# ---------------------------------------------------------------------------
# The half-spin involution on top-degree coordinates


def spin_involution(terms: dict, ring) -> dict:
    """The involution sending the basis wedge at S to its shuffle sign times
    the basis wedge at S-perp, extended linearly over coordinates in any
    split frame.  An involution because S and S-perp share their shuffle
    sign."""
    out = {}
    for s, c in terms.items():
        if sigma_sign_closed(s) < 0:
            c = ring.neg(c)
        out[s.perp()] = c
    return out
