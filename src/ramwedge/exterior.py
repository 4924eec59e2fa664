"""The 2n-dimensional space V, its distinguished frames, both bilinear
forms, and sparse exterior algebra on top of them.

e-basis: every vector is a sparse {position: PiLaurent} map in the basis of
the standard lattice Lambda_m, m = floor(n/2), the special maximal
parahoric.  Position j (1 <= j <= n) holds (pi x 1)^lo e_j and position n+j
holds (pi x 1)^(lo+1) e_j, where lo = -1 for j <= m and lo = 0 above.  As
(pi x 1)^2 is the scalar pi^2, the operator "pi x 1" sends position j to
position n+j and position n+j to pi^2 times position j.  The frame builders
write their vectors straight into this basis (_e_term) and check them there.
The chart of chart.py is no frame: its reordering of the standard lattice
basis is a permutation of the e-positions, and chart._columns_in_e writes
the chart columns at them.  So every wedge coordinate is an e_S
coordinate: sparse {mask: coefficient} maps, keyed by the bitmask of S
(bit i-1 is element i, as IndexSet.mask), whose value at S is the minor on
rows S taken in increasing row order, with columns wedged from left to
right.

Slot/monomial invariant.  Every frame vector lies in one slot {i, n+i}
(at most two coordinates, at positions i and n+i), and each of its
coordinates is an exact monomial c*pi^e.  basis_wedge relies on it: a
frame wedge is a signed product of per-slot factors, computed on
(exponent, coefficient) pairs, and a frame that breaks the shape raises
FrameShapeError.  The generic fold wedge_columns_masks serves chart
columns and operator images: the image of a frame wedge under the wedge
power of an operator is the fold of the images of its frame vectors
(apply_operator), one column per vector.  It folds over the base field,
on the ring.monomials of each coefficient, and adds their monomial keys
but never unpacks them.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from .errors import FrameShapeError
from .indexsets import IndexSet, lex_key
from .records import frozen
from .scalars import INF, LaurentOps, PiLaurent

E_BASIS = "e_basis"


# ---------------------------------------------------------------------------
# Frames


@frozen
class Frame:
    """An ordered basis of V, each vector a sparse e-coordinate map."""

    kind: str
    n: int
    field: object
    vectors: tuple

    def vector(self, pos: int) -> dict:
        return self.vectors[pos - 1]

    @cached_property
    def slot_shape(self) -> tuple:
        """What basis_wedge reads, checked once per frame: the slot (0-based)
        of each vector, its coordinates as (bit, exponent, coefficient)
        triples in the vector's order, and per slot the (exponent,
        coefficient) of the 2 x 2 determinant of its two vectors at
        e_i ^ e_{n+i} (None when it vanishes).  Raises FrameShapeError off
        the slot/monomial shape (module docstring)."""
        n = self.n
        slots, entries = [], []
        for pos, vec in enumerate(self.vectors, 1):
            if not vec:
                raise FrameShapeError(f"{self.kind} vector {pos} is zero")
            if len({(q - 1) % n for q in vec}) > 1:
                raise FrameShapeError(f"{self.kind} vector {pos} spans the slots "
                                      f"of positions {sorted(vec)}")
            for q, x in vec.items():
                if len(x.coeffs) != 1:
                    raise FrameShapeError(f"{self.kind} vector {pos} has the non-monomial "
                                          f"coefficient {x.to_json()} at position {q}")
            slots.append((next(iter(vec)) - 1) % n)
            entries.append(tuple((q - 1, *next(iter(x.coeffs.items())))
                                 for q, x in vec.items()))
        dets = []
        for slot in range(n):
            held = [entries[p] for p, t in enumerate(slots) if t == slot]
            if len(held) != 2:
                raise FrameShapeError(f"{self.kind} slot {slot + 1} holds "
                                      f"{len(held)} vectors, not 2")
            dets.append(_slot_det(self, slot, *held))
        return tuple(slots), tuple(entries), tuple(dets)


def _slot_det(frame: Frame, slot: int, first: tuple, second: tuple):
    """(exponent, coefficient) of first ^ second, two vectors of one slot,
    at e_i ^ e_{n+i}: u_i * v_{n+i} - u_{n+i} * v_i.  None when it
    vanishes; FrameShapeError when its two products have different
    exponents, so that it is no monomial."""
    field = frame.field
    u = {b: (e, c) for b, e, c in first}
    v = {b: (e, c) for b, e, c in second}
    lo, hi = slot, frame.n + slot
    products = []
    for a, b, negate in ((lo, hi, False), (hi, lo, True)):
        if a in u and b in v:
            c = field.mul(u[a][1], v[b][1])
            products.append((u[a][0] + v[b][0], field.neg(c) if negate else c))
    if len({e for e, _ in products}) > 1:
        raise FrameShapeError(f"{frame.kind} slot {slot + 1} has a 2 x 2 determinant "
                              f"with exponents {[e for e, _ in products]}")
    coeff = field.zero
    for _, c in products:
        coeff = field.add(coeff, c)
    return None if field.is_zero(coeff) else (products[0][0], coeff)


def _e_term(field, n: int, j: int, a: int, c=None, s: int = 0) -> dict:
    """c * pi^s * (pi x 1)^a e_j in e-coordinates (c = 1 by default): with
    d = a - lo, the even part of d is the scalar pi^(d - d mod 2) and
    d mod 2 picks position j or n+j (module docstring)."""
    d = a + 1 - (j > n // 2)
    return {j + n * (d % 2): PiLaurent.make(field, {s + d - d % 2:
                                                    field.one if c is None else c})}


def _eigen_pair(field, n: int, j: int) -> tuple:
    """e_j - pi^-1 (pi x 1) e_j and (e_j + pi^-1 (pi x 1) e_j) / 2: the -pi
    and +pi eigenvectors of pi x 1 in slot j.  The symmetric form pairs the
    -pi vector of slot j to 1 with the +pi vector of slot n+1-j."""
    half = field.inv(field.of_int(2))
    return ({**_e_term(field, n, j, 0), **_e_term(field, n, j, 1, field.neg(field.one), -1)},
            {**_e_term(field, n, j, 0, half), **_e_term(field, n, j, 1, half, -1)})


def g_frame(field, n: int) -> Frame:
    """Split ordered basis with the first n vectors in the -pi eigenspace of
    pi x 1 and the last n in the +pi eigenspace."""
    minus, plus = zip(*(_eigen_pair(field, n, j) for j in range(1, n + 1)))
    frame = Frame("g_split", n, field, minus + plus)
    _check_split(frame)
    _check_pi_eigen(frame)
    return frame


def f_frame(field, n: int) -> Frame:
    """The pinned split ordered basis used to fix the two half-spin summands
    (both parities of n); at odd n slot m+1 holds the g-frame pair."""
    m, odd = n // 2, n % 2
    minus, plus = _eigen_pair(field, n, m + 1)
    upper = range(m + 1 + odd, n + 1)
    vecs = [_e_term(field, n, j, -1, field.neg(field.one)) for j in range(1, m + 1)]
    vecs += [minus] * odd + [_e_term(field, n, j, 0) for j in upper]
    vecs += [_e_term(field, n, j, 0) for j in range(1, m + 1)]
    vecs += [plus] * odd + [_e_term(field, n, j, 1) for j in upper]
    frame = Frame("f_split", n, field, tuple(vecs))
    _check_split(frame)
    return frame


@lru_cache(maxsize=None)
def frame_in_e(kind: str, n: int, field) -> Frame:
    """The frame of the given kind ("f_split" or "g_split"), built and
    self-checked once per (kind, n, field).  The vectors are shared by every
    caller and must not be mutated."""
    if n < 2:
        raise ValueError("rank n must be at least 2")
    builders = {"f_split": f_frame, "g_split": g_frame}
    if kind not in builders:
        raise ValueError(f"unknown frame kind {kind!r}")
    return builders[kind](field, n)


# ---------------------------------------------------------------------------
# Bilinear forms


def form_eval(kind: str, n: int, v: dict, w: dict, field) -> PiLaurent:
    """Evaluate the symmetric or alternating form on e-coordinate vectors.
    On (pi x 1)^a e_i and (pi x 1)^b e_j with i + j = n + 1:

      symmetric:   (-1)^a pi^(a+b)     when a = b mod 2;
      alternating: (-1)^a pi^(a+b-1)   when a != b mod 2;

    and 0 on every other pair.  The sign is forced by splitness of the
    distinguished frames: the conjugate of pi is -pi, so moving pi x 1
    across the form costs a sign.
    """
    if kind not in ("symmetric", "alternating"):
        raise ValueError(f"unknown form {kind!r}")
    odd = kind == "alternating"
    total = PiLaurent.zero(field)
    for p, x in v.items():
        i = (p - 1) % n + 1
        a = (p > n) + (i > n // 2) - 1
        for q, y in w.items():
            j = (q - 1) % n + 1
            b = (q > n) + (j > n // 2) - 1
            if i + j == n + 1 and (a + b) % 2 == odd:
                term = x * y * PiLaurent.monomial(field, a + b - odd)
                total = total - term if a % 2 else total + term
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
    op = operator_pi_action(field, n, PiLaurent.zero(field))
    pi = PiLaurent.monomial(field, 1)
    for pos in range(1, 2 * n + 1):
        image = apply_operator(op, frame.vector(pos), field)
        lam = -pi if pos <= n else pi
        want = {p: c * lam for p, c in frame.vector(pos).items()}
        if image != want:
            raise AssertionError(f"{frame.kind} vector {pos} is not a pi-eigenvector")


# ---------------------------------------------------------------------------
# Sparse wedge expansion


@frozen
class WedgeVector:
    """Element of a wedge power as a sparse {mask: coefficient} map; the
    library builds every one in e_S coordinates."""

    n: int
    terms: dict

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        if not self.terms:
            return 0
        return next(iter(self.terms)).bit_count()

    def to_json(self):
        return {"basis": E_BASIS,
                "terms": terms_to_json(self.n, self.terms, lambda c: c.to_json())}


def terms_to_json(n: int, terms: dict, coefficient_json) -> list:
    """Sparse {mask: coefficient} terms of one degree as JSON records, in
    lex order."""
    return [{"indexSet": IndexSet(n, t).to_json(), "coefficient": coefficient_json(terms[t])}
            for t in sorted(terms, key=lex_key)]


def wedge_columns_masks(columns, ring) -> dict:
    """Fold columns (sparse {position: coeff} maps) into a sparse wedge,
    keyed by bitmask.  Bilinear and alternating in the columns; the value at
    a set is the minor on those rows in increasing order.  An empty column
    makes the wedge zero.  A term is a flat key mask + (monomial << S), S
    the largest position, with a field coefficient, so a product's key is a
    sum of keys; one that sets ring.overflow_bits goes to ring.overflowed.
    A new factor at position pos enters negated when (mask >> pos) has odd
    weight.  When an entry has a nonzero monomial key, the last column
    gathers each mask's monomials into a row for ring.from_monomials;
    otherwise each key is its mask, its coefficient for ring.from_base."""
    if not all(columns):
        return {}
    field = ring.field
    fmul, fadd, fzero = field.mul, field.add, field.is_zero
    shift = max(max(col) for col in columns)
    low, bad = (1 << shift) - 1, ring.overflow_bits << shift
    steps = [[(1 << pos - 1, pos, (1 << pos - 1) + (m << shift), c, field.neg(c))
              for pos, x in col.items() for m, c in ring.monomials(x) if not fzero(c)]
             for col in columns]
    rows = any(step >> shift for entries in steps for _, _, step, _, _ in entries)
    acc = {0: field.one}
    for left, entries in zip(range(len(steps) - 1, -1, -1), steps):
        gather = rows and not left  # the last column: a row of monomials per mask
        nxt = {}
        for key, c in acc.items():
            mask = key & low
            for bit, pos, step, x, neg_x in entries:
                if mask & bit:
                    continue
                k = key + step
                if k & bad:
                    ring.overflowed()
                    continue
                t = fmul(c, neg_x if (mask >> pos).bit_count() & 1 else x)
                row = nxt
                if gather:
                    m, k = mask | bit, k >> shift
                    row = nxt.get(m)
                    if row is None:
                        nxt[m] = {k: t}
                        continue
                if k not in row:
                    row[k] = t
                elif not fzero(t := fadd(row[k], t)):
                    row[k] = t
                else:
                    del row[k]
                    if gather and not row:
                        del nxt[m]
        acc = nxt
    convert = ring.from_monomials if rows else ring.from_base
    return {m: convert(value) for m, value in acc.items()}


def wedge_columns(n: int, columns, ring) -> WedgeVector:
    """Wedge of len(columns) sparse vectors over a 2n-position space."""
    if not 1 <= len(columns) <= 2 * n:
        raise ValueError(f"expected between 1 and {2 * n} columns, got {len(columns)}")
    for col in columns:
        for pos in col:
            if not 1 <= pos <= 2 * n:
                raise ValueError(f"position {pos} outside 1..{2 * n}")
    return WedgeVector(n, wedge_columns_masks(columns, ring))


def _add_multiple(ops, target: dict, q, source: dict) -> None:
    """target += q * source on sparse vectors, in place, dropping entries
    that cancel: existing keys keep their order and new keys follow in
    source order.  ops is a LaurentOps, a field or a coefficient ring:
    anything with mul, add and is_zero.  The one sparse linear-combination
    loop of the package, except the wedge fold above."""
    for t, v in source.items():
        delta = ops.mul(q, v)
        cur = target.get(t)
        new = delta if cur is None else ops.add(cur, delta)
        if ops.is_zero(new):
            target.pop(t, None)
        else:
            target[t] = new


def wedge_scale(w: WedgeVector, c, ring) -> WedgeVector:
    if ring.is_zero(c):
        return WedgeVector(w.n, {})
    return WedgeVector(w.n, {s: ring.mul(v, c) for s, v in w.terms.items()})


def _crossings(n: int, mask: int) -> int:
    """Pairs of a high position n+a and a low position b > a in the mask:
    the transpositions that sort slot-ordered rows into increasing order."""
    lows = mask & ((1 << n) - 1)
    highs = mask >> n
    count = 0
    while highs:
        bit = highs & -highs
        highs ^= bit
        count += (lows >> bit.bit_length()).bit_count()
    return count


def basis_wedge(frame: Frame, mask: int) -> WedgeVector:
    """Wedge of the frame vectors indexed by the mask of S, in increasing
    order; e_S coordinates when the frame comes from frame_in_e.

    Closed form on the slot/monomial shape (module docstring), read from
    frame.slot_shape.  Grouping the columns by slot costs the sign of that
    reordering.  A slot holding one column contributes one of its
    coordinates, a slot holding both its vectors their 2 x 2 determinant;
    each term is the product over the slots, signed by the crossings that
    sort its rows.  Terms come in the key order of the generic fold:
    lexicographic in the coordinate each lone column contributes, those
    columns taken in increasing order.
    """
    n, field = frame.n, frame.field
    slots, entries, dets = frame.slot_shape
    cols = []
    once = twice = 0  # slots holding at least one, and two, columns so far
    parity = 0        # inversions of the slot sequence of the columns
    while mask:
        bit = mask & -mask
        mask ^= bit
        p = bit.bit_length() - 1
        slot = slots[p]
        parity += (once >> slot + 1).bit_count() + (twice >> slot + 1).bit_count()
        twice |= once & 1 << slot
        once |= 1 << slot
        cols.append(p)
    base, exp, coeff = 0, 0, field.one
    full = twice
    while full:
        bit = full & -full
        full ^= bit
        det = dets[bit.bit_length() - 1]
        if det is None:
            return WedgeVector(n, {})
        base |= bit | bit << n
        exp += det[0]
        coeff = field.mul(coeff, det[1])
    terms = [(base, exp, coeff)]
    for p in cols:
        if not twice >> slots[p] & 1:
            terms = [(m | 1 << b, e + e2, field.mul(c, c2))
                     for m, e, c in terms for b, e2, c2 in entries[p]]
    out = {}
    for m, e, c in terms:
        if (parity + _crossings(n, m)) % 2:
            c = field.neg(c)
        out[m] = PiLaurent(field, {e: c})
    return WedgeVector(n, out)


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
# Operators on V


def operator_pi_action(field, n: int, shift: PiLaurent) -> tuple:
    """Matrix of pi x 1 + shift, as 2n sparse columns: position j goes to
    n+j and position n+j to pi^2 times j, plus shift on the diagonal (zero
    for the bare action)."""
    pi_sq = PiLaurent.monomial(field, 2)
    one = PiLaurent.one(field)
    cols = []
    for j in range(1, n + 1):
        cols.append({n + j: one} if shift.is_zero else {j: shift, n + j: one})
    for j in range(1, n + 1):
        cols.append({j: pi_sq} if shift.is_zero else {j: pi_sq, n + j: shift})
    return tuple(cols)


def apply_operator(op_cols: tuple, v: dict, field) -> dict:
    ops = LaurentOps(field)
    out = {}
    for pos, c in v.items():
        _add_multiple(ops, out, c, op_cols[pos - 1])
    return out
