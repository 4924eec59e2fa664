"""Points of the distinguished affine chart around the worst point of the
special fiber, over small coefficient rings, and checkers for the
chart-level moduli conditions.

A chart point is an n x n matrix X over a coefficient ring R (odd n); it
represents the rank-n submodule spanned by the columns of [X; I_n] in the
chart ordering of the standard lattice basis, a permutation of the
e-basis (exterior module docstring): row i of X is e-position order[i] and
row n+j of I_n is n + order[j], with order = (m+2..n, 1..m, m+1),
m = floor(n/2), so X's rows fill e_1..e_n in an even order (m(m+1)
inversions).  X is blocked as

    X = [ X1  X2 ]     X1 of size (n-1) x (n-1), X4 scalar.
        [ X3  X4 ]

The matrix-equation checkers (naive relations, wedge, trace) apply on the
X2 = X4 = 0 locus where the conditions have been translated into equations;
elsewhere they report "out-of-chart" after checking the one fact that holds
on the whole chart, X4^2 = 0.  The membership checkers (spin, refined,
degree-l analogues) and the characteristic-polynomial checker work on the
whole chart.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .errors import SchemaError
from .exterior import WedgeVector, frame_in_e, wedge_columns
from .fields import PrimeField, Rationals, field_from_key, is_json_int
from .indexsets import MAX_RANK, bounded_type_masks, type_masks
from .lattices import BlockLattice, signature_eps
from .records import frozen
from .rings import ring_from_json, ring_to_json

DEFAULT_P = 13
DEFAULT_PRECISION = 24

PASS = "pass"
FAIL = "fail"
OUT_OF_CHART = "out-of-chart"


@frozen
class Verdict:
    status: str
    witness: str = None

    @property
    def passed(self) -> bool:
        return self.status == PASS

    @property
    def failed(self) -> bool:
        return self.status == FAIL

    def to_json(self):
        out = {"status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@frozen
class ChartPoint:
    n: int
    ring: object
    rows: tuple
    signature: tuple

    def __post_init__(self):
        if self.n % 2 == 0 or self.n < 3:
            raise ValueError("chart points require odd n >= 3")
        r, s = self.signature
        if r + s != self.n or r < 0 or s < 0:
            raise ValueError("signature must be a partition of n")
        if len(self.rows) != self.n or any(len(row) != self.n for row in self.rows):
            raise ValueError("X must be n x n")

    @staticmethod
    def from_blocks(n, ring, x1, x3, x2=None, x4=None, signature=None):
        if signature is None:
            signature = (n - 1, 1)
        zero = ring.zero
        if x2 is None:
            x2 = [zero] * (n - 1)
        if x4 is None:
            x4 = zero
        rows = []
        for i in range(n - 1):
            rows.append(tuple(list(x1[i]) + [x2[i]]))
        rows.append(tuple(list(x3) + [x4]))
        return ChartPoint(n, ring, tuple(rows), tuple(signature))

    def x1(self):
        return [list(row[: self.n - 1]) for row in self.rows[: self.n - 1]]

    def x2(self):
        return [row[self.n - 1] for row in self.rows[: self.n - 1]]

    def x3(self):
        return list(self.rows[self.n - 1][: self.n - 1])

    def x4(self):
        return self.rows[self.n - 1][self.n - 1]

    def on_translated_locus(self) -> bool:
        ring = self.ring
        return (all(ring.is_zero(c) for c in self.x2())
                and ring.is_zero(self.x4()))


def _columns_in_e(pt: ChartPoint) -> list:
    """The columns of [X; I_n] at their e-positions (module docstring):
    X's nonzero entries first, in row order, then the 1 of I_n."""
    n, m, ring = pt.n, pt.n // 2, pt.ring
    order = (*range(m + 2, n + 1), *range(1, m + 1), m + 1)
    cols = []
    for j in range(n):
        col = {order[i]: row[j] for i, row in enumerate(pt.rows) if not ring.is_zero(row[j])}
        col[n + order[j]] = ring.one
        cols.append(col)
    return cols


def wedge_vector(pt: ChartPoint) -> WedgeVector:
    """Wedge of the point's columns from left to right, in e-basis
    coordinates over the point's coefficient ring."""
    return wedge_columns(pt.n, _columns_in_e(pt), pt.ring)


# ---------------------------------------------------------------------------
# Matrix helpers over a coefficient ring


def block_reflection(ring, size: int):
    """The antidiagonal reflection with +1 in the upper right half and -1 in
    the lower left half (size = 2m)."""
    m = size // 2
    rows = []
    for i in range(size):
        row = [ring.zero] * size
        row[size - 1 - i] = ring.one if i < m else ring.neg(ring.one)
        rows.append(row)
    return rows


def mat_mul(ring, a, b):
    rows, mid, cols = len(a), len(b), len(b[0])
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = ring.zero
            for t in range(mid):
                if ring.is_zero(a[i][t]) or ring.is_zero(b[t][j]):
                    continue
                acc = ring.add(acc, ring.mul(a[i][t], b[t][j]))
            row.append(acc)
        out.append(row)
    return out


def mat_add(ring, a, b):
    return [[ring.add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_transpose(a):
    return [list(col) for col in zip(*a)]


def mat_neg(ring, a):
    return [[ring.neg(x) for x in row] for row in a]


def _first_nonzero(ring, a):
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            if not ring.is_zero(x):
                return i, j, x
    return None


# ---------------------------------------------------------------------------
# Condition checkers


def check_naive_relations(pt: ChartPoint) -> Verdict:
    """The translated module-theoretic equations on the X2 = X4 = 0 locus:
    -J X3^t X3 = X1 + J X1^t J, X1^2 = 0, X3 X1 = 0.  Off the locus only
    X4^2 = 0 is checked (it holds on the whole chart)."""
    ring = pt.ring
    if not pt.on_translated_locus():
        x4 = pt.x4()
        if not ring.is_zero(ring.mul(x4, x4)):
            return Verdict(FAIL, "X4^2 != 0")
        return Verdict(OUT_OF_CHART, "X2, X4 not both zero")
    n = pt.n
    x1 = pt.x1()
    x3 = [pt.x3()]
    j_mat = block_reflection(ring, n - 1)
    lhs = mat_neg(ring, mat_mul(ring, j_mat, mat_mul(ring, mat_transpose(x3), x3)))
    rhs = mat_add(ring, x1, mat_mul(ring, j_mat, mat_mul(ring, mat_transpose(x1), j_mat)))
    diff = mat_add(ring, lhs, mat_neg(ring, rhs))
    bad = _first_nonzero(ring, diff)
    if bad:
        return Verdict(FAIL, f"symmetry relation fails at entry ({bad[0] + 1}, {bad[1] + 1})")
    sq = mat_mul(ring, x1, x1)
    bad = _first_nonzero(ring, sq)
    if bad:
        return Verdict(FAIL, f"X1^2 nonzero at entry ({bad[0] + 1}, {bad[1] + 1})")
    prod = mat_mul(ring, x3, x1)
    bad = _first_nonzero(ring, prod)
    if bad:
        return Verdict(FAIL, f"X3 X1 nonzero at column {bad[1] + 1}")
    return Verdict(PASS)


def charpoly_coefficients(ring, m) -> list:
    """Coefficients c_0 = 1, c_1, ..., c_n of det(T I - M) = sum c_k T^(n-k)
    over a commutative ring, by Berkowitz's division-free recursion in
    O(n^4) ring operations, so it holds over dual numbers, polynomials and
    in characteristic p <= n.  c_k is (-1)^k times the sum of the k x k
    principal minors.

    With the trailing principal submatrix from i written [[a, R], [C, S]],
    its coefficient column is the lower-triangular Toeplitz matrix with
    first column (1, -a, -R C, -R S C, ..., -R S^(m-1) C) times that of S
    (size m)."""
    n = len(m)
    coeffs = [[ring.one]]
    for i in reversed(range(n)):
        row = [m[i][i + 1:]]
        sub = [r[i + 1:] for r in m[i + 1:]]
        v = [[r[i]] for r in m[i + 1:]]
        first = [ring.one, ring.neg(m[i][i])]
        for power in range(n - 1 - i):
            if power:
                v = mat_mul(ring, sub, v)
            first.append(ring.neg(mat_mul(ring, row, v)[0][0]))
        toeplitz = [[first[k - j] if k >= j else ring.zero
                     for j in range(len(coeffs))] for k in range(len(first))]
        coeffs = mat_mul(ring, toeplitz, coeffs)
    return [c for (c,) in coeffs]


def check_kottwitz(pt: ChartPoint, *, coeffs: list = None) -> Verdict:
    """charpoly(X) = T^n over R: every coefficient below the leading one
    vanishes; the witness names the first nonzero one.  `coeffs` is
    charpoly_coefficients(pt.ring, pt.rows) when the caller has it."""
    ring = pt.ring
    coeffs = charpoly_coefficients(ring, pt.rows) if coeffs is None else coeffs
    for k in range(1, pt.n + 1):
        if not ring.is_zero(coeffs[k]):
            return Verdict(FAIL, f"charpoly coefficient at T^{pt.n - k} is nonzero")
    return Verdict(PASS)


def check_wedge(pt: ChartPoint) -> Verdict:
    """All 2 x 2 minors of the stacked matrix [X1; X3] vanish (signature
    (n-1, 1) translation on the X2 = X4 = 0 locus)."""
    ring = pt.ring
    if not pt.on_translated_locus():
        return Verdict(OUT_OF_CHART, "X2, X4 not both zero")
    stacked = pt.x1() + [pt.x3()]
    rows, cols = pt.n, pt.n - 1
    for a, b in combinations(range(rows), 2):
        for c, d in combinations(range(cols), 2):
            minor = ring.sub(ring.mul(stacked[a][c], stacked[b][d]),
                             ring.mul(stacked[a][d], stacked[b][c]))
            if not ring.is_zero(minor):
                return Verdict(FAIL, f"2x2 minor at rows ({a + 1}, {b + 1}), "
                                     f"columns ({c + 1}, {d + 1})")
    return Verdict(PASS)


def check_trace(pt: ChartPoint) -> Verdict:
    ring = pt.ring
    if not pt.on_translated_locus():
        return Verdict(OUT_OF_CHART, "X2, X4 not both zero")
    x1 = pt.x1()
    total = ring.zero
    for i in range(pt.n - 1):
        total = ring.add(total, x1[i][i])
    if not ring.is_zero(total):
        return Verdict(FAIL, "tr X1 != 0")
    return Verdict(PASS)


# The lattices take precision positionally and without a default, so equal
# calls share one cache entry.
@lru_cache(maxsize=None)
def spin_annihilators(n: int, field_key: tuple, eps: int,
                      precision: int, /) -> BlockLattice:
    """The eps half-spin lattice: pairs over every index set of size n."""
    return BlockLattice(frame_in_e("f_split", n, field_from_key(field_key)), n,
                        None, eps, precision)


@lru_cache(maxsize=None)
def refined_annihilators(n: int, field_key: tuple, r: int, s: int,
                         precision: int, /) -> BlockLattice:
    """The half-spin lattice refined by the signature (r, s): pairs over the
    index sets of type (r, s), with the sign that s fixes."""
    return BlockLattice(frame_in_e("g_split", n, field_from_key(field_key)), n,
                        type_masks(n, r, s), signature_eps(s), precision)


@lru_cache(maxsize=None)
def kl_annihilators(n: int, field_key: tuple, l: int, r: int, s: int,
                    precision: int, /) -> BlockLattice:
    """The degree-l lattice bounded by the signature (r, s): the unpaired
    wedges over the index sets of size l and type at most (r, s)."""
    return BlockLattice(frame_in_e("g_split", n, field_from_key(field_key)), l,
                        bounded_type_masks(n, l, r, s), None, precision)


def _membership_verdict(lattice: BlockLattice, w: WedgeVector, ring,
                        prefix: str = "") -> Verdict:
    """The lattice's membership verdict on w, its witness after the prefix."""
    result = lattice.membership(w.terms, ring)
    return Verdict(PASS) if result.ok else Verdict(FAIL, prefix + result.witness)


def check_spin(pt: ChartPoint, eps: int, precision: int = DEFAULT_PRECISION) -> Verdict:
    """The column wedge lies in the mod-pi image of the eps half-spin
    lattice."""
    spin = spin_annihilators(pt.n, pt.ring.field.key(), eps, precision)
    return _membership_verdict(spin, wedge_vector(pt), pt.ring)


def check_refined(pt: ChartPoint, precision: int = DEFAULT_PRECISION) -> Verdict:
    """The column wedge lies in the mod-pi image of the half-spin lattice
    refined by the point's signature."""
    r, s = pt.signature
    refined = refined_annihilators(pt.n, pt.ring.field.key(), r, s, precision)
    return _membership_verdict(refined, wedge_vector(pt), pt.ring)


def check_kl(pt: ChartPoint, l: int, precision: int = DEFAULT_PRECISION) -> Verdict:
    """Every l-fold wedge of the point's columns, in column order, lies in
    the mod-pi image of the degree-l lattice bounded by the point's
    signature; the witness names the first column subset that fails."""
    r, s = pt.signature
    if not 1 <= l <= pt.n:
        raise ValueError(f"wedge degree {l} outside 1..{pt.n}")
    kl = kl_annihilators(pt.n, pt.ring.field.key(), l, r, s, precision)
    cols = _columns_in_e(pt)
    for combo in combinations(range(pt.n), l):
        w = wedge_columns(pt.n, [cols[j] for j in combo], pt.ring)
        verdict = _membership_verdict(kl, w, pt.ring,
                                      f"columns {tuple(j + 1 for j in combo)}: ")
        if verdict.failed:
            return verdict
    return Verdict(PASS)


@frozen
class ConditionReport:
    conditions: dict

    def to_json(self):
        return {name: v.to_json() for name, v in self.conditions.items()}

    def verdict_vector(self) -> dict:
        return {name: v.status for name, v in self.conditions.items()}


def full_report(pt: ChartPoint, precision: int = DEFAULT_PRECISION) -> ConditionReport:
    """Every condition at one point.  The charpoly coefficients serve
    kottwitz and give det X = (-1)^n c_n, the top wedge's coordinate at the
    lex-least set e_{1..n} (_columns_in_e puts X's rows at e-positions
    1..n in an even order).  When det X != 0, each membership check whose
    block of e_{1..n} leaves it off the support fails there, as
    BlockLattice.membership would; the checks left open share one fold, and each
    reads its lattice through _membership_verdict as the checkers do."""
    ring, n, (r, s) = pt.ring, pt.n, pt.signature
    key, top, cols = ring.field.key(), (1 << n) - 1, tuple(range(1, n + 1))
    coeffs = charpoly_coefficients(ring, pt.rows)
    conditions = {
        "naive": check_naive_relations(pt),
        "kottwitz": check_kottwitz(pt, coeffs=coeffs),
        "wedge": check_wedge(pt),
        "trace": check_trace(pt),
    }
    memberships = {  # name: lattice, witness prefix
        "spin(+1)": (spin_annihilators(n, key, 1, precision), ""),
        "spin(-1)": (spin_annihilators(n, key, -1, precision), ""),
        "refined": (refined_annihilators(n, key, r, s, precision), ""),
        "kn": (kl_annihilators(n, key, n, r, s, precision), f"columns {cols}: "),
    }
    wedge = None
    for name, (lattice, prefix) in memberships.items():
        if not ring.is_zero(coeffs[n]) and top not in lattice.block(top).support_set:
            conditions[name] = Verdict(FAIL, f"{prefix}coordinate{cols}")
            continue
        wedge = wedge_vector(pt) if wedge is None else wedge
        conditions[name] = _membership_verdict(lattice, wedge, ring, prefix)
    return ConditionReport(conditions)


# ---------------------------------------------------------------------------
# JSON schema


def chart_point_to_json(pt: ChartPoint) -> dict:
    field = pt.ring.field
    p = field.p if isinstance(field, PrimeField) else "rationals"
    return {
        "n": pt.n,
        "p": p,
        "signature": list(pt.signature),
        "ring": ring_to_json(pt.ring),
        "X": [[pt.ring.element_to_json(c) for c in row] for row in pt.rows],
    }


def chart_point_from_json(obj) -> ChartPoint:
    if not isinstance(obj, dict):
        raise SchemaError("chart point must be a JSON object")
    if extra := [key for key in obj if key not in ("n", "p", "signature", "ring", "X")]:
        raise SchemaError(f"unknown field {extra[0]!r}")
    for key in ("n", "ring", "X"):
        if key not in obj:
            raise SchemaError(f"missing field '{key}'")
    n = obj["n"]
    if not isinstance(n, int) or n < 3 or n % 2 == 0:
        raise SchemaError("field 'n' must be an odd integer >= 3")
    if n > MAX_RANK:
        raise SchemaError(f"field 'n': rank {n} above the supported {MAX_RANK}")
    p = obj.get("p", DEFAULT_P)
    if p == "rationals":
        field = Rationals()
    elif isinstance(p, int):
        try:
            field = PrimeField(p)
        except ValueError as exc:
            raise SchemaError(f"field 'p': {exc}") from exc
    else:
        raise SchemaError("field 'p' must be an odd prime or 'rationals'")
    try:
        ring = ring_from_json(field, obj["ring"])
    except SchemaError as exc:
        raise SchemaError(f"field 'ring': {exc}") from exc
    sig = obj.get("signature", [n - 1, 1])
    if (not isinstance(sig, list) or len(sig) != 2
            or not all(is_json_int(t) and t >= 0 for t in sig) or sum(sig) != n):
        raise SchemaError(f"field 'signature' must be a pair r, s >= 0 of "
                          f"integers with r + s = {n}, got {sig!r}")
    x = obj["X"]
    if not isinstance(x, list) or len(x) != n or any(
            not isinstance(row, list) or len(row) != n for row in x):
        raise SchemaError("field 'X' must be an n x n array of entries")
    rows = []
    for i, row in enumerate(x):
        out = []
        for j, entry in enumerate(row):
            try:
                out.append(ring.element_from_json(entry))
            except (SchemaError, ValueError) as exc:
                raise SchemaError(f"field 'X[{i}][{j}]': {exc}") from exc
        rows.append(tuple(out))
    return ChartPoint(n, ring, tuple(rows), tuple(sig))
