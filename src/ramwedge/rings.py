"""Coefficient rings for chart points: the residue field itself, dual
numbers over it, and multivariate polynomials over it.

Every ring exposes the same small protocol (zero, one, add, sub, mul, neg,
is_zero, from_base, and JSON conversion of elements) so the chart and
membership checks stay generic.  Elements are plain values: a field
element, an (a, b) pair with b multiplying the square-zero generator, or a
sparse {monomial key: coefficient} map.  The wedge fold reads an element
as its k-basis expansion instead: monomials gives (int key, field
coefficient) pairs (key 0 in the field, 0 and 1 for 1 and x in the dual
numbers, the packed key of a polynomial) and from_monomials takes a
{key: coefficient} map back.  The key of a product is the sum of the keys;
one that sets overflow_bits goes to overflowed, which drops it or raises.

A polynomial's monomial key packs its exponent vector into one int, a
fixed-width field per variable with variable 0 in the most significant
field, so the key of a product is the sum of the keys and int order is
exponent-tuple order.  The top bit of each field is a guard: PolyRing.mul
and the fold raise instead of letting a field carry into its neighbour,
and JSON input refuses exponents above EXPONENT_CAP, so a product of at
most MAX_RANK input entries (each entry a chart computation forms is one)
stays below the guard.  Keys are packed and unpacked only in this module:
var, one, const, is_homogeneous_linear, linear_row and the JSON
conversions; the fold adds them but never unpacks them.
"""

from __future__ import annotations

from functools import cached_property

from .errors import SchemaError
from .fields import is_json_int
from .indexsets import MAX_RANK
from .records import frozen

FIELD_BITS = 16  # bits per variable in a monomial key, the top one a guard
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1  # the largest below the guard
EXPONENT_CAP = MAX_EXPONENT // MAX_RANK  # the largest in JSON input


@frozen
class FieldRing:
    """The residue field viewed as a coefficient ring."""

    field: object

    kind = "field"
    overflow_bits = 0  # no product leaves key 0

    @property
    def zero(self):
        return self.field.zero

    @property
    def one(self):
        return self.field.one

    def add(self, a, b):
        return self.field.add(a, b)

    def sub(self, a, b):
        return self.field.sub(a, b)

    def mul(self, a, b):
        return self.field.mul(a, b)

    def neg(self, a):
        return self.field.neg(a)

    def is_zero(self, a) -> bool:
        return self.field.is_zero(a)

    def from_base(self, c):
        return c

    def monomials(self, a):
        return ((0, a),)

    def from_monomials(self, terms):
        return terms[0]

    def element_to_json(self, a):
        return self.field.element_to_json(a)

    def element_from_json(self, obj):
        return self.field.element_from_json(obj)


@frozen
class DualNumbers:
    """k[x]/(x^2): elements are pairs (a, b) meaning a + b*x, with
    (a, b) * (c, d) = (a*c, a*d + b*c)."""

    field: object

    kind = "dual"
    overflow_bits = 2  # the key of x * x

    def overflowed(self):
        """x^2 = 0: the product is dropped."""

    @property
    def zero(self):
        return (self.field.zero, self.field.zero)

    @property
    def one(self):
        return (self.field.one, self.field.zero)

    def x(self):
        return (self.field.zero, self.field.one)

    def add(self, a, b):
        f = self.field
        return (f.add(a[0], b[0]), f.add(a[1], b[1]))

    def sub(self, a, b):
        f = self.field
        return (f.sub(a[0], b[0]), f.sub(a[1], b[1]))

    def mul(self, a, b):
        f = self.field
        return (f.mul(a[0], b[0]), f.add(f.mul(a[0], b[1]), f.mul(a[1], b[0])))

    def neg(self, a):
        f = self.field
        return (f.neg(a[0]), f.neg(a[1]))

    def is_zero(self, a) -> bool:
        f = self.field
        return f.is_zero(a[0]) and f.is_zero(a[1])

    def from_base(self, c):
        return (c, self.field.zero)

    def monomials(self, a):
        return ((0, a[0]), (1, a[1]))

    def from_monomials(self, terms):
        return (terms.get(0, self.field.zero), terms.get(1, self.field.zero))

    def element_to_json(self, a):
        return [self.field.element_to_json(a[0]), self.field.element_to_json(a[1])]

    def element_from_json(self, obj):
        if not (isinstance(obj, list) and len(obj) == 2):
            raise SchemaError(f"dual number entry must be a pair, got {obj!r}")
        return (self.field.element_from_json(obj[0]),
                self.field.element_from_json(obj[1]))


@frozen
class PolyRing:
    """Multivariate polynomials over the base field with named variables.
    Elements are sparse {monomial key: coefficient} maps; a key is the
    packed exponent vector of the module docstring."""

    field: object
    names: tuple

    kind = "poly"

    @property
    def nvars(self) -> int:
        return len(self.names)

    @cached_property
    def _shifts(self) -> tuple:
        """The bit offset of each variable's field, variable 0 in the top one."""
        return tuple(FIELD_BITS * (self.nvars - 1 - i) for i in range(self.nvars))

    @cached_property
    def _var_index(self) -> dict:
        """{key of variable i: i}."""
        return {1 << shift: i for i, shift in enumerate(self._shifts)}

    @cached_property
    def overflow_bits(self) -> int:
        """The guard bits of every field."""
        return sum(1 << (shift + FIELD_BITS - 1) for shift in self._shifts)

    def overflowed(self):
        raise OverflowError(f"a product over {self.names} has an "
                            f"exponent above {MAX_EXPONENT}")

    def _pack(self, exps) -> int:
        return sum(e << shift for e, shift in zip(exps, self._shifts))

    def _unpack(self, m: int) -> list:
        low = (1 << FIELD_BITS) - 1
        return [(m >> shift) & low for shift in self._shifts]

    @property
    def zero(self):
        return {}

    @property
    def one(self):
        return {0: self.field.one}

    def var(self, i: int):
        return {1 << self._shifts[i]: self.field.one}

    def const(self, c):
        if self.field.is_zero(c):
            return {}
        return {0: c}

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
        # a product of nonzero field elements is nonzero, so a fresh key
        # takes it untested; the field ops are looked up on each call, not
        # cached on the ring, so one patched later still sees every product
        f = self.field
        fmul, fadd, fzero = f.mul, f.add, f.is_zero
        guard = self.overflow_bits
        out = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = m1 + m2
                if m & guard:
                    self.overflowed()
                c = fmul(c1, c2)
                if m in out:
                    s = fadd(out[m], c)
                    if fzero(s):
                        del out[m]
                    else:
                        out[m] = s
                else:
                    out[m] = c
        return out

    def neg(self, a):
        return {m: self.field.neg(c) for m, c in a.items()}

    def is_zero(self, a) -> bool:
        return not a

    def from_base(self, c):
        return self.const(c)

    def monomials(self, a):
        return a.items()

    def from_monomials(self, terms):
        return terms

    def is_homogeneous_linear(self, a) -> bool:
        return bool(a) and all(m in self._var_index for m in a)

    def linear_row(self, a) -> list:
        """Coefficient vector of a homogeneous linear polynomial."""
        row = [self.field.zero] * self.nvars
        for m, c in a.items():
            row[self._var_index[m]] = c
        return row

    def element_to_json(self, a):
        return [{"coeff": self.field.element_to_json(c), "exponents": self._unpack(m)}
                for m, c in sorted(a.items())]

    def element_from_json(self, obj):
        if not isinstance(obj, list):
            raise SchemaError(f"polynomial entry must be a list of terms, got {obj!r}")
        out = {}
        f = self.field
        for term in obj:
            if not (isinstance(term, dict) and "coeff" in term and "exponents" in term):
                raise SchemaError(f"polynomial term must carry coeff and exponents: {term!r}")
            exps = term["exponents"]
            if not (isinstance(exps, list)
                    and all(is_json_int(e) and e >= 0 for e in exps)):
                raise SchemaError(
                    f"exponents must be a list of non-negative integers, got {exps!r}")
            if len(exps) != self.nvars:
                raise SchemaError(
                    f"term has {len(exps)} exponents for {self.nvars} variables")
            if any(e > EXPONENT_CAP for e in exps):
                raise SchemaError(f"exponents {exps!r} exceed the cap {EXPONENT_CAP}")
            c = f.element_from_json(term["coeff"])
            if not f.is_zero(c):
                m = self._pack(exps)
                out[m] = f.add(out.get(m, f.zero), c)
        return {m: c for m, c in out.items() if not f.is_zero(c)}


def ring_from_json(field, obj):
    """Build a coefficient ring from its JSON description."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError("ring description must be an object with a 'kind'")
    kind = obj["kind"]
    if kind not in ("field", "dual", "poly"):
        raise SchemaError(f"unsupported ring kind {kind!r}")
    known = ("kind", "variables") if kind == "poly" else ("kind",)
    if extra := [key for key in obj if key not in known]:
        raise SchemaError(f"unknown key {extra[0]!r} in a {kind} ring")
    if kind == "field":
        return FieldRing(field)
    if kind == "dual":
        return DualNumbers(field)
    names = obj.get("variables")
    if not isinstance(names, list) or not all(isinstance(s, str) for s in names):
        raise SchemaError("polynomial ring requires a 'variables' list of names")
    if len(set(names)) < len(names):
        raise SchemaError(f"duplicate names in 'variables' {names}")
    return PolyRing(field, tuple(names))


def ring_to_json(ring) -> dict:
    if ring.kind == "poly":
        return {"kind": "poly", "variables": list(ring.names)}
    return {"kind": ring.kind}
