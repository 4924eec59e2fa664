"""Coefficient rings for chart points: the residue field itself, dual
numbers over it, and multivariate polynomials over it.

Every ring exposes the same small protocol (zero, one, add, sub, mul, neg,
is_zero, from_base, and JSON conversion of elements) so the wedge machinery
and the membership checks stay generic.  Elements are plain values: a field element, an (a, b) pair
with b multiplying the square-zero generator, or a sparse
{exponent-tuple: coefficient} map.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SchemaError
from .fields import is_json_int


@dataclass(frozen=True)
class FieldRing:
    """The residue field viewed as a coefficient ring."""

    field: object

    kind = "field"

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

    def element_to_json(self, a):
        return self.field.element_to_json(a)

    def element_from_json(self, obj):
        return self.field.element_from_json(obj)


@dataclass(frozen=True)
class DualNumbers:
    """k[x]/(x^2): elements are pairs (a, b) meaning a + b*x, with
    (a, b) * (c, d) = (a*c, a*d + b*c)."""

    field: object

    kind = "dual"

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

    def element_to_json(self, a):
        return [self.field.element_to_json(a[0]), self.field.element_to_json(a[1])]

    def element_from_json(self, obj):
        if not (isinstance(obj, list) and len(obj) == 2):
            raise SchemaError(f"dual number entry must be a pair, got {obj!r}")
        return (self.field.element_from_json(obj[0]),
                self.field.element_from_json(obj[1]))


@dataclass(frozen=True)
class PolyRing:
    """Multivariate polynomials over the base field with named variables.
    Elements are sparse {exponent tuple: coefficient} maps."""

    field: object
    names: tuple

    kind = "poly"

    @property
    def nvars(self) -> int:
        return len(self.names)

    @property
    def zero(self):
        return {}

    @property
    def one(self):
        return {(0,) * self.nvars: self.field.one}

    def var(self, i: int):
        exps = [0] * self.nvars
        exps[i] = 1
        return {tuple(exps): self.field.one}

    def const(self, c):
        if self.field.is_zero(c):
            return {}
        return {(0,) * self.nvars: c}

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

    def is_zero(self, a) -> bool:
        return not a

    def from_base(self, c):
        return self.const(c)

    def is_homogeneous_linear(self, a) -> bool:
        return bool(a) and all(sum(m) == 1 for m in a)

    def linear_row(self, a) -> list:
        """Coefficient vector of a homogeneous linear polynomial."""
        row = [self.field.zero] * self.nvars
        for m, c in a.items():
            row[m.index(1)] = c
        return row

    def element_to_json(self, a):
        return [{"coeff": self.field.element_to_json(c), "exponents": list(m)}
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
            exps = tuple(exps)
            if len(exps) != self.nvars:
                raise SchemaError(
                    f"term has {len(exps)} exponents for {self.nvars} variables")
            c = f.element_from_json(term["coeff"])
            if not f.is_zero(c):
                out[exps] = f.add(out.get(exps, f.zero), c)
        return {m: c for m, c in out.items() if not f.is_zero(c)}


def ring_from_json(field, obj):
    """Build a coefficient ring from its JSON description."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError("ring description must be an object with a 'kind'")
    kind = obj["kind"]
    if kind == "field":
        return FieldRing(field)
    if kind == "dual":
        return DualNumbers(field)
    if kind == "poly":
        names = obj.get("variables")
        if not isinstance(names, list) or not all(isinstance(s, str) for s in names):
            raise SchemaError("polynomial ring requires a 'variables' list of names")
        return PolyRing(field, tuple(names))
    raise SchemaError(f"unsupported ring kind {kind!r}")


def ring_to_json(ring) -> dict:
    if ring.kind == "poly":
        return {"kind": "poly", "variables": list(ring.names)}
    return {"kind": ring.kind}
