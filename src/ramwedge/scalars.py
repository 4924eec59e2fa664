"""Exact arithmetic in k((pi)) with pi^2 playing the role of the degree-0
uniformizer: finite Laurent polynomials in pi over a base field.

One scalar type, PiLaurent, and every value is exact: zero coefficients are
never stored, so the empty element is zero, of valuation +inf.
"""

from __future__ import annotations

import math

from .errors import FieldMismatchError
from .records import frozen

INF = math.inf


@frozen
class PiLaurent:
    """sum_e c_e * pi^e with c_e in the base field, a finite sum."""

    field: object
    coeffs: dict

    @staticmethod
    def make(field, coeffs: dict) -> "PiLaurent":
        """Drops zero coefficients."""
        return PiLaurent(field, {e: c for e, c in coeffs.items() if not field.is_zero(c)})

    @staticmethod
    def zero(field) -> "PiLaurent":
        return PiLaurent(field, {})

    @staticmethod
    def one(field) -> "PiLaurent":
        return PiLaurent(field, {0: field.one})

    @staticmethod
    def const(field, c) -> "PiLaurent":
        return PiLaurent.make(field, {0: c})

    @staticmethod
    def monomial(field, exp: int, c=None) -> "PiLaurent":
        if c is None:
            c = field.one
        return PiLaurent.make(field, {exp: c})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def ord(self):
        """Least exponent with nonzero coefficient; +inf for zero."""
        return min(self.coeffs) if self.coeffs else INF

    def shift(self, k: int) -> "PiLaurent":
        return PiLaurent(self.field, {e + k: v for e, v in self.coeffs.items()})

    def __add__(self, other):
        return _add(self, other)

    def __sub__(self, other):
        return _add(self, _neg(other))

    def __mul__(self, other):
        return _mul(self, other)

    def __neg__(self):
        return _neg(self)

    def to_json(self):
        return [[e, self.field.element_to_json(c)] for e, c in sorted(self.coeffs.items())]


def _check_fields(a, b):
    if a.field is not b.field and a.field != b.field:
        raise FieldMismatchError(f"mixed base fields {a.field} and {b.field}")


def _neg(a):
    f = a.field
    return PiLaurent(f, {e: f.neg(c) for e, c in a.coeffs.items()})


def _add(a, b):
    _check_fields(a, b)
    f = a.field
    out = dict(a.coeffs)
    for e, c in b.coeffs.items():
        s = f.add(out.get(e, f.zero), c)
        if f.is_zero(s):
            out.pop(e, None)
        else:
            out[e] = s
    return PiLaurent(f, out)


def _mul(a, b):
    _check_fields(a, b)
    f = a.field
    out = {}
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            e = e1 + e2
            s = f.add(out.get(e, f.zero), f.mul(c1, c2))
            if f.is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
    return PiLaurent(f, out)


def truncated_inverse(a) -> PiLaurent:
    """The exact inverse c^-1 * pi^-v of a monomial c * pi^v; ValueError for
    zero and for a non-monomial, whose inverse is an infinite series (the
    echelon scales by such a pivot's unit part instead)."""
    if len(a.coeffs) != 1:
        raise ValueError(f"no exact inverse of {a.to_json()}, not a monomial")
    (v, c), = a.coeffs.items()
    return PiLaurent(a.field, {-v: a.field.inv(c)})


class LaurentOps:
    """Coefficient-ring adapter so generic wedge code can run over
    PiLaurent scalars; the fold reads an element's pi-exponents as its
    monomial keys, and no product leaves their range."""

    overflow_bits = 0

    def __init__(self, field):
        self.field = field
        self.zero = PiLaurent.zero(field)
        self.one = PiLaurent.one(field)

    def add(self, a, b):
        return _add(a, b)

    def mul(self, a, b):
        return _mul(a, b)

    def neg(self, a):
        return _neg(a)

    def is_zero(self, a) -> bool:
        return a.is_zero

    def from_base(self, c):
        return PiLaurent.const(self.field, c)

    def monomials(self, a):
        return a.coeffs.items()

    def from_monomials(self, terms):
        return PiLaurent(self.field, terms)
