"""Exact arithmetic in k((pi)) with pi^2 playing the role of the degree-0
uniformizer: Laurent polynomials in pi over a base field, each known modulo
pi^precision.

One scalar type, PiLaurent, carries a precision N and stores coefficients
only for exponents below N; precision INF means the element is exact.
Arithmetic results carry the minimum precision of the operands, so only
truncated inverses (needed for division by non-monomials) and what is
computed from them are inexact.  Zero coefficients are never stored, so an
empty element of finite precision means "zero to the stored precision" and
its valuation is indeterminate.
"""

from __future__ import annotations

import math

from .errors import FieldMismatchError, IndeterminateValuationError
from .records import frozen

INF = math.inf


@frozen
class PiLaurent:
    """sum_e c_e * pi^e with c_e in the base field, known modulo
    pi^precision (INF: a finite Laurent polynomial, exact)."""

    field: object
    coeffs: dict
    precision: float = INF

    @staticmethod
    def make(field, coeffs: dict, precision=INF) -> "PiLaurent":
        """Drops zero coefficients and exponents at or above the precision."""
        return PiLaurent(field, {e: c for e, c in coeffs.items()
                                 if e < precision and not field.is_zero(c)},
                         precision)

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
        """Least exponent with nonzero coefficient; +inf for the exact zero.
        Raises IndeterminateValuationError for a zero of finite precision."""
        if not self.coeffs:
            if self.precision == INF:
                return INF
            raise IndeterminateValuationError(
                f"zero to precision {self.precision}; valuation indeterminate")
        return min(self.coeffs)

    def scale(self, c) -> "PiLaurent":
        f = self.field
        return PiLaurent.make(f, {e: f.mul(v, c) for e, v in self.coeffs.items()},
                              self.precision)

    def shift(self, k: int) -> "PiLaurent":
        return PiLaurent(self.field, {e + k: v for e, v in self.coeffs.items()},
                         self.precision + k)

    def truncate(self, precision: int) -> "PiLaurent":
        return PiLaurent.make(self.field, self.coeffs, min(self.precision, precision))

    def residue(self):
        """Coefficient of pi^0, requiring ord >= 0 and precision > 0."""
        if self.coeffs and min(self.coeffs) < 0:
            raise ValueError("residue of an element with negative valuation")
        if self.precision <= 0:
            raise IndeterminateValuationError("residue not determined at this precision")
        return self.coeffs.get(0, self.field.zero)

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
    return PiLaurent(f, {e: f.neg(c) for e, c in a.coeffs.items()}, a.precision)


def _add(a, b):
    _check_fields(a, b)
    f = a.field
    prec = min(a.precision, b.precision)
    out = dict(a.coeffs)
    for e, c in b.coeffs.items():
        s = f.add(out.get(e, f.zero), c)
        if f.is_zero(s):
            out.pop(e, None)
        else:
            out[e] = s
    if prec != INF:
        out = {e: c for e, c in out.items() if e < prec}
    return PiLaurent(f, out, prec)


def _mul(a, b):
    _check_fields(a, b)
    f = a.field
    prec = min(a.precision, b.precision)
    out = {}
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            e = e1 + e2
            if e >= prec:
                continue
            s = f.add(out.get(e, f.zero), f.mul(c1, c2))
            if f.is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
    return PiLaurent(f, out, prec)


def truncated_inverse(a, precision: int) -> PiLaurent:
    """Multiplicative inverse of a, correct so that a * result == 1 through
    pi-exponent precision - 1.  The result has valuation -ord(a)."""
    if a.is_zero:
        raise ValueError("inverse of zero")
    f = a.field
    v = a.ord()
    lead_inv = f.inv(a.coeffs[v])
    if len(a.coeffs) == 1:
        # c * pi^v: the series below stops at its first term, 1 / c at the
        # relative precision min(precision, a.precision - v)
        return PiLaurent.make(f, {-v: lead_inv}, min(precision, a.precision - v) - v)
    # The unit part carries the relative precision of the geometric series
    # 1/(1 + t): the request, or less if a itself is truncated.
    unit = a.shift(-v).scale(lead_inv).truncate(precision)
    t = _add(unit, PiLaurent.make(f, {0: f.neg(f.one)}))
    acc = PiLaurent.make(f, {0: f.one}, unit.precision)
    term = acc
    while not term.is_zero:
        term = _neg(_mul(term, t))
        acc = _add(acc, term)
    return acc.scale(lead_inv).shift(-v)


class LaurentOps:
    """Coefficient-ring adapter so generic wedge code can run over
    PiLaurent scalars; the fold reads an exact element's pi-exponents as its
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
        if a.precision != INF:
            raise ValueError(f"the wedge fold takes exact scalars, not one known "
                             f"modulo pi^{a.precision}")
        return a.coeffs.items()

    def from_monomials(self, terms):
        return PiLaurent(self.field, terms)
