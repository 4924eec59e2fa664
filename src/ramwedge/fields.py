"""Base coefficient fields: a prime field F_p with p odd, or the rationals.

Field elements are plain Python values (int residues for F_p, Fraction for
the rationals); the field object supplies the operations.  Characteristic 2
is rejected everywhere since 1/2 must be invertible.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .records import frozen


def is_json_int(obj) -> bool:
    """JSON true and false load as bool, a subclass of int; they are not
    integers in the schema."""
    return isinstance(obj, int) and not isinstance(obj, bool)


MAX_MODULUS = 1 << 64
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    """The strong probable-prime test to each prime base up to 37, which no
    composite below 3.18 * 10^23 passes: exact below MAX_MODULUS."""
    if p < 2:
        return False
    for q in _WITNESSES:
        if p % q == 0:
            return p == q
    d, r = p - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1:
            continue
        for _ in range(r):
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


@frozen
class PrimeField:
    """The field F_p for an odd prime p; elements are ints in 0..p-1."""

    p: int

    def __post_init__(self):
        if self.p >= MAX_MODULUS:
            raise ValueError(f"modulus {self.p} is not below 2^64")
        if not _is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")
        if self.p == 2:
            raise ValueError("characteristic 2 is not supported")

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def of_int(self, m: int) -> int:
        return m % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, -1, self.p)

    def is_zero(self, a: int) -> bool:
        return a % self.p == 0

    def element_to_json(self, a: int):
        return a % self.p

    def element_from_json(self, obj) -> int:
        if not is_json_int(obj):
            raise ValueError(f"expected integer residue, got {obj!r}")
        return obj % self.p

    def key(self) -> tuple:
        return ("Fp", self.p)


@frozen
class Rationals:
    """The rational numbers; elements are Fraction instances."""

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def of_int(self, m: int) -> Fraction:
        return Fraction(m)

    def add(self, a: Fraction, b: Fraction) -> Fraction:
        return a + b

    def sub(self, a: Fraction, b: Fraction) -> Fraction:
        return a - b

    def mul(self, a: Fraction, b: Fraction) -> Fraction:
        return a * b

    def neg(self, a: Fraction) -> Fraction:
        return -a

    def inv(self, a: Fraction) -> Fraction:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / a

    def is_zero(self, a: Fraction) -> bool:
        return a == 0

    def element_to_json(self, a: Fraction) -> str:
        return f"{a.numerator}/{a.denominator}"

    def element_from_json(self, obj) -> Fraction:
        """A JSON integer, or a string a or a/b of decimal integers with an
        optional leading - (what element_to_json writes); never the
        exponent or decimal forms that Fraction itself would read."""
        if is_json_int(obj):
            return Fraction(obj)
        if isinstance(obj, str) and re.fullmatch(r"-?[0-9]+(/[0-9]+)?", obj):
            try:
                return Fraction(obj)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {obj!r}") from None
        raise ValueError(f"expected integer or fraction string a/b, got {obj!r}")

    def key(self) -> tuple:
        return ("Q",)


def field_from_key(key: tuple):
    if key[0] == "Fp":
        return PrimeField(key[1])
    if key[0] == "Q":
        return Rationals()
    raise ValueError(f"unknown field key {key!r}")
