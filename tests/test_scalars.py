"""Exact Laurent arithmetic: examples and seeded properties."""

import math
import random

import pytest

from ramwedge.errors import FieldMismatchError
from ramwedge.fields import PrimeField, Rationals, _is_prime
from ramwedge.scalars import PiLaurent, truncated_inverse

from oracles import series_inverse

F13 = PrimeField(13)


def L(field, coeffs):
    return PiLaurent.make(field, {e: field.of_int(c) for e, c in coeffs.items()})


def test_base_field_validation():
    with pytest.raises(ValueError):
        PrimeField(2)
    with pytest.raises(ValueError):
        PrimeField(9)


def test_primality_agrees_with_trial_division_below_ten_thousand():
    def trial(m):
        return m > 1 and all(m % d for d in range(2, math.isqrt(m) + 1))
    assert [m for m in range(10_000) if _is_prime(m)] == [m for m in range(10_000) if trial(m)]


@pytest.mark.parametrize("p,prime", [
    (10**18 + 3, True), (2**61 - 1, True), (2**64 - 59, True),
    (10**18 + 1, False), (561, False), (3825123056546413051, False),
], ids=["1e18+3", "2^61-1", "2^64-59", "1e18+1", "carmichael-561", "psp-to-23"])
def test_large_moduli_are_decided_at_once(p, prime):
    # 3825123056546413051 passes the strong test to every prime base up to 23
    assert _is_prime(p) == prime
    if prime:
        assert PrimeField(p).p == p
    else:
        with pytest.raises(ValueError, match="is not prime"):
            PrimeField(p)


@pytest.mark.parametrize("p", [2**64, 2**64 + 13, 10**40 + 121])
def test_moduli_from_two_to_the_64_are_refused(p):
    with pytest.raises(ValueError, match="is not below 2\\^64"):
        PrimeField(p)


def test_add_cancellation():
    a = L(F13, {1: 1, -1: 1})        # pi + pi^-1
    b = L(F13, {-1: -1})             # -pi^-1
    assert a + b == L(F13, {1: 1})


def test_pi_squared_representative():
    pi = PiLaurent.monomial(F13, 1)
    assert pi * pi == PiLaurent.monomial(F13, 2)


def test_difference_of_squares():
    one_plus = L(F13, {0: 1, 1: 1})
    one_minus = L(F13, {0: 1, 1: -1})
    assert one_plus * one_minus == L(F13, {0: 1, 2: -1})


def test_field_mismatch_rejected():
    a = PiLaurent.one(F13)
    b = PiLaurent.one(PrimeField(5))
    with pytest.raises(FieldMismatchError):
        a + b


def test_mixed_fields_raise_and_equal_fields_mix():
    # the identity test comes first; an equal field of another instance
    # still passes, and a different field raises in both sum and product
    a = L(F13, {1: 2})
    twin = L(PrimeField(13), {0: 3})
    assert a + twin == L(F13, {0: 3, 1: 2})
    assert a * twin == L(F13, {1: 6})
    other = L(PrimeField(5), {0: 1})
    for op in (lambda x, y: x + y, lambda x, y: x * y):
        with pytest.raises(FieldMismatchError):
            op(a, other)
        with pytest.raises(FieldMismatchError):
            op(L(Rationals(), {0: 1}), a)


def test_ord_examples():
    assert L(F13, {-2: 3, 1: 1}).ord() == -2
    assert PiLaurent.zero(F13).ord() == math.inf


def test_make_drops_zero_coefficients():
    assert PiLaurent.make(F13, {0: 1, 2: 0, 5: 3}).coeffs == {0: 1, 5: 3}


def test_truncated_inverse_monomial():
    inv = truncated_inverse(PiLaurent.monomial(F13, 1))
    assert dict(inv.coeffs) == {-1: 1}


def test_truncated_inverse_constant_mod_5():
    f5 = PrimeField(5)
    # independent oracle: modular inverse
    assert pow(2, -1, 5) == 3
    inv = truncated_inverse(PiLaurent.const(f5, 2))
    assert dict(inv.coeffs) == {0: 3}


def test_truncated_inverse_zero_rejected():
    with pytest.raises(ValueError):
        truncated_inverse(PiLaurent.zero(F13))


def _random_laurent(rng, field, allow_zero=False):
    coeffs = {}
    for _ in range(rng.randrange(0 if allow_zero else 1, 4)):
        coeffs[rng.randrange(-5, 6)] = field.of_int(rng.randrange(1, 13))
    return PiLaurent.make(field, coeffs)


def test_ord_is_additive_and_ultrametric():
    rng = random.Random(1)
    for _ in range(300):
        a = _random_laurent(rng, F13)
        b = _random_laurent(rng, F13)
        if a.is_zero or b.is_zero:
            continue
        assert (a * b).ord() == a.ord() + b.ord()
        s = a + b
        if not s.is_zero:
            assert s.ord() >= min(a.ord(), b.ord())
        if a.ord() != b.ord():
            assert s.ord() == min(a.ord(), b.ord())


@pytest.mark.parametrize("seed", [4, 9, 24])
def test_inverse_agrees_through_requested_exponent(seed):
    # the inverse of a monomial is exact; a non-monomial has none, and its
    # series inverse agrees with 1 through the requested relative exponent
    rng = random.Random(seed)
    for _ in range(60):
        a = _random_laurent(rng, F13)
        if len(a.coeffs) == 1:
            inv = truncated_inverse(a)
            assert inv.ord() == -a.ord() and a * inv == PiLaurent.one(F13)
            continue
        with pytest.raises(ValueError, match="not a monomial"):
            truncated_inverse(a)
        assert (a * series_inverse(a, seed) - PiLaurent.one(F13)).ord() >= seed


def test_inverse_over_rationals():
    q = Rationals()
    a = PiLaurent.monomial(q, -3, q.of_int(3) / 7)
    assert a * truncated_inverse(a) == PiLaurent.one(q)
    assert dict(truncated_inverse(a).coeffs) == {3: q.of_int(7) / 3}
    with pytest.raises(ValueError, match="not a monomial"):
        truncated_inverse(PiLaurent.make(q, {0: q.of_int(3), 2: q.of_int(-7)}))


def test_json_round_trip():
    a = L(F13, {-2: 5, 3: 11})
    assert a.to_json() == [[-2, 5], [3, 11]]
    q = Rationals()
    b = PiLaurent.make(q, {1: q.of_int(-2), 0: q.of_int(1) / 3})
    assert b.to_json() == [[0, "1/3"], [1, "-2/1"]]
