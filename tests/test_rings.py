"""Coefficient rings: dual numbers, polynomials, JSON encodings, and the
packed monomial keys against tuple-keyed reference arithmetic."""

import json
import random

import pytest

from oracles import TuplePolyRing
from ramwedge.errors import SchemaError
from ramwedge.fields import PrimeField, Rationals
from ramwedge.indexsets import MAX_RANK
from ramwedge.rings import (EXPONENT_CAP, DualNumbers, FieldRing, PolyRing,
                            ring_from_json)

F = PrimeField(13)


def test_dual_number_product_rule():
    d = DualNumbers(F)
    a = (F.of_int(2), F.of_int(3))
    b = (F.of_int(5), F.of_int(7))
    assert d.mul(a, b) == (F.of_int(10), F.of_int(2 * 7 + 3 * 5))


def test_dual_number_nilpotent():
    d = DualNumbers(F)
    x = d.x()
    assert d.is_zero(d.mul(x, x))
    assert not d.is_zero(x)


def test_poly_arithmetic():
    r = PolyRing(F, ("a", "b"))
    a, b = r.var(0), r.var(1)
    prod = r.mul(r.add(a, b), r.sub(a, b))
    assert prod == r.sub(r.mul(a, a), r.mul(b, b))
    assert r.is_zero(r.sub(prod, prod))


def test_poly_linear_helpers():
    r = PolyRing(F, ("a", "b", "c"))
    lin = r.add(r.var(0), r.mul(r.const(F.of_int(5)), r.var(2)))
    assert r.is_homogeneous_linear(lin)
    assert r.linear_row(lin) == [F.one, F.zero, F.of_int(5)]
    assert not r.is_homogeneous_linear(r.mul(r.var(0), r.var(1)))
    assert not r.is_homogeneous_linear(r.add(r.var(0), r.one))
    assert not r.is_homogeneous_linear(r.zero)


def test_ring_json_round_trips():
    d = DualNumbers(F)
    x = (F.of_int(4), F.of_int(9))
    assert d.element_from_json(d.element_to_json(x)) == x
    r = PolyRing(F, ("a", "b"))
    p = r.add(r.var(0), r.mul(r.const(F.of_int(3)), r.var(1)))
    assert r.element_from_json(r.element_to_json(p)) == p
    fr = FieldRing(Rationals())
    v = Rationals().of_int(7) / 3
    assert fr.element_from_json(fr.element_to_json(v)) == v


def test_ring_from_json():
    assert ring_from_json(F, {"kind": "field"}).kind == "field"
    assert ring_from_json(F, {"kind": "dual"}).kind == "dual"
    poly = ring_from_json(F, {"kind": "poly", "variables": ["a", "b"]})
    assert poly.names == ("a", "b")
    with pytest.raises(SchemaError):
        ring_from_json(F, {"kind": "poly"})
    with pytest.raises(SchemaError):
        ring_from_json(F, {"kind": "series"})
    with pytest.raises(SchemaError):
        ring_from_json(F, "field")


def test_malformed_elements_rejected():
    d = DualNumbers(F)
    with pytest.raises(SchemaError):
        d.element_from_json(3)
    r = PolyRing(F, ("a",))
    with pytest.raises(SchemaError):
        r.element_from_json([{"coeff": 1, "exponents": [1, 2]}])
    with pytest.raises(SchemaError):
        r.element_from_json([{"coefficient": 1}])


def _random_terms(rng, field, nvars):
    """JSON terms of a random polynomial: three times in ten homogeneous
    linear, else up to five terms with exponents up to the input cap (most
    of them zero).  Coefficients are ints over F_13, ints or fractions over Q."""
    linear = rng.random() < 0.3
    terms = []
    for _ in range(rng.randrange(1, 6)):
        if linear:
            exps = [0] * nvars
            exps[rng.randrange(nvars)] = 1
        else:
            exps = [rng.choice((0, 0, 1, 2, EXPONENT_CAP, rng.randrange(EXPONENT_CAP + 1)))
                    for _ in range(nvars)]
        coeff = rng.randrange(-20, 21)
        if isinstance(field, Rationals) and rng.random() < 0.5:
            coeff = f"{coeff}/{rng.randrange(1, 8)}"
        terms.append({"coeff": coeff, "exponents": exps})
    return terms


@pytest.mark.parametrize("nvars", [1, 2, 3, 64])
@pytest.mark.parametrize("field", [F, Rationals()], ids=["F13", "Q"])
def test_packed_keys_agree_with_tuple_keyed_arithmetic(field, nvars):
    rng = random.Random(f"packed:{field.key()}:{nvars}")
    ring = PolyRing(field, tuple(f"x{i}" for i in range(nvars)))
    oracle = TuplePolyRing(field, nvars)

    def unpacked(a):
        return [(tuple(ring._unpack(m)), c) for m, c in a.items()]

    def same(got, want):
        assert unpacked(got) == list(want.items())
        assert (json.dumps(ring.element_to_json(got))
                == json.dumps(oracle.element_to_json(want)))

    for _ in range(60):
        pair = [_random_terms(rng, field, nvars) for _ in range(2)]
        a, b = (ring.element_from_json(t) for t in pair)
        oa, ob = (oracle.element_from_json(t) for t in pair)
        same(a, oa)
        same(b, ob)
        for op in ("add", "sub", "mul"):
            same(getattr(ring, op)(a, b), getattr(oracle, op)(oa, ob))
        same(ring.neg(a), oracle.neg(oa))
        assert ring.is_homogeneous_linear(a) == oracle.is_homogeneous_linear(oa)
        if oracle.is_homogeneous_linear(oa):
            assert ring.linear_row(a) == oracle.linear_row(oa)


def test_product_past_the_field_raises_instead_of_wrapping():
    r = PolyRing(F, ("a", "b", "c"))
    b_cap = r.element_from_json([{"coeff": 1, "exponents": [0, EXPONENT_CAP, 0]}])
    power = r.one
    for _ in range(MAX_RANK):  # a chart computation's longest product
        power = r.mul(power, b_cap)
    assert r.element_to_json(power) == [
        {"coeff": 1, "exponents": [0, MAX_RANK * EXPONENT_CAP, 0]}]
    with pytest.raises(OverflowError):
        r.mul(power, b_cap)

