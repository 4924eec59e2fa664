"""Frozen records (records.frozen): construction, equality within one
class, hashing, repr, immutability and replace, for every record class in
the package."""

import importlib
import inspect
import pkgutil

import pytest

import ramwedge
from ramwedge.chart import ChartPoint, ConditionReport, Verdict
from ramwedge.drivers import Certificate
from ramwedge.exterior import Frame, WedgeVector
from ramwedge.fields import PrimeField, Rationals
from ramwedge.indexsets import IndexSet
from ramwedge.lattices import (AnnihilatorSet, DVRTriangularBasis, MembershipResult,
                               ResidueBasis)
from ramwedge.records import replace
from ramwedge.rings import DualNumbers, FieldRing, PolyRing
from ramwedge.scalars import PiLaurent

F = PrimeField(13)


def samples() -> dict:
    """The fields of one record of each class, built afresh on each call,
    so that dict fields are equal but not the same object."""
    return {
        PrimeField: {"p": 13},
        Rationals: {},
        FieldRing: {"field": F},
        DualNumbers: {"field": F},
        PolyRing: {"field": F, "names": ("a", "b")},
        PiLaurent: {"field": F, "coeffs": {0: 1, 2: 5}},
        IndexSet: {"n": 3, "mask": 0b101},
        WedgeVector: {"n": 3, "terms": {0b111: PiLaurent(F, {0: 1})}},
        Frame: {"kind": "g_split", "n": 3, "field": F, "vectors": ({0: 1},)},
        DVRTriangularBasis: {"n": 3, "degree": 3, "field": F,
                             "pivots": ((0b111, 0),), "columns": ()},
        ResidueBasis: {"n": 3, "degree": 3, "field": F, "vectors": (),
                       "pivots": ()},
        AnnihilatorSet: {"n": 3, "degree": 3, "field": F, "support": (0b111,),
                         "functionals": (), "span_rank": 1},
        MembershipResult: {"ok": False, "witness": "coordinate(1, 2, 3)",
                           "value": 1},
        Verdict: {"status": "fail", "witness": "functional[0]"},
        ChartPoint: {"n": 3, "ring": FieldRing(F), "rows": ((0, 0, 0),) * 3,
                     "signature": (2, 1)},
        ConditionReport: {"conditions": {"naive": Verdict("pass")}},
        Certificate: {"result": "sign-lemma", "params": {"n_max": 3},
                      "verdict": "pass", "evidence": {}},
    }


def record_classes() -> set:
    """Every class in the package that records.frozen made a record."""
    found = set()
    for info in pkgutil.iter_modules(ramwedge.__path__):
        module = importlib.import_module(f"ramwedge.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and "_fields" in vars(cls):
                found.add(cls)
    return found


CLASSES = list(samples())


def test_every_record_class_has_a_sample():
    assert record_classes() == set(CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_record_semantics(cls):
    fields = samples()[cls]
    assert cls._fields == tuple(fields)
    record, again = cls(**fields), cls(*samples()[cls].values())
    assert record == again and not record != again and record is not again
    values = tuple(fields.values())
    try:
        hash(values)
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)  # a dict field makes the record unhashable
    else:
        assert hash(record) == hash(again) == hash(values)
    assert record.__eq__(values) is NotImplemented
    assert repr(record) == (f"{cls.__name__}("
                            + ", ".join(f"{f}={v!r}" for f, v in fields.items()) + ")")
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.unknown = 1
    copy = replace(record)
    assert copy == record and copy is not record and type(copy) is cls
    with pytest.raises(TypeError):
        replace(record, unknown=1)


def test_records_of_different_classes_are_never_equal():
    assert FieldRing(F) != DualNumbers(F)
    assert DualNumbers(F) != FieldRing(F)
    assert len({FieldRing(F), DualNumbers(F), FieldRing(PrimeField(13))}) == 2
    assert MembershipResult(True) != Verdict(True)


def test_defaults_keywords_and_replace():
    assert Verdict("pass") == Verdict(status="pass", witness=None)
    assert MembershipResult(True) == MembershipResult(True, None, None)
    assert Verdict("pass").witness is None
    assert repr(PrimeField(13)) == "PrimeField(p=13)"
    assert repr(Rationals()) == "Rationals()"
    assert repr(Verdict("pass")) == "Verdict(status='pass', witness=None)"
    x = Verdict("fail")
    y = replace(x, witness="functional[0]")
    assert (y.status, y.witness) == ("fail", "functional[0]") and x.witness is None


def test_post_init_still_validates():
    with pytest.raises(ValueError, match="not prime"):
        PrimeField(4)
    with pytest.raises(ValueError, match="odd n"):
        ChartPoint(4, FieldRing(F), ((0,) * 4,) * 4, (3, 1))
    point = samples()[ChartPoint]
    with pytest.raises(ValueError, match="partition"):
        replace(ChartPoint(**point), signature=(3, 1))


def test_cached_property_on_a_record():
    ann = AnnihilatorSet(**samples()[AnnihilatorSet])
    assert ann.support_set == frozenset({0b111})
    assert ann.support_set is ann.support_set
