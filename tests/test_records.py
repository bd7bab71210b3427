"""The contract of the package's record types (``patterns._Record``)."""

from __future__ import annotations

import importlib
import pickle
import pkgutil
from fractions import Fraction

import pytest

import stardyn
from stardyn.certify import CenterOrbit, ForcedPeriod, OracleAbsence
from stardyn.patterns import FiniteOrbitSpec, _Record, parse_pattern
from stardyn.plmap import PLMap, RationalPoint, realize


def _record_types() -> list[type]:
    """The record types of the package, and ``Cylinder``, which moved with
    the cylinder stream that only the tests use to ``reference_scan``."""
    found = []
    names = [f"stardyn.{info.name}" for info in pkgutil.iter_modules(stardyn.__path__)]
    for name in names + ["reference_scan"]:
        module = importlib.import_module(name)
        found += [
            obj
            for obj in vars(module).values()
            if isinstance(obj, type)
            and issubclass(obj, _Record)
            and obj is not _Record
            and obj.__module__ == module.__name__
        ]
    return sorted(found, key=lambda cls: (cls.__module__, cls.__name__))


RECORDS = _record_types()

PINNED = {
    CenterOrbit: (CenterOrbit(period=6), "CenterOrbit(period=6)"),
    ForcedPeriod: (
        ForcedPeriod(period=4, source_period=6),
        "ForcedPeriod(period=4, source_period=6)",
    ),
    PLMap: (
        realize(parse_pattern("n=1 k=2; b1: 1")),
        "PLMap(pattern=StarPattern(n=1, k=2, placements=((1, 1),)), "
        "branch_lengths=(0, 1), pieces=(Piece(src=1, lo=Fraction(0, 1), "
        "hi=Fraction(1, 1), dst=1, slope=-1, offset=1),))",
    ),
}


def test_every_record_type_is_found():
    assert len(RECORDS) == 28


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    fields = cls._fields
    values = tuple(range(10, 10 + len(fields)))
    record = cls(*values)
    for built in (record, cls(**dict(zip(fields, values)))):
        assert [getattr(built, name) for name in fields] == list(values)

    # immutable, for declared and undeclared names alike
    for name in (fields[0], "undeclared"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)

    # a call binds its arguments as a function call would
    required = [name for name in fields if name not in cls._defaults]
    with pytest.raises(TypeError):
        cls(*values[: len(required) - 1])
    with pytest.raises(TypeError):
        cls(*values, undeclared=0)
    with pytest.raises(TypeError):
        cls(*values, 0)
    with pytest.raises(TypeError):
        cls(*values, **{fields[0]: 0})

    # equality and hashing by the shown fields, within one class
    shown = cls._shown
    twin = cls(*values)
    if cls.__eq__ is object.__eq__:
        assert record != twin  # identity equality (``eq=False``)
    else:
        assert record == twin and hash(record) == hash(twin)
        for name in fields:
            changed = record._replace(**{name: -1})
            assert getattr(changed, name) == -1
            assert (changed == record) is (name not in shown)
        assert record != tuple(values)
    assert repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{name}={getattr(record, name)!r}" for name in shown
    ) + ")"

    back = pickle.loads(pickle.dumps(record))
    assert type(back) is cls
    assert [getattr(back, name) for name in fields] == list(values)

    if cls in PINNED:
        pinned, text = PINNED[cls]
        assert repr(pinned) == text
        assert pinned == pickle.loads(pickle.dumps(pinned))
        assert hash(pinned) == hash(pickle.loads(pickle.dumps(pinned)))


def test_records_of_different_classes_differ():
    assert ForcedPeriod(4, 6) != OracleAbsence(4, 6)
    assert hash(ForcedPeriod(4, 6)) == hash(ForcedPeriod(period=4, source_period=6))


def test_defaults_and_ordering():
    spec = FiniteOrbitSpec(1, 2, ((1, 1), (1, 2)), (1, 0))
    assert spec.center_point is None
    points = [RationalPoint(2, Fraction(1, 2)), RationalPoint(1, Fraction(3)),
              RationalPoint(1, Fraction(1, 3)), RationalPoint(0, Fraction(0))]
    assert sorted(points) == sorted(points, key=lambda x: (x.branch, x.coord))
    assert RationalPoint(1, Fraction(1)) < RationalPoint(1, Fraction(2)) <= RationalPoint(2, 0)
    with pytest.raises(TypeError):
        RationalPoint(1, Fraction(1)) < ForcedPeriod(1, 1)
