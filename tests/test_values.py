"""Value semantics of the knot, invariant and homology report classes.

Each is an immutable value: built by position or keyword, equal and hashed
by its fields, printed as ``Name(field=value, ...)``, and copied and pickled
whole.  All but ``HomologyGapReport`` are equal only to an instance of the
exact same type; that one may be a named tuple, which also equals the plain
tuple of its fields, so it is left out of that check.
"""

import copy
import pickle

import pytest

from crosscap.homology import HomologyGapReport
from crosscap.invariants import InvariantReport, InvariantValue, ValueKind
from crosscap.knots import (
    UNKNOT,
    CableKnot,
    ExternalKnot,
    PropertyFlags,
    TorusKnot,
    TorusParams,
    Unknot,
)

T23 = TorusKnot(TorusParams(2, 3))
ONE = InvariantValue(ValueKind.KNOWN, 1, "even")
TWO = InvariantValue(ValueKind.KNOWN, 2, "formula")
UNKNOWN = InvariantValue(ValueKind.UNKNOWN, None, "")

# class, its field values in order, and the repr of the value they build.
VALUES = [
    (TorusParams, {"winding": 2, "meridional": 3},
     "TorusParams(winding=2, meridional=3)"),
    (PropertyFlags, {"hyperbolic": True, "slice": None},
     "PropertyFlags(hyperbolic=True, slice=None)"),
    (Unknot, {}, "Unknot()"),
    (TorusKnot, {"params": TorusParams(2, 3)},
     "TorusKnot(params=TorusParams(winding=2, meridional=3))"),
    (CableKnot, {"params": TorusParams(4, 3), "companion": T23},
     "CableKnot(params=TorusParams(winding=4, meridional=3), "
     "companion=TorusKnot(params=TorusParams(winding=2, meridional=3)))"),
    (ExternalKnot, {"name": "6_1", "flags": PropertyFlags(hyperbolic=True)},
     "ExternalKnot(name='6_1', flags=PropertyFlags(hyperbolic=True, slice=None))"),
    (InvariantValue, {"kind": ValueKind.KNOWN, "value": 1, "provenance": "even"},
     "InvariantValue(kind=<ValueKind.KNOWN: 'known'>, value=1, provenance='even')"),
    (InvariantReport,
     {"knot": T23, "gamma_i": ONE, "gamma_3": TWO, "gamma_4": UNKNOWN,
      "g_3": ONE, "prime": True},
     f"InvariantReport(knot={T23!r}, gamma_i={ONE!r}, gamma_3={TWO!r}, "
     f"gamma_4={UNKNOWN!r}, g_3={ONE!r}, prime=True)"),
    (HomologyGapReport,
     {"n": 4, "surgery_slope": 56, "chi_immersed": 1,
      "chi_embedded_component_max": -3, "gap": 4},
     "HomologyGapReport(n=4, surgery_slope=56, chi_immersed=1, "
     "chi_embedded_component_max=-3, gap=4)"),
]
IDS = [cls.__name__ for cls, _, _ in VALUES]


@pytest.fixture(params=VALUES, ids=IDS)
def case(request):
    return request.param


def test_built_by_position_or_keyword(case):
    cls, fields, _ = case
    value = cls(*fields.values())
    assert value == cls(**fields)
    assert [getattr(value, name) for name in fields] == list(fields.values())


def test_defaults():
    assert ExternalKnot("k") == ExternalKnot("k", PropertyFlags())
    flags = PropertyFlags()
    assert (flags.hyperbolic, flags.slice) == (None, None)
    assert PropertyFlags(slice=False) == PropertyFlags(None, False)
    assert Unknot() == UNKNOT


def test_equal_values_hash_equal(case):
    cls, fields, _ = case
    assert hash(cls(*fields.values())) == hash(cls(**fields))


def test_different_fields_are_unequal():
    assert TorusParams(2, 3) != TorusParams(3, 2)
    assert ExternalKnot("k") != ExternalKnot("k", PropertyFlags(slice=True))
    assert ONE != InvariantValue(ValueKind.LOWER_BOUND, 1, "even")


@pytest.mark.parametrize("case", VALUES[:-1], ids=IDS[:-1])
def test_equal_only_within_the_exact_type(case):
    cls, fields, _ = case
    value = cls(**fields)
    assert value != tuple(fields.values())
    subclass = type("Sub", (cls,), {})
    assert value != subclass(**fields)


def test_homology_report_dict_keeps_field_order():
    cls, fields, _ = VALUES[-1]
    assert list(cls(**fields).to_dict().items()) == list(fields.items())


def test_fields_cannot_be_assigned_or_deleted(case):
    cls, fields, _ = case
    value = cls(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == cls(**fields)


def test_repr(case):
    cls, fields, text = case
    assert repr(cls(**fields)) == text


@pytest.mark.parametrize("duplicate", [
    copy.copy,
    copy.deepcopy,
    lambda value: pickle.loads(pickle.dumps(value)),
], ids=["copy", "deepcopy", "pickle"])
def test_copies_are_equal_values(case, duplicate):
    cls, fields, _ = case
    value = cls(**fields)
    twin = duplicate(value)
    assert type(twin) is cls
    assert twin == value and hash(twin) == hash(value)


# Each refused value and the message of the first rule it breaks.
REFUSED = [
    (lambda: TorusParams(0, 0), "winding and meridional must be nonzero"),
    (lambda: TorusParams(3, 0), "winding and meridional must be nonzero"),
    (lambda: TorusParams(4, 6), "gcd != 1"),
    (lambda: CableKnot(TorusParams(1, 3), UNKNOT),
     "cable winding must satisfy |winding| >= 2"),
    (lambda: CableKnot(TorusParams(4, 3), TorusKnot(TorusParams(1, 5))),
     "companion must be knotted"),
    (lambda: ExternalKnot(""), "external knot needs a nonempty name"),
    (lambda: InvariantValue(ValueKind.UNKNOWN, 3, ""), "unknown values carry no number"),
    (lambda: InvariantValue(ValueKind.KNOWN, -1, ""),
     "invariant values are nonnegative integers"),
    (lambda: InvariantValue(ValueKind.LOWER_BOUND, None, "x"),
     "invariant values are nonnegative integers"),
    (lambda: InvariantValue(ValueKind.KNOWN, 1, ""),
     "known values and bounds need provenance"),
    (lambda: InvariantReport(T23, TWO, ONE, ONE, ONE, True),
     "gamma_3 must dominate gamma_I"),
    (lambda: InvariantReport(T23, UNKNOWN, ONE, TWO, ONE, True),
     "gamma_3 must dominate gamma_4"),
]


@pytest.mark.parametrize("build, message", REFUSED, ids=[m for _, m in REFUSED])
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as raised:
        build()
    assert str(raised.value) == message
