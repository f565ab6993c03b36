"""The result records: read-only, equal and hashed alike by their fields,
and printed as `Name(field=value, ...)`.

Each record is a namedtuple subclass, so it also unpacks, indexes and
compares equal to the tuple of its fields.  The instances are those of one
Bing verdict on the trefoil, whose exact jump at u = 1 gives a zero-width
RootInterval.
"""

from fractions import Fraction

import pytest

from bingcheck.catalog import catalog_lookup
from bingcheck.errors import InternalInvariantError
from bingcheck.intpoly import IntPoly, RootInterval
from bingcheck.sigfunc import Arc
from bingcheck.witt import bing_double_verdict

ENTRY = catalog_lookup("3_1")
REPORT = bing_double_verdict(ENTRY.seifert, 1)
BATTERY = REPORT.battery
FUNCTION = BATTERY.signature
JUMP = FUNCTION.jumps[0]

RECORDS = {
    "RootInterval": JUMP.root,
    "JumpPoint": JUMP,
    "Arc": FUNCTION.arcs[0],
    "SignatureFunction": FUNCTION,
    "FoxMilnorResult": BATTERY.fox_milnor,
    "ObstructionReport": BATTERY,
    "CrossCheck": REPORT.crosschecks[0],
    "BingReport": REPORT,
    "CatalogEntry": ENTRY,
}


@pytest.fixture(params=sorted(RECORDS), ids=str)
def record(request):
    assert type(RECORDS[request.param]).__name__ == request.param
    return RECORDS[request.param]


def test_fields_are_read_only(record):
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_equal_and_hashed_by_fields(record):
    copy = type(record)(*record)
    assert copy is not record
    assert copy == record and hash(copy) == hash(record)
    changed = record._replace(**{record._fields[-1]: "other"})
    assert changed != record


def test_repr_names_every_field(record):
    fields = ", ".join("%s=%r" % (f, getattr(record, f)) for f in record._fields)
    assert repr(record) == "%s(%s)" % (type(record).__name__, fields)


def test_pinned_reprs():
    assert repr(Arc(0, Fraction(1))) == "Arc(signature=0, sample_angle=Fraction(1, 1))"
    assert repr(REPORT.crosschecks[0]) == "CrossCheck(p=1, q=1, telescoping='skipped')"
    assert repr(JUMP) == (
        "JumpPoint(root=RootInterval(lo=Fraction(1, 1), hi=Fraction(1, 1), "
        "poly=IntPoly('t - 1')), factor=IntPoly('t^2 - t + 1'), nullity=1)")


def test_records_without_cached_properties_have_no_dict():
    for name in ("RootInterval", "JumpPoint", "Arc", "SignatureFunction",
                 "CrossCheck", "BingReport", "CatalogEntry"):
        assert not hasattr(RECORDS[name], "__dict__"), name


def test_cached_properties_do_not_touch_the_fields():
    # the witness and the certificate live in the instance's __dict__
    assert BATTERY.fox_milnor.witness is None
    assert BATTERY.certificate == "fox_milnor"
    assert tuple(BATTERY) == tuple(getattr(BATTERY, f) for f in BATTERY._fields)
    assert REPORT.crosschecks[0].additivity == "pass"
    assert not BATTERY.fox_milnor


def test_root_interval_without_a_sign_change_raises():
    with pytest.raises(InternalInvariantError, match="sign change"):
        RootInterval(Fraction(0), Fraction(1), IntPoly("t^2 + 1"))
    # an exact root needs none, and a sign change passes
    assert RootInterval(Fraction(1), Fraction(1), IntPoly("t - 1")).lo == 1
    assert RootInterval(Fraction(0), Fraction(2), IntPoly("t^2 - 2")).hi == 2


def test_root_interval_replace_keeps_the_sign_change_check():
    root = RootInterval(Fraction(0), Fraction(2), IntPoly("t^2 - 2"))
    with pytest.raises(InternalInvariantError, match="sign change"):
        root._replace(hi=Fraction(1))
    with pytest.raises(InternalInvariantError, match="sign change"):
        RootInterval._make([Fraction(0), Fraction(1), root.poly])
    assert root._replace(lo=Fraction(1)) == (1, 2, root.poly)
