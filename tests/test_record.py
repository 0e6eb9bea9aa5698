"""``hlab.record.Record``: the value semantics every record type relies on."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest
from conftest import HLAB_ENV

from hlab.bounds import BoundsInput, Interval
from hlab.genus import BundleData, projective_space
from hlab.record import Record
from hlab.ring import RingSpec

F = Fraction


def test_equality_and_hash_use_the_fields_only():
    a, b = RingSpec((("h", 1),), 2), RingSpec((("h", 1),), 2)
    assert a.names == ("h",)  # fills a's cache, not b's
    assert a == b and hash(a) == hash(b)
    assert a != RingSpec((("h", 1),), 3)
    (x, _), (y, _) = projective_space(2), projective_space(2)
    assert x.td is not None  # fills x's cached Todd class, not y's
    assert "td" in vars(x) and "td" not in vars(y)
    assert x == y
    assert hash(Interval(1, 2)) == hash((F(1), F(2)))


def test_records_of_different_classes_are_unequal():
    class Pair(Record):
        lo: Fraction
        hi: Fraction

    assert Pair(1, 2) != Interval(1, 2)
    assert Interval(1, 2) != (F(1), F(2))


def test_fields_are_frozen():
    iv = Interval(1, 2)
    with pytest.raises(AttributeError):
        iv.lo = F(0)
    with pytest.raises(AttributeError):
        del iv.hi
    with pytest.raises(AttributeError):
        BundleData(1).rank = 2
    assert iv == Interval(1, 2)


def test_repr_is_name_and_fields():
    assert repr(Interval(F(1, 2), 1)) == "Interval(lo=Fraction(1, 2), hi=Fraction(1, 1))"
    assert repr(BundleData(2)) == "BundleData(rank=2, chern=())"


def test_defaults():
    assert BundleData(1) == BundleData(1, ()) == BundleData(rank=1)
    assert BundleData(1).chern == () and BundleData(2, chern=()).rank == 2
    b = BoundsInput(2, 1, 1, 1)
    assert (b.K, b.C, b.c_n) == (1, 1, 1) and type(b.C) is Fraction


@pytest.mark.parametrize(
    "args,kwargs,message",
    [
        ((1,), {}, "missing required argument 'hi'"),
        ((1, 2, 3), {}, "takes 2 arguments but 3 were given"),
        ((1, 2), {"mid": 1}, "unexpected keyword argument 'mid'"),
        ((1,), {"lo": 1}, "multiple values for argument 'lo'"),
    ],
)
def test_bad_arguments_raise_type_error(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        Interval(*args, **kwargs)


def test_post_init_validates_and_normalises():
    with pytest.raises(ValueError, match="empty enclosure"):
        Interval(2, 1)
    iv = Interval(lo=1, hi=2)
    assert type(iv.lo) is Fraction and iv.width == 1
    with pytest.raises(ValueError, match="rank must be positive"):
        BundleData(0)


def test_subclass_fields_extend_the_base():
    class Point(Record):
        x: int
        y: int = 0

    class Labelled(Point):
        label: str = ""

    assert Labelled._fields == ("x", "y", "label")
    assert repr(Labelled(1, label="a")).endswith("Labelled(x=1, y=0, label='a')")


@pytest.mark.parametrize("name", ["CertificateError", "ExprError", "IntegralityError", "MissingChernNumber", "Interval"])
def test_exceptions_and_interval_load_only_their_home(name):
    probe = (
        f"import json, sys\nbefore = set(sys.modules)\nfrom hlab import {name}\n"
        "print(json.dumps(sorted(m for m in set(sys.modules) - before if m.startswith('hlab.'))))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60, env=HLAB_ENV)
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stdout)) <= {"hlab.errors", "hlab.record"}
