"""The ring's readers of its own printed forms, held to the expression parser.

``RingSpec.read_element`` reads what ``str`` prints of an element and
``RingSpec.read_monomial`` what ``monomial_name`` prints of a monomial; for
every other text they return None, and a document reader then runs the
parser.  Wherever a reader accepts a text, the parser must give the same
value with no warning; wherever the parser raises or warns, the reader must
decline.
"""

import random
import sys
import warnings
from fractions import Fraction

import pytest
from test_parser_reference import _corrupted, _expression, _ring

from hlab.exprparse import TruncationWarning, parse_expression, parse_monomial_key
from hlab.fixtures import random_element, weight_keys
from hlab.ring import RingSpec

RINGS = [
    RingSpec((("h", 1),), 12),
    RingSpec((("c1", 1), ("c2", 2)), 2),
    RingSpec((("x1", 1), ("x2", 2), ("x3", 3), ("y1", 1), ("y2", 2)), 5),
    RingSpec((("a", 1), ("b", 1), ("c", 1), ("d", 1)), 4),
    RingSpec((("_u", 2), ("v_2", 1)), 6),
]


def _parsed(src, spec):
    """The parser's value and warnings, or the exception it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = parse_expression(src, spec)
        except ValueError as exc:  # ExprError, or int() past the digit limit
            return exc, []
    return value, [w for w in caught if w.category is TruncationWarning]


def _agrees(src, spec):
    """Whether the reader accepted ``src``, once checked against the parser."""
    read, (parsed, warned) = spec.read_element(src), _parsed(src, spec)
    if isinstance(parsed, Exception) or warned:
        assert read is None, (src, spec, parsed, warned)
    if read is None:
        return False
    assert not warned and read == parsed, (src, spec, read, parsed)
    assert (read.parts, read.den) == (parsed.parts, parsed.den)  # the same reduced form
    return True


@pytest.mark.parametrize("spec", RINGS, ids=lambda spec: ",".join(spec.names))
def test_every_printed_element_reads_back(spec):
    rng = random.Random(3901)
    big = Fraction(3**700 + 1, 2**1000)  # numerals of about 300 digits
    for i in range(60):
        x = random_element(rng, spec, density=rng.choice([0.3, 0.8, 1.0]))
        x = x * big if i % 10 == 9 else x
        read = spec.read_element(str(x))
        assert read == x and (read.parts, read.den) == (x.parts, x.den), str(x)
        assert _agrees(str(x), spec)
    assert spec.read_element("0") == spec.zero()


@pytest.mark.parametrize("spec", RINGS, ids=lambda spec: ",".join(spec.names))
def test_every_monomial_name_reads_back(spec):
    for weight in range(spec.truncation + 1):
        for exps in weight_keys(spec, weight):
            name = spec.monomial_name(exps)
            assert spec.read_monomial(name) == exps == parse_monomial_key(name, spec), name
            assert _agrees(name, spec)


def test_the_parser_corpus_agrees():
    # the seeded corpus of tests/test_parser_reference.py, and its corruptions
    rng = random.Random(3201)
    accepted = 0
    for _ in range(2500):
        spec = _ring(rng)
        src = _expression(rng, spec.names, rng.randint(0, 3))
        if rng.random() < 0.2:
            src = _corrupted(rng, src)
        accepted += _agrees(src, spec)
    assert accepted > 50


H = RingSpec((("h", 1), ("g", 2)), 4)
NEAR_CANONICAL = [
    "3 * h", "h*h", "h^0", "h^02", "3/0*h", "", "h + ", "--h", "+h", "h^5", "h^3*g", "1" * 5000 + "*h",
    "٣*h", "h^²", "h + -h", "h - -h", "-", "- h", "h  + g", " h", "h ", "h+g", "h/2", "2*h/3", "3/*h",
    "(h + h)*h", "h*", "*h", "2h", "h^", "h^-1", "h^2^2", "3//2*h", "0/0", "q", "h*q", "1/2/3",
]


@pytest.mark.parametrize("src", NEAR_CANONICAL, ids=repr)
def test_near_canonical_text_is_left_to_the_parser(src):
    assert H.read_element(src) is None


@pytest.mark.parametrize(
    "src", ["h", "-h", "3*h", "-3/2*h^2 + g", "h^4 - 7", "0", "-0", "0*h", "007*h", "6/4*g", "h - h", "g + g"], ids=repr
)
def test_canonical_and_merged_terms_read_as_the_parser_reads_them(src):
    assert _agrees(src, H)


def test_generator_names_the_parser_cannot_name_are_declined():
    dotted = RingSpec((("x.y", 1), ("x", 1)), 2)
    assert dotted.read_element("x.y") is None and dotted.read_monomial("x.y") is None
    assert isinstance(_parsed("x.y", dotted)[0], ValueError)
    assert dotted.read_element("2*x") == parse_expression("2*x", dotted)
    accented = RingSpec((("é", 1),), 1)  # a name the parser reads, left to it
    assert accented.read_element("é") is None
    assert parse_expression("é", accented) == accented.gen("é")


def test_numerals_stay_under_every_digit_limit():
    # 639 digits is below the least limit the interpreter admits, 640
    spec, limit = RINGS[0], sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        assert _agrees("9" * 639 + "/" + "7" * 639 + "*h", spec)
        assert spec.read_element("9" * 640 + "*h") is None
        assert isinstance(_parsed("9" * 641 + "*h", spec)[0], Exception)
    finally:
        sys.set_int_max_str_digits(limit)


def test_powers_stay_under_the_parsers_bit_cap():
    # a power's coefficient bits are capped by the parser; the reader takes
    # exponents of three digits at most, so it never admits one the parser refuses
    deep = RingSpec((("h", 1),), 20000)
    assert _agrees("h^999", deep)
    assert deep.read_element("h^1000") is None and deep.read_monomial("h^15000") is None
    assert isinstance(_parsed("h^15000", deep)[0], Exception)


def test_keys_outside_the_language_are_declined():
    spec = RINGS[2]
    for key in ["x1*x1", "x1^1*x1", "2*x1", "x1 * y1", "x1^0", "x1^01", "", "*", "x1*", "z", "x3*x3", "x1^6"]:
        assert spec.read_monomial(key) is None, key
    assert spec.read_monomial("y1*x1") == parse_monomial_key("y1*x1", spec) == (1, 0, 0, 1, 0)
    assert spec.read_monomial("1") == (0,) * 5
