"""Expression parser and input-document handling."""

import hashlib
import json
import random
import warnings
from fractions import Fraction
from math import comb

import pytest

from hlab.exprparse import (
    WEIGHT_CAP,
    ExprError,
    TruncationWarning,
    parse_expression,
    parse_monomial_key,
    parse_rational,
)
from hlab.fixturedoc import cp_fixture
from hlab.inputdoc import DocumentError, digest, load_document
from hlab.diagonal import DiagonalCurvature
from hlab.hermitian import HermitianCurvature
from hlab.ring import RingSpec

F = Fraction


@pytest.fixture
def spec():
    return RingSpec((("h", 1),), 2)


@pytest.fixture
def surf():
    return RingSpec((("c1", 1), ("c2", 2)), 2)


def test_scalar_multiple(spec):
    assert parse_expression("3*h", spec) == 3 * spec.gen("h")


def test_binomial_truncation(spec):
    with pytest.warns(TruncationWarning):
        got = parse_expression("(1+h)^3", spec)
    assert got == spec.element({(0,): 1, (1,): 3, (2,): 3})


def test_no_warning_when_nothing_truncates(spec):
    import warnings as w

    with w.catch_warnings():
        w.simplefilter("error")
        assert parse_expression("(1+h)^2", spec) == spec.element(
            {(0,): 1, (1,): 2, (2,): 1}
        )


def test_chern_combination(surf):
    got = parse_expression("c1^2 - 2*c2", surf)
    c1, c2 = surf.gen("c1"), surf.gen("c2")
    assert got == c1 * c1 - 2 * c2


def test_rational_literals(spec):
    h = spec.gen("h")
    assert parse_expression("1/2*h", spec) == h * F(1, 2)
    assert parse_expression("3/2", spec) == spec.constant(F(3, 2))
    assert parse_expression("-h^2/4", spec) == h * h * F(-1, 4)
    assert parse_expression("h/(h-h+2)", spec) == h * F(1, 2)


def test_precedence_and_unary(spec):
    h = spec.gen("h")
    assert parse_expression("-h + 2*h", spec) == h
    assert parse_expression("2*h^2", spec) == 2 * h * h
    assert parse_expression("(2*h)^2", spec) == 4 * h * h
    assert parse_expression("2^3", spec) == spec.constant(8)


def test_syntax_error_reports_position(spec):
    with pytest.raises(ExprError) as err:
        parse_expression("h + * 2", spec)
    assert err.value.position == 4
    with pytest.raises(ExprError):
        parse_expression("(1+h", spec)
    with pytest.raises(ExprError):
        parse_expression("h h", spec)


@pytest.mark.parametrize("src,position", [("٣*h", 0), ("h^²", 2), ("1٣", 1)])
def test_integers_are_ascii_digits(spec, src, position):
    # "٣*h" was read as 3*h, and "h^²" raised a bare ValueError from int()
    with pytest.raises(ExprError, match="unexpected character") as err:
        parse_expression(src, spec)
    assert err.value.position == position


def test_unknown_generator(spec):
    with pytest.raises(ExprError) as err:
        parse_expression("2*q", spec)
    assert "q" in str(err.value) and err.value.position == 2


def test_division_by_nonconstant_rejected(spec):
    with pytest.raises(ExprError):
        parse_expression("1/h", spec)
    with pytest.raises(ExprError):
        parse_expression("h/0", spec)
    # a divisor is judged in the document's ring, so one whose bound exceeds
    # the truncation is rejected even when its high terms cancel
    for src in ("h/(1+h^3)", "h/(1+h^3-h^3)"):
        with pytest.raises(ExprError):
            parse_expression(src, spec)


def test_weight_overflow_truncated(spec):
    with pytest.warns(TruncationWarning, match=r"^terms of weight above 2 truncated in 'h\^3'$"):
        assert parse_expression("h^3", spec).is_zero()
    # the warning follows the weight bound: written high terms warn even if they cancel
    for src in ("h^3 - h^3", "0*h^3"):
        with pytest.warns(TruncationWarning):
            assert parse_expression(src, spec).is_zero()


def test_weight_cap_guard(spec):
    with pytest.raises(ExprError):
        parse_expression("h^100000", spec)
    with pytest.raises(ExprError):
        parse_expression("(h^65)^64", spec)


def test_coefficient_size_guard(spec):
    # a constant base has weight bound 0, so the weight cap never limits it
    for src in ("3^10000*h", "((2^4096)^4096)^4096", "(3^4000)*(3^4000)*(3^4000)", "10^4000", "h/3^10000"):
        with pytest.raises(ExprError, match="bit limit"):
            parse_expression(src, spec)
    assert parse_expression("3^7000", spec) == 3**7000
    assert parse_expression("1/2^7000*h", spec) == F(1, 2**7000) * spec.gen("h")


def _random_expression(rng, names, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([str(rng.randint(0, 4)), rng.choice(names)])
    op = rng.choice("+-*/^u")
    a = _random_expression(rng, names, depth - 1)
    if op == "^":
        return f"({a})^{rng.randint(0, 3)}"
    if op == "/":
        return f"({a})/{rng.randint(1, 4)}"
    if op == "u":
        return f"-({a})"
    return f"({a}){op}({_random_expression(rng, names, depth - 1)})"


def test_truncating_as_it_goes_matches_truncating_the_exact_value():
    rng = random.Random(7001)
    alphabets = ((("h", 1),), (("c1", 1), ("c2", 2)), (("a", 1), ("b", 1), ("x", 3)))
    for _ in range(400):
        gens = rng.choice(alphabets)
        src = _random_expression(rng, [name for name, _ in gens], 3)
        wide = RingSpec(gens, WEIGHT_CAP)
        exact = parse_expression(src, wide)
        for trunc in (1, 2, 3, 5):
            spec = RingSpec(gens, trunc)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = parse_expression(src, spec)
            assert got == spec.element(exact.terms), src
            if any(wide.weight_of(e) > trunc for e in exact.terms):
                assert any(w.category is TruncationWarning for w in caught), src


def test_parse_builds_no_second_ring(spec, monkeypatch):
    built = []
    post_init = RingSpec.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    quad = RingSpec(tuple((name, 1) for name in "abcd"), 2)
    monkeypatch.setattr(RingSpec, "__post_init__", counting)
    with pytest.warns(TruncationWarning):
        parse_expression("(1+h)^3", spec)
    assert built == []
    # large exponents stay cheap: every power is truncated at weight 2
    with pytest.warns(TruncationWarning):
        got = parse_expression("(1+2*h)^4000", spec)
    assert got == spec.element({(0,): 1, (1,): 8000, (2,): 4 * comb(4000, 2)})
    with pytest.warns(TruncationWarning):
        assert parse_expression("(a+b+c+d)^60", quad).is_zero()
    with pytest.warns(TruncationWarning):
        got = parse_expression("(1+a+b+c+d)^60", quad)
    s = sum((quad.gen(name) for name in "abcd"), quad.zero())
    assert got == 1 + 60 * s + comb(60, 2) * s * s
    assert built == []


def test_load_document_raises_the_truncation_warning():
    # load_document records nothing: the warning reaches its caller
    tree = cp_fixture(2)
    tree["manifold"]["chern"]["c1"] = "3*h + h^3"
    with pytest.warns(TruncationWarning, match=r"terms of weight above 2 truncated in '3\*h \+ h\^3'"):
        doc = load_document(tree)
    assert str(doc.manifold.chern[0]) == "3*h"


def test_parse_rational():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-7") == -7
    with pytest.raises(ValueError):
        parse_rational("1.5e3x")
    with pytest.raises(ValueError):
        parse_rational("1/0")


def test_parse_monomial_key(surf):
    assert parse_monomial_key("c1^2", surf) == (2, 0)
    assert parse_monomial_key("1", surf) == (0, 0)
    threefold = RingSpec((("c1", 1), ("c2", 2)), 3)
    assert parse_monomial_key("c1*c2", threefold) == (1, 1)
    with pytest.raises(ValueError):
        parse_monomial_key("2*c1", surf)
    with pytest.raises(ValueError):
        parse_monomial_key("c1+c2", surf)
    with pytest.raises(ValueError, match="'c1\\^3' has weight above the truncation 2"):
        parse_monomial_key("c1^3", surf)


# -- documents -------------------------------------------------------------------


def test_digest_is_key_order_insensitive():
    a = {"ring": {"dimension": 2, "generators": [{"name": "h", "weight": 1}]}}
    b = {"ring": {"generators": [{"name": "h", "weight": 1}], "dimension": 2}}
    assert digest(a) == digest(b)
    assert digest(a) != digest({"ring": {"dimension": 3, "generators": []}})


@pytest.mark.parametrize(
    "tree",
    [{}, [], 0, None, "x" * 200, {"b": [1, "1/2", {"x": None}], "a": "\u00e9"}, cp_fixture(2)],
    ids=["empty object", "empty list", "zero", "null", "long string", "nested", "CP^2"],
)
def test_digest_is_the_sha256_of_the_canonical_json(tree):
    # the digest takes the lean _sha256 module where it exists: the hash hashlib gives
    canonical = json.dumps(tree, sort_keys=True, separators=(",", ":")).encode()
    assert digest(tree) == hashlib.sha256(canonical).hexdigest()


def test_cp_fixture_roundtrip():
    tree = cp_fixture(2)
    doc = load_document(tree)
    assert doc.manifold is not None
    assert doc.manifold.n == 2
    h = doc.spec.gen("h")
    assert doc.manifold.chern[0] == 3 * h
    assert doc.manifold.chern[1] == 3 * h * h
    assert doc.line_bundle.chern[0] == h
    assert digest(tree) == digest(cp_fixture(2))
    assert digest(tree) != digest(cp_fixture(3))


def test_document_missing_sections():
    with pytest.raises(DocumentError):
        load_document({"manifold": {"chern": {}}})  # no fundamental class/ring
    doc = load_document({})
    with pytest.raises(DocumentError):
        doc.require("manifold")


def test_document_curvature_parsing():
    doc = load_document({"curvature": {"gammas": ["1", "-2/3"]}})
    assert isinstance(doc.curvature, DiagonalCurvature)
    assert doc.curvature.gammas == (F(1), F(-2, 3))
    # theta[j][k] is an r x r matrix; entries are "p/q" or ["re", "im"]
    herm = load_document(
        {
            "curvature": {
                "hermitian": {
                    "theta": [
                        [[["0"]], [[["0", "1"]]]],
                        [[[["0", "-1"]]], [["0"]]],
                    ]
                }
            }
        }
    )
    assert isinstance(herm.curvature, HermitianCurvature)
    assert herm.curvature.theta[0][1][0][0] == (0, 1) and herm.curvature.scale == 1
    with pytest.raises(DocumentError):
        load_document({"curvature": {}})


def test_document_bounds_input():
    tree = cp_fixture(2)
    tree["bounds"] = {"K": "100", "C": "2", "c_n": "1/10", "p": 1}
    doc = load_document(tree)
    b = doc.bounds_input()
    assert (b.n, b.K, b.C, b.c_n) == (2, 100, 2, F(1, 10))
    assert doc.bounds_p == 1
    with pytest.raises(DocumentError):
        load_document({"bounds": {"K": "1"}}).bounds_input()


def test_document_unknown_chern_keys():
    tree = cp_fixture(2)
    tree["manifold"]["chern"]["c9"] = "h"
    with pytest.raises(DocumentError):
        load_document(tree)


def test_document_guard_rail():
    with pytest.raises(DocumentError):
        cp_fixture(13)
