"""The input boundary: every malformed document is an input error (exit 2)
that names its JSON path, literals are never coerced, and a failed internal
certificate has its own exit code (3)."""

import itertools
import json
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from conftest import HLAB_ENV, perfbench, run_hlab, write_doc

from hlab import genus, lefschetz, literals, sl2
from hlab.bounds import bound_input
from hlab.fixtures import rotated_split_curvature
from hlab.exprparse import ExprError, parse_rational
from hlab.fixturedoc import cp_fixture
from hlab.inputdoc import DocumentError, load_document

BOUNDS = {"K": "100", "C": "2", "c_n": "1/10", "p": 0}

# The regular expressions that the literal rules replaced, and a corpus of
# near misses: digits outside ASCII, padding, signs, "_", empty parts, plus
# every string of up to three characters over an alphabet of both.
OLD_INTEGER = r"-?[0-9]+"
OLD_RATIONAL = r"-?[0-9]+(/[0-9]+)?"
OLD_CHERN_KEY = r"c([1-9][0-9]{0,3})"
ALPHABET = ["-", "0", "1", "9", "/", "c", "+", " ", "_", "\u0661", "\u00b2", "\n"]
CORPUS = [
    "", "\u0661", "\u00b2", " 1", "1 ", "1_0", "+1", "-", "--1", "-0", "007", "12345678901234567890",
    "1/2", "-1/2", "1/-2", "1/+2", "1/", "/2", "1//2", "1/2/3", "1.5", "1e3", "\uff11", "c1", "c01", "c12",
    "c999", "c9999", "c10000", "c\u0661", "c\u00b2", "C1", "c-1", "c+1", "c 1", "c1 ", "c1_0", "cc1",
    *("".join(chars) for k in range(1, 4) for chars in itertools.product(ALPHABET, repeat=k)),
]


def _is_rational_literal(text):
    """Whether parse_rational takes ``text`` as an integer or 'p/q' (its other
    errors, a zero denominator, come after that rule)."""
    try:
        parse_rational(text)
    except ExprError as exc:
        return "expected an integer or 'p/q'" not in str(exc)
    return True


def test_literal_rules_admit_the_language_of_the_old_regular_expressions():
    for text in CORPUS:
        assert literals.is_integer(text) == bool(re.fullmatch(OLD_INTEGER, text)), repr(text)
        assert literals.is_digits(text) == bool(re.fullmatch("[0-9]+", text)), repr(text)
        assert _is_rational_literal(text) == bool(re.fullmatch(OLD_RATIONAL, text)), repr(text)
        for key in (text, "c" + text):
            old = re.fullmatch(OLD_CHERN_KEY, key)
            assert genus._chern_index(key) == (int(old[1]) if old else 0), repr(key)


def _cp2(**sections):
    tree = cp_fixture(2)
    tree["bounds"] = dict(BOUNDS)
    tree.update(sections)
    return tree


def _with(path, value, tree=None):
    """The CP^2 document with the node at ``path`` (a tuple of keys) replaced."""
    tree = _cp2() if tree is None else tree
    node = tree
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return tree


GENUS, T4, T5 = ("genus",), ("bounds", "--which", "t4"), ("bounds", "--which", "t5")
T4CHAIN = ("bounds", "--which", "t4chain")


def _scalar_bounds(hilbert):
    """A bounds section with no manifold, reading the given 0-Hilbert polynomial."""
    return {"bounds": {**BOUNDS, "n": 2, "a_n": "1", "chi_p": ["1", "-1", "1"], "hilbert": {"0": hilbert}}}

# (argv, document, the JSON path the error must name)
FAULTS = {
    # crashed with a traceback
    "manifold-list": (GENUS, _with(("manifold",), ["c1"]), "manifold"),
    "bundle-list": (GENUS, _with(("bundle",), [1]), "bundle"),
    "fundamental-class-list": (GENUS, _with(("fundamental_class",), ["h^2"]), "fundamental_class"),
    "bounds-list": (T4, _with(("bounds",), [1, 2]), "bounds"),
    "etheta-without-chi": (
        ("bounds", "--which", "etheta"),
        {"bounds": {"n": 2, "K": "100", "C": "2", "c_n": "1/10"}},
        "bounds.chi",
    ),
    # exited 1, as an engine error
    "fundamental-class-wrong-weight": (GENUS, _with(("fundamental_class",), {"h": "1"}), "fundamental_class"),
    "weight-not-integer": (GENUS, _with(("ring", "generators", 0, "weight"), "x"), "ring.generators[0].weight"),
    "duplicate-generator": (
        GENUS,
        _with(("ring", "generators"), [{"name": "h", "weight": 1}, {"name": "h", "weight": 1}]),
        "ring.generators",
    ),
    "rank-not-integer": (GENUS, _with(("bundle", "rank"), "x"), "bundle.rank"),
    "c1-not-homogeneous": (GENUS, _with(("manifold", "chern", "c1"), "3*h + h^2"), "manifold.chern"),
    "bounds-n-not-integer": (T4, _with(("bounds", "n"), "x"), "bounds.n"),
    "bounds-p-not-integer": (T4, _with(("bounds", "p"), "x"), "bounds.p"),
    "hilbert-key-not-integer": (T5, _with(("bounds", "hilbert"), {"x": ["1"]}), "bounds.hilbert"),
    # silently coerced
    "weight-float": (GENUS, _with(("ring", "generators", 0, "weight"), 1.5), "ring.generators[0].weight"),
    "rank-float": (GENUS, _with(("bundle", "rank"), 2.7), "bundle.rank"),
    "bounds-p-float": (T4, _with(("bounds", "p"), 0.5), "bounds.p"),
    "exponent-literal": (T4, _with(("bounds", "K"), "1e3"), "bounds.K"),
    "bounds-K-float": (T4, _with(("bounds", "K"), 100.0), "bounds.K"),
    "gammas-float": (("commutator",), {"curvature": {"gammas": [1.5, 2]}}, "curvature.gammas"),
    "fundamental-class-float": (GENUS, _with(("fundamental_class", "h^2"), 1.5), "fundamental_class.h^2"),
    # a key above the truncation
    "fundamental-class-above-truncation": (GENUS, _with(("fundamental_class",), {"h^3": "1"}), "fundamental_class.h^3"),
    # a bound input given both ways must agree; the document won for a_n and
    # chi_p, the manifold data for the rest
    "c1sq-conflict": (("bounds", "--which", "t2"), _with(("bounds", "c1sq_L"), "9"), "bounds.c1sq_L"),
    "a_n-conflict": (T5, _with(("bounds", "a_n"), "2"), "bounds.a_n"),
    "chi_p-conflict": (T5, _with(("bounds", "chi_p"), ["1", "0", "1"]), "bounds.chi_p"),
    "hilbert-conflict": (T5, _with(("bounds", "hilbert"), {"0": ["1", "1"]}), "bounds.hilbert.0"),
    "n-conflict": (T4, _with(("bounds", "n"), 3), "bounds.n"),
    "chi-conflict": (("bounds", "--which", "etheta"), _with(("bounds", "chi"), 5), "bounds.chi"),
    # read without manifold data: a missing a_n exited 1, a short chi_p and a
    # p above n were accepted
    "a_n-missing": (
        T5, {"bounds": {**BOUNDS, "n": 2, "chi_p": ["1", "-1", "1"], "hilbert": {"0": ["1", "1"]}}}, "bounds.a_n"
    ),
    "chi_p-short": (
        T5, {"bounds": {**BOUNDS, "n": 2, "a_n": "1", "chi_p": ["1"], "hilbert": {"0": ["2", "1"]}}}, "bounds.chi_p"
    ),
    "bounds-p-above-n": (T4, {"bounds": {**BOUNDS, "n": 2, "p": 3}}, "bounds.p = 3"),
    # a missing hypothesis is named by its own path, not in a list
    "bounds-K-missing": (T4, {"bounds": {"n": 2, "C": "2", "c_n": "1/10"}}, "bounds.K"),
    "bounds-c_n-missing": (T4, {"bounds": {"n": 2, "K": "100", "C": "2"}}, "bounds.c_n"),
    # a given Hilbert polynomial meets the rule a derived one meets: degree
    # <= n and integer-valued; t5 exited 0, t4chain exited 1
    "hilbert-degree-above-n-t5": (T5, _scalar_bounds(["1", "3/2", "1/2", "1"]), "bounds.hilbert.0"),
    "hilbert-degree-above-n-t4chain": (T4CHAIN, _scalar_bounds(["1", "3/2", "1/2", "1"]), "bounds.hilbert.0"),
    "hilbert-not-integer-valued-t5": (T5, _scalar_bounds(["1", "1/3", "0"]), "bounds.hilbert.0"),
    "hilbert-not-integer-valued-t4chain": (T4CHAIN, _scalar_bounds(["1", "1/3", "0"]), "bounds.hilbert.0"),
    # "0", "00" and "-0" all read as p = 0; the last key won, with exit 0
    "hilbert-repeated-p": (
        T5, _with(("bounds", "hilbert", "00"), [5, 0, 1], _scalar_bounds(["1", "3/2", "1/2"])),
        "bounds.hilbert.00 repeats p = 0",
    ),
    # an Euler characteristic is an integer; chi^p = 1/2 was accepted
    "chi_p-fraction": (T5, _with(("bounds", "chi_p"), ["1/2", "0", "1"]), "bounds.chi_p[0]"),
    # an expression integer is ASCII digits; "٣" was read as 3
    "non-ascii-digit": (GENUS, _with(("bundle", "chern", "c1"), "٣*h"), "bundle.chern.c1"),
    # computed, then failed to print (exit 1)
    "constant-too-large": (GENUS, _with(("bundle", "chern", "c1"), "3^10000*h"), "bundle.chern.c1"),
    # a misspelt field was read as absent, with exit 0: t4chain ran at p = 0,
    # t2 read the derived c1sq_L and genus the trivial bundle
    "bounds-P": (T4CHAIN, _with(("bounds", "P"), 2), "bounds has no field 'P'"),
    "bounds-c1sqL": (("bounds", "--which", "t2"), _with(("bounds", "c1sqL"), "7"), "bounds has no field 'c1sqL'"),
    "bundel": (GENUS, _with(("bundel",), {"rank": 2}), "the input document has no field 'bundel'"),
    "ring-field": (GENUS, _with(("ring", "dim"), 2), "ring has no field 'dim'"),
    "generator-field": (
        GENUS, _with(("ring", "generators", 0, "wieght"), 1), "ring.generators[0] has no field 'wieght'"
    ),
    "manifold-field": (GENUS, _with(("manifold", "c1"), "3*h"), "manifold has no field 'c1'"),
    "bundle-field": (GENUS, _with(("bundle", "rnak"), 2), "bundle has no field 'rnak'"),
    "line-bundle-field": (("hilbert",), _with(("line_bundle", "c2"), "h^2"), "line_bundle has no field 'c2'"),
    "curvature-field": (
        ("commutator",), {"curvature": {"gammas": ["1"], "gamma": ["2"]}}, "curvature has no field 'gamma'"
    ),
    "hermitian-field": (
        ("commutator",),
        {"curvature": {"hermitian": {"theta": [[[[1]]]], "thetas": []}}},
        "curvature.hermitian has no field 'thetas'",
    ),
    "curvature-both": (
        ("commutator",), {"curvature": {"gammas": ["1"], "hermitian": {"theta": [[[[1]]]]}}}, "curvature needs one of"
    ),
}


@pytest.mark.parametrize("argv,tree,path", list(FAULTS.values()), ids=list(FAULTS))
def test_input_fault_exits_2_naming_its_path(tmp_path, argv, tree, path):
    code, _, err = run_hlab([*argv, "--input", write_doc(tmp_path, tree)])
    assert code == 2, err
    assert err.startswith("input error: ")
    assert path in err
    assert "Traceback" not in err


def test_huge_constant_is_refused_before_it_is_computed(tmp_path):
    # 2^(4096^3) would take about 8.6 GB
    doc = write_doc(tmp_path, _with(("bundle", "chern", "c1"), "((2^4096)^4096)^4096"))
    start = time.perf_counter()
    code, _, err = run_hlab(["genus", "--input", doc])
    assert time.perf_counter() - start < 5
    assert code == 2, err
    assert err.startswith("input error: bundle.chern.c1: ")


# (document, command, the result that cannot be printed); exited 1 as an
# "engine error" from str() of an integer past the interpreter's digit limit
TOO_LONG = {
    "cp2-genus": (2, "3^7000*h", ("genus",), "'ch'"),
    "cp12-genus": (12, "10^3500*h", ("genus",), "'ch'"),
    "cp2-ineq": (2, "3^7000*h", ("ineq",), "'inequalities'"),
}


@pytest.mark.parametrize("n,c1,argv,key", list(TOO_LONG.values()), ids=list(TOO_LONG))
def test_result_too_long_to_print_exits_2(tmp_path, n, c1, argv, key):
    tree = cp_fixture(n)
    tree["bundle"]["chern"]["c1"] = c1
    doc = write_doc(tmp_path, tree)
    for output in ("machine", "text"):
        code, out, err = run_hlab([*argv, "--input", doc, "--output", output])
        assert code == 2, err
        assert err.startswith(f"input error: result {key} ")
        assert "coefficients are too large" in err
        assert out == "" and "Traceback" not in err


@pytest.mark.parametrize("literal", [1.5, "1e3", True, " 1/2x", "1.5", " 2", "+2", "1/-2", "1_000", None, ["1"]])
def test_rational_literals_are_strict(literal):
    with pytest.raises(ExprError, match="bad rational literal"):
        parse_rational(literal)


def test_rational_literals_accepted():
    assert parse_rational(3) == 3
    assert parse_rational("-3/4") == parse_rational(-3) / 4
    assert parse_rational("0/5") == 0
    with pytest.raises(ExprError):
        parse_rational("1/0")


def test_integer_fields_take_json_ints_or_decimal_strings():
    doc = load_document(_with(("bundle", "rank"), "2"))
    assert doc.bundle.rank == 2
    # only the Chern-class keys given are read, not one slot per unit of rank
    assert load_document(_with(("bundle", "rank"), 10**12)).bundle.rank == 10**12
    for value in (True, 2.0, "2.0", "two", " 2"):
        with pytest.raises(DocumentError, match=r"bundle\.rank"):
            load_document(_with(("bundle", "rank"), value))


def test_bounds_section_is_parsed_at_load():
    # a malformed bounds section is an input error for every command
    with pytest.raises(DocumentError, match=r"bounds\.K"):
        load_document(_with(("bounds", "K"), "x"))
    doc = load_document(_with(("bounds", "c1sq_L"), "9"))
    assert doc.bounds["c1sq_L"] == 9 and doc.bounds["p"] == 0
    assert bound_input(load_document(_with(("bounds",), {"K": "1"})), "p") == 0  # p defaults to 0


@pytest.mark.parametrize("key", ["K", "C", "c_n"])
def test_missing_hypothesis_is_named_and_not_offered_a_derivation(key):
    # K, C and c_n are only ever given, so the message names the key alone
    doc = load_document(_cp2(bounds={k: v for k, v in BOUNDS.items() if k != key}))
    with pytest.raises(DocumentError) as err:
        doc.bounds_input()
    assert str(err.value) == f"this bound needs bounds.{key}"


def test_deeply_nested_expression_is_input_error():
    with pytest.raises(DocumentError, match=r"manifold\.chern"):
        load_document(_with(("manifold", "chern", "c1"), "(" * 5000 + "h" + ")" * 5000))


def test_failed_certificate_exits_3(monkeypatch):
    # an sl(2) identity that fails in this process is a bug, not an input error
    monkeypatch.setattr(sl2, "sl2_commutator_check", lambda n, r=1: False)
    code, _, err = run_hlab(["lefschetz-check", "--n", "2"])
    assert code == 3
    assert err.startswith("certificate failure: ")


@pytest.mark.parametrize(
    "argv",
    [("lefschetz-check", "--n", "4", "--output", "machine"), ("fixture", "cp", "1"), ("verify",)],
    ids=" ".join,
)
def test_closed_stdout_exits_141_without_a_traceback(argv):
    # the reader is gone before the report is written (`hlab ... | head`):
    # the exit code is 128 + SIGPIPE, used by no other failure, and stderr is empty
    proc = subprocess.Popen(
        [sys.executable, "-m", "hlab", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=HLAB_ENV
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 141, err
    assert not err


def _cp4_bounds(tmp_path, p):
    tree = cp_fixture(4)
    tree["bounds"] = dict(BOUNDS, p=p)
    return write_doc(tmp_path, tree, "cp4.json")


# (argv, the flag or JSON path the error must name); exited 1 or printed a traceback
FLAG_FAULTS = {
    "hilbert-p": (("hilbert", "--p", "7"), "--p = 7"),
    "ineq-j": (("ineq", "--j", "9"), "--j = 9"),
    "bounds-p": (("bounds", "--which", "t5"), "bounds.p = 7"),
    "fixture-out": (("fixture", "cp", "1", "--out", "/nonexistent/dir/x.json"), "--out"),
    "empty-input": (("genus", "--input="), "--input needs a value"),
    "empty-input-word": (("genus", "--input", ""), "--input needs a value"),
    "empty-out": (("fixture", "cp", "1", "--out="), "--out needs a value"),
}


@pytest.mark.parametrize("argv,named", list(FLAG_FAULTS.values()), ids=list(FLAG_FAULTS))
def test_flag_fault_exits_2_naming_the_flag(tmp_path, argv, named):
    doc = [] if argv[0] == "fixture" else ["--input", _cp4_bounds(tmp_path, p=7)]
    code, _, err = run_hlab([*argv, *doc])
    assert code == 2, err
    assert err.startswith(f"input error: {named}")
    assert "Traceback" not in err


# (argv, whether a curvature document is also given, what the error must name);
# fell through to the document path, or silently ignored the document
COMMUTATOR_FLAG_FAULTS = {
    "empty-gammas": (("commutator", "--gammas="), False, "--gammas"),
    "gammas-and-input": (("commutator", "--gammas=1,2"), True, "--gammas and --input"),
}


@pytest.mark.parametrize("argv,with_input,named", list(COMMUTATOR_FLAG_FAULTS.values()), ids=list(COMMUTATOR_FLAG_FAULTS))
def test_commutator_flag_fault_exits_2_naming_the_flag(tmp_path, argv, with_input, named):
    doc = write_doc(tmp_path, {"curvature": {"gammas": ["1", "3"]}}, "curvature.json")
    code, _, err = run_hlab([*argv, *(["--input", doc] if with_input else [])])
    assert code == 2, err
    assert err.startswith(f"input error: {named}")
    assert "Traceback" not in err


@pytest.mark.parametrize("n,r", [(6, 2), (1, 10**9)])
def test_lefschetz_check_r_bounds_the_dimension(monkeypatch, n, r):
    def refuse(*args):
        raise AssertionError("the space was built before --r was checked")

    monkeypatch.setattr(sl2, "sl2_commutator_check", refuse)
    code, _, err = run_hlab(["lefschetz-check", "--n", str(n), "--r", str(r)])
    assert code == 2
    assert "--r" in err and "4^6" in err


class _Started(Exception):
    pass


@pytest.mark.parametrize("n,r", [(6, 1), (5, 2), (4, 2)])
def test_lefschetz_check_accepts_the_sizes_in_use(monkeypatch, n, r):
    def started(*args):
        raise _Started

    monkeypatch.setattr(sl2, "sl2_commutator_check", started)
    with pytest.raises(_Started):
        run_hlab(["lefschetz-check", "--n", str(n), "--r", str(r)])


@pytest.mark.parametrize("n,r", [(6, 1), (5, 4)])
def test_lefschetz_check_runs_the_guard_rail_sizes(n, r):
    # the largest admitted spaces, 4^n r = 4^6, run to the end and meet the
    # closed forms of the benchmark's oracle
    code, out, err = run_hlab(["lefschetz-check", "--n", str(n), "--r", str(r), "--output", "machine"])
    assert code == 0, err
    report = json.loads(out)
    results = report["results"]
    assert results["sl2_commutator"] is True
    want = [{"p": p, "q": q, "injective": p + q < n} for p in range(n + 1) for q in range(n + 1)]
    assert results["injectivity"] == want
    assert results["lefschetz_powers"] == perfbench("gen").lefschetz_powers(n)
    assert report["warnings"] == ["star identity check skipped for n > 3 (cost)"]


def _hermitian(n, r):
    """theta with the r x r identity on the diagonal: n line bundles' worth of curvature."""
    eye = [["1" if a == b else "0" for b in range(r)] for a in range(r)]
    zero = [["0"] * r for _ in range(r)]
    return {"curvature": {"hermitian": {"theta": [[eye if j == k else zero for k in range(n)] for j in range(n)]}}}


# (argv, curvature document or None, what the error must name); every way into
# the operator engine is held to one space rule, 1 <= n <= 6 and 4^n r <= 4^6,
# and a Hermitian document of rank r >= 2 also to a largest bidegree block of
# dimension r C(n, floor(n/2))^2 <= 100.  The Hermitian documents were admitted
# and ran for minutes.
SPACE_FAULTS = {
    "hermitian-n6-r2": (("commutator",), _hermitian(6, 2), "curvature.hermitian.theta: the space has dimension"),
    "hermitian-n3-r65": (("commutator",), _hermitian(3, 65), "curvature.hermitian.theta: the space has dimension"),
    "hermitian-n4-r3": (("commutator",), _hermitian(4, 3), "curvature.hermitian.theta: the largest bidegree block has dimension 3 C(4, 2)^2 = 108 > 100"),
    "gammas-flag-seven": (("commutator", "--gammas", "1,2,3,4,5,6,7"), None, "--gammas: n = 7"),
    "gammas-document-seven": (("commutator",), {"curvature": {"gammas": list("1234567")}}, "curvature.gammas: n = 7"),
    "lefschetz-check-n6-r2": (("lefschetz-check", "--n", "6", "--r", "2"), None, "--n 6 --r 2: "),
    "lefschetz-check-n7-r1": (("lefschetz-check", "--n", "7", "--r", "1"), None, "--n 7 --r 1: n = 7"),
}


@pytest.mark.parametrize("argv,tree,named", list(SPACE_FAULTS.values()), ids=list(SPACE_FAULTS))
def test_space_rule_refuses_before_a_basis_is_built(monkeypatch, tmp_path, argv, tree, named):
    def refuse(*args):
        raise AssertionError("a basis was built before the space was checked")

    monkeypatch.setattr(lefschetz, "get_basis", refuse)
    monkeypatch.setattr(sl2, "sign_table", refuse)
    if tree is not None:
        argv += ("--input", write_doc(tmp_path, tree, "curvature.json"))
    start = time.perf_counter()
    code, _, err = run_hlab(argv)
    assert time.perf_counter() - start < 1
    assert code == 2, err
    assert err.startswith(f"input error: {named}")
    assert "Traceback" not in err


def test_hermitian_line_bundle_n6_runs_without_a_basis(monkeypatch, tmp_path):
    # a line bundle's norm builds no bidegree block, so n = 6, r = 1 is
    # admitted: it exits 0 and encloses the closed form of the rotated split
    # fixture, without building a basis
    def refuse(*args):
        raise AssertionError("the line-bundle norm built a basis")

    monkeypatch.setattr(lefschetz, "get_basis", refuse)
    spec, table = rotated_split_curvature(random.Random(6), 6, 1)
    s = spec.scale
    theta = [
        [[[[str(Fraction(x, s)), str(Fraction(y, s))] for x, y in row] for row in mat] for mat in line]
        for line in spec.theta
    ]
    doc = write_doc(tmp_path, {"curvature": {"hermitian": {"theta": theta}}}, "curvature.json")
    start = time.perf_counter()
    code, out, err = run_hlab(["commutator", "--input", doc, "--output", "machine"])
    assert time.perf_counter() - start < 1
    assert code == 0, err
    results = json.loads(out)["results"]
    assert results["exact"] is False
    rows = {(row["p"], row["q"]): row["value"] for row in results["C_pq"]}
    assert set(rows) == set(table)
    for key, value in rows.items():
        lo, hi = (Fraction(v) for v in value) if isinstance(value, list) else (Fraction(value),) * 2
        assert lo <= table[key] <= hi, key
