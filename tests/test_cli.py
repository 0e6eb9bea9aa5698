"""End-to-end CLI behaviour: subcommands, exit codes, output formats."""

import json

import pytest
from conftest import run_hlab, write_doc

from hlab.inputdoc import cp_fixture, digest, load_document


@pytest.fixture
def cp2_file(tmp_path):
    return write_doc(tmp_path, cp_fixture(2), "cp2.json")


@pytest.fixture
def cp2_bounds_file(tmp_path):
    tree = cp_fixture(2)
    tree["bounds"] = {"K": "100", "C": "2", "c_n": "1/10", "p": 0}
    return write_doc(tmp_path, tree, "cp2b.json")


def test_genus_text(cp2_file):
    code, out, _ = run_hlab(["genus", "--input", cp2_file])
    assert code == 0
    assert "td = 1 + 3/2*h + h^2" in out
    assert "chi_y = y^2 - y + 1" in out
    assert "chi_p = [1, -1, 1]" in out


def test_genus_machine_output(cp2_file):
    code, out, _ = run_hlab(["genus", "--input", cp2_file, "--output", "machine"])
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "genus"
    assert report["results"]["chi_p"] == ["1", "-1", "1"]
    assert report["inputs_digest"] == digest(cp_fixture(2))
    assert report["warnings"] == []


def test_kcoeffs(cp2_file):
    code, out, _ = run_hlab(["kcoeffs", "--input", cp2_file])
    assert code == 0
    assert "K = [3, -3, 1]" in out
    assert "k1_closed_form_matches = True" in out
    assert "k2_surface_form_matches = True" in out


def test_hilbert(cp2_file):
    code, out, _ = run_hlab(["hilbert", "--input", cp2_file, "--p", "0"])
    assert code == 0
    assert "polynomial = (1/2)m^2 + (3/2)m + 1" in out


def test_ineq(cp2_file):
    code, out, _ = run_hlab(["ineq", "--input", cp2_file])
    assert code == 0
    assert out.count("holds=True") == 3


def test_commutator_flag():
    code, out, _ = run_hlab(["commutator", "--gammas", "1,2"])
    assert code == 0
    assert "C = 3" in out
    assert "flat = False" in out


def test_commutator_machine():
    code, out, _ = run_hlab(["commutator", "--gammas", "0,0", "--output", "machine"])
    report = json.loads(out)
    assert code == 0
    assert report["results"]["C"] == "0"
    assert report["results"]["flat"] is True


def test_lefschetz_check():
    code, out, _ = run_hlab(["lefschetz-check", "--n", "2"])
    assert code == 0
    assert "sl2_commutator = True" in out
    assert "star_conjugation_gives_lambda = True" in out
    assert "bijective=True" in out


def test_bounds_t4(cp2_bounds_file):
    code, out, _ = run_hlab(["bounds", "--input", cp2_bounds_file, "--which", "t4"])
    assert code == 0
    assert "bound_T4 = 5" in out


def test_bounds_t5_pipeline(cp2_bounds_file):
    code, out, _ = run_hlab(["bounds", "--input", cp2_bounds_file, "--which", "t5"])
    assert code == 0
    assert "m_p = 3" in out  # chi^0(CP^2, O(m)) = 1 at m = 0, -3


def test_bounds_t4chain(cp2_bounds_file):
    code, out, _ = run_hlab(["bounds", "--input", cp2_bounds_file, "--which", "t4chain"])
    assert code == 0
    assert "N = 2" in out and "bound = 3" in out


def test_bounds_etheta_inconsistent_is_engine_error(cp2_bounds_file):
    # CP^2 is positively curved; the certified bracket must come out empty
    code, _, err = run_hlab(["bounds", "--input", cp2_bounds_file, "--which", "etheta"])
    assert code == 1
    assert "engine error" in err


def test_bounds_build_the_hilbert_polynomial_only_where_used(tmp_path):
    tree = cp_fixture(2)
    tree["line_bundle"]["c1"] = "1/2*h"  # chi(X, L^m) = (m^2 + 6m + 8)/8 is not integer-valued
    tree["bounds"] = {"K": "100", "C": "2", "c_n": "1/10"}
    path = write_doc(tmp_path, tree, "half.json")
    outcomes = {}
    for which in ("t4", "t2", "etheta", "t5", "c1", "t4chain"):
        code, _, err = run_hlab(["bounds", "--input", path, "--which", which])
        outcomes[which] = (code, "p-Hilbert polynomial for p=0 is not integer-valued" in err)
    assert outcomes["t4"] == outcomes["t2"] == (0, False)
    assert outcomes["etheta"][1] is False  # fails on its own bracket, as on CP^2
    assert outcomes["t5"] == outcomes["c1"] == outcomes["t4chain"] == (1, True)


def test_bounds_call_chi_y_only_where_chi_p_is_read(cp2_bounds_file, monkeypatch):
    from hlab import genus

    calls, chi_y = [], genus.chi_y

    def counted(*args):
        calls.append(args)
        return chi_y(*args)

    monkeypatch.setattr(genus, "chi_y", counted)
    for which, count in (("t4", 0), ("t2", 0), ("t5", 1), ("etheta", 1)):
        calls.clear()
        run_hlab(["bounds", "--input", cp2_bounds_file, "--which", which])
        assert len(calls) == count, which


def test_kcoeffs_calls_chi_y_once(tmp_path, monkeypatch):
    # the K_1 and K_2 closed-form checks read the K_j the command printed
    from hlab import genus

    calls, chi_y = [], genus.chi_y

    def counted(*args):
        calls.append(args)
        return chi_y(*args)

    monkeypatch.setattr(genus, "chi_y", counted)
    for n in (2, 5):
        path = write_doc(tmp_path, cp_fixture(n), f"cp{n}.json")
        calls.clear()
        code, out, _ = run_hlab(["kcoeffs", "--input", path])
        assert code == 0 and "k1_closed_form_matches = True" in out
        assert ("k2_surface_form_matches = True" in out) == (n == 2)
        assert len(calls) == 1, n


def test_ineq_calls_chi_y_once_for_every_j(tmp_path, monkeypatch):
    from hlab import genus

    calls, chi_y = [], genus.chi_y

    def counted(*args):
        calls.append(args)
        return chi_y(*args)

    monkeypatch.setattr(genus, "chi_y", counted)
    path = write_doc(tmp_path, cp_fixture(4), "cp4.json")
    for argv in ((), ("--j", "2")):
        calls.clear()
        code, out, _ = run_hlab(["ineq", "--input", path, *argv])
        assert code == 0 and "holds=True" in out
        assert len(calls) == 1, argv
    calls.clear()
    assert run_hlab(["ineq", "--input", path, "--j", "5"])[0] == 2
    assert calls == []  # the --j range check comes first


@pytest.mark.parametrize("extra", [{}, {"p": 3}], ids=["no-X-L-data", "and-p-out-of-range"])
@pytest.mark.parametrize("which", ["t4", "t2", "t5", "c1", "etheta", "t4chain"])
def test_bounds_check_the_hypotheses_before_what_a_bound_reads(tmp_path, which, extra):
    # C = 0 violates a hypothesis (exit 1) before any a_n, chi^p or Hilbert
    # polynomial is asked for, and before bounds.p is range-checked (exit 2)
    bounds = {"n": 2, "K": "100", "C": "0", "c_n": "1/10", "c1sq_L": "1", "chi": 5, **extra}
    path = write_doc(tmp_path, {"bounds": bounds}, "flat.json")
    code, _, err = run_hlab(["bounds", "--input", path, "--which", which])
    assert code == 1
    assert "C = 0 makes the bound undefined" in err


@pytest.mark.parametrize("chern", [{"c1": "h"}, {"c1": "3*h", "c2": "2*h^2"}])
def test_bounds_read_the_euler_characteristics_of_x_not_of_the_bundle(tmp_path, chern):
    # chi^p(X, E) of the bundle section was read as chi^p(X): an O(1) bundle
    # moved the m_p of t5 from 3 to 33554435/8388608
    tree = cp_fixture(2)
    tree["bounds"] = {"K": "100", "C": "2", "c_n": "1/20"}
    reports = []
    for bundle in ({"rank": 1, "chern": {}}, {"rank": 2, "chern": chern}):
        tree["bundle"] = bundle
        path = write_doc(tmp_path, tree)
        for which in ("t4", "t2", "t5", "c1", "etheta", "t4chain"):
            code, out, err = run_hlab(["bounds", "--input", path, "--which", which, "--output", "machine"])
            reports.append((which, code, json.loads(out)["results"] if out else err))
    assert reports[:6] == reports[6:]
    assert reports[4][:2] == ("etheta", 0) and reports[4][2]["chi"] == "3"


def test_bounds_value_given_both_ways_is_accepted_when_it_agrees(tmp_path):
    # a disagreeing one is refused (FAULTS in test_input_boundary.py)
    tree = cp_fixture(2)
    for chi in (3, "3"):  # chi(CP^2) = 3
        tree["bounds"] = {"K": "100", "C": "2", "c_n": "1/20", "chi": chi}
        path = write_doc(tmp_path, tree)
        code, out, err = run_hlab(["bounds", "--input", path, "--which", "etheta"])
        assert code == 0, err
        assert "chi = 3" in out


def test_fixture_emission_and_digest_roundtrip(tmp_path):
    out_path = tmp_path / "cp3.json"
    code, _, _ = run_hlab(["fixture", "cp", "3", "--out", str(out_path)])
    assert code == 0
    reloaded = json.loads(out_path.read_text())
    assert digest(reloaded) == digest(cp_fixture(3))
    doc1 = load_document(reloaded)
    doc2 = load_document(cp_fixture(3))
    assert doc1.manifold.chern == doc2.manifold.chern
    assert doc1.manifold.fclass == doc2.manifold.fclass


def test_parse_error_exit_code(tmp_path):
    tree = {"ring": {"generators": [{"name": "h", "weight": 1}], "dimension": 2},
            "manifold": {"chern": {"c1": "3*q"}},
            "fundamental_class": {"h^2": "1"}}
    code, _, err = run_hlab(["genus", "--input", write_doc(tmp_path, tree, "bad.json")])
    assert code == 2
    assert "input error" in err


def test_engine_error_exit_code(tmp_path):
    # fractional fundamental class makes chi^p non-integral
    tree = cp_fixture(2)
    tree["fundamental_class"]["h^2"] = "1/7"
    code, _, err = run_hlab(["genus", "--input", write_doc(tmp_path, tree, "frac.json")])
    assert code == 1
    assert "engine error" in err


def test_missing_input_is_usage_error():
    code, _, err = run_hlab(["genus"])
    assert code == 2


def test_hilbert_p_out_of_range(cp2_file):
    code, _, err = run_hlab(["hilbert", "--input", cp2_file, "--p", "5"])
    assert code == 2
    assert err.startswith("input error: --p = 5")


def test_truncation_warning_reaches_the_report(tmp_path):
    tree = cp_fixture(2)
    tree["manifold"]["chern"]["c1"] = "3*h + h^3"
    path = write_doc(tmp_path, tree, "truncated.json")
    code, out, err = run_hlab(["genus", "--input", path, "--output", "machine"])
    assert (code, err) == (0, "")
    assert json.loads(out)["warnings"] == ["terms of weight above 2 truncated in '3*h + h^3'"]


@pytest.mark.parametrize("which,count", [("t5", 1), ("c1", 2)])
def test_bound_warnings_reach_the_report_once_per_evaluation(tmp_path, which, count):
    # a_n = 0: each bound evaluation warns that the Hilbert polynomial degenerates
    path = write_doc(tmp_path, {"bounds": {
        "n": 2, "K": "100", "C": "2", "c_n": "1/10", "a_n": "0", "p": 0, "chi_p": ["1", "-1", "1"],
        "hilbert": {"0": ["1", "3/2", "1/2"]},
    }}, "degenerate.json")
    code, out, err = run_hlab(["bounds", "--which", which, "--input", path, "--output", "machine"])
    assert (code, err) == (0, "")
    warned = json.loads(out)["warnings"]
    assert len(warned) == count and all(w.startswith("a_n = 0: Hilbert polynomial degenerates") for w in warned)


def test_verify_passes():
    code, out, _ = run_hlab(["verify"])
    assert code == 0
    assert "FAIL" not in out
    assert "checks passed" in out


def test_deterministic_output(cp2_file):
    _, out1, _ = run_hlab(["genus", "--input", cp2_file, "--output", "machine"])
    _, out2, _ = run_hlab(["genus", "--input", cp2_file, "--output", "machine"])
    assert out1 == out2


def test_commutator_hermitian_document(tmp_path):
    tree = {
        "curvature": {
            "hermitian": {
                "theta": [
                    [[["0"]], [["1"]]],
                    [[["1"]], [["0"]]],
                ]
            }
        }
    }
    path = write_doc(tmp_path, tree, "herm.json")
    code, out, _ = run_hlab(["commutator", "--input", path, "--output", "machine"])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["exact"] is False
    # an enclosure [lo, hi], or one exact value when it is degenerate
    C = report["results"]["C"]
    lo, hi = C if isinstance(C, list) else (C, C)
    # base-index eigenvalues are +-1, so C matches the diagonal spec (1, -1)
    from fractions import Fraction

    assert Fraction(lo) <= 2 <= Fraction(hi)


def test_bounds_from_scalar_overrides(tmp_path):
    # no manifold at all: chi_p and the Hilbert polynomial supplied directly
    tree = {
        "bounds": {
            "n": 2,
            "K": "100",
            "C": "2",
            "c_n": "1/10",
            "p": 0,
            "a_n": "1",
            "chi_p": ["1", "-1", "1"],
            "hilbert": {"0": ["1", "3/2", "1/2"]},
        }
    }
    path = write_doc(tmp_path, tree, "scalars.json")
    code, out, _ = run_hlab(["bounds", "--input", path, "--which", "t5"])
    assert code == 0
    assert "m_p = 3" in out
    code, out, _ = run_hlab(["bounds", "--input", path, "--which", "t4chain"])
    assert code == 0
    assert "N = 2" in out


@pytest.mark.parametrize(
    "curvature,path",
    [
        ({"gammas": "12"}, "curvature.gammas"),
        ({"gammas": []}, "curvature.gammas"),
        ({"hermitian": {"theta": []}}, "curvature.hermitian.theta"),
        ({"hermitian": {"theta": [[]]}}, "curvature.hermitian.theta"),
        ({"hermitian": {"theta": "12"}}, "curvature.hermitian.theta"),
        ({"hermitian": {"theta": [[[["1", "0"], ["0"]]]]}}, "curvature.hermitian.theta"),
        ({"hermitian": {"theta": [[[["0"]], [["1"]]], [[["0"]]]]}}, "curvature.hermitian.theta"),
        (
            {"hermitian": {"theta": [[[["1"]], [["0", "0"], ["0", "0"]]], [[["0"]], [["1"]]]]}},
            "curvature.hermitian.theta",
        ),
        (
            {"hermitian": {"theta": [[[["0"]], [["1"]]], [[["2"]], [["0"]]]]}},
            "curvature.hermitian.theta",
        ),
    ],
)
def test_malformed_curvature_is_input_error(tmp_path, curvature, path):
    # a string is not a list, and a ragged, empty or non-Hermitian theta is
    # malformed input, not an engine failure
    code, _, err = run_hlab(["commutator", "--input", write_doc(tmp_path, {"curvature": curvature}, "curv.json")])
    assert code == 2
    assert path in err


@pytest.mark.parametrize(
    "argv,fundamental_value,named",
    [
        (("genus",), "x", "'x'"),
        (("genus",), "1/0", "'1/0'"),
        (("commutator", "--gammas", "1,,2"), None, "''"),
        (("commutator", "--gammas", "1,2,3,4,5,6,7"), None, "--gammas"),
    ],
)
def test_bad_rational_literal_is_input_error(tmp_path, argv, fundamental_value, named):
    if fundamental_value is not None:
        tree = cp_fixture(2)
        tree["fundamental_class"]["h^2"] = fundamental_value
        argv += ("--input", write_doc(tmp_path, tree))
    code, _, err = run_hlab(argv)
    assert code == 2
    assert "input error" in err and named in err


@pytest.mark.parametrize(
    "override,path",
    [
        ({"chi_p": "12"}, "bounds.chi_p"),
        ({"chi_p": {"0": "1"}}, "bounds.chi_p"),
        ({"hilbert": {"0": "123"}}, "bounds.hilbert.0"),
        ({"hilbert": ["1", "3/2", "1/2"]}, "bounds.hilbert"),
    ],
)
def test_bounds_lists_must_be_json_lists(tmp_path, override, path):
    # a string is not the list of its characters ("12" is not [1, 2])
    bounds = {"n": 2, "K": "100", "C": "2", "c_n": "1/10", "p": 0, "a_n": "1",
              "chi_p": ["1", "-1", "1"], "hilbert": {"0": ["1", "3/2", "1/2"]}}
    doc = write_doc(tmp_path, {"bounds": {**bounds, **override}}, "bounds.json")
    for which in ("t4", "t5"):
        code, _, err = run_hlab(["bounds", "--input", doc, "--which", which])
        assert code == 2
        assert path in err


# -- the command table: flag syntax, usage errors and help ------------------------

# (argv, what the message must start with); each is a usage error through main
USAGE_FAULTS = {
    "unknown-subcommand": (("nosuch",), "'nosuch'"),
    "unknown-flag": (("genus", "--bogus", "x"), "--bogus"),
    "abbreviation": (("genus", "--inp", "x"), "--inp"),
    "missing-value": (("genus", "--input"), "--input"),
    "bad-int": (("hilbert", "--p", "x"), "--p"),
    "bad-which": (("bounds", "--which", "t9"), "--which"),
    "bad-output": (("genus", "--output", "xml"), "--output"),
    "lefschetz-check-without-n": (("lefschetz-check",), "--n"),
    "bounds-without-which": (("bounds",), "--which"),
    "fixture-without-n": (("fixture", "cp"), "N"),
    "fixture-extra-positional": (("fixture", "cp", "1", "2"), "'2'"),
    "repeated-flag": (("hilbert", "--p", "1", "--p", "2"), "--p"),
    # an integer is -?[0-9]+, as in a document; int() read these as 1, 1, 10 and 2
    "int-padded": (("hilbert", "--p", " 1"), "--p: ' 1' is not an integer"),
    "int-non-ascii": (("hilbert", "--p", "١"), "--p: '١' is not an integer"),
    "int-underscore": (("lefschetz-check", "--n", "1_0"), "--n: '1_0' is not an integer"),
    "positional-padded": (("fixture", "cp", " 2"), "N: ' 2' is not an integer"),
    # not an integer, so a flag; was read as the positional -1
    "non-ascii-negative": (("fixture", "cp", "-١"), "-١ is not a flag"),
}


@pytest.mark.parametrize("argv,named", list(USAGE_FAULTS.values()), ids=list(USAGE_FAULTS))
def test_usage_fault_exits_2_naming_the_flag(argv, named):
    code, out, err = run_hlab(argv)  # returns: main raises no SystemExit
    assert code == 2, err
    assert err.startswith(f"input error: {named}"), err
    assert "Traceback" not in err
    assert out == ""


def test_repeated_flag_is_refused(cp2_file):
    # was read as the last value: --p 2
    code, out, err = run_hlab(["hilbert", "--input", cp2_file, "--p", "1", "--p", "2"])
    assert (code, out) == (2, "")
    assert err.startswith("input error: --p ")


def test_abbreviated_flag_is_refused(cp2_file):
    # was read as --output machine; --out is a flag of fixture only
    code, out, err = run_hlab(["genus", "--input", cp2_file, "--out", "machine"])
    assert (code, out) == (2, "")
    assert err.startswith("input error: --out ")


FLAGS = {
    "genus": "--input --output",
    "kcoeffs": "--input --output",
    "hilbert": "--input --output --p",
    "ineq": "--input --output --j",
    "commutator": "--input --output --gammas",
    "lefschetz-check": "--output --n --r",
    "bounds": "--input --output --which t2 t4 t5 c1 etheta t4chain",
    "verify": "",
    "fixture": "KIND N --out cp",
}


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_lists_every_subcommand(flag):
    code, out, err = run_hlab([flag])
    assert (code, err) == (0, "")
    assert all(name in out for name in FLAGS)


def test_no_arguments_is_a_usage_error_that_lists_the_subcommands():
    code, out, err = run_hlab([])
    assert (code, out) == (2, "")
    assert err.startswith("input error: ")
    assert all(name in err for name in FLAGS)


@pytest.mark.parametrize("name", list(FLAGS))
def test_subcommand_help_lists_its_flags(name):
    for flag in ("-h", "--help"):
        code, out, err = run_hlab([name, flag])
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: hlab {name}")
        assert all(word in out for word in FLAGS[name].split()), out


def test_flag_equals_value_reads_like_two_tokens(cp2_file):
    spaced = run_hlab(["hilbert", "--input", cp2_file, "--p", "1", "--output", "machine"])
    joined = run_hlab(["hilbert", f"--input={cp2_file}", "--p=1", "--output=machine"])
    assert spaced == joined
    assert joined[0] == 0 and json.loads(joined[1])["results"]["p"] == 1


def test_the_token_after_a_flag_is_its_value():
    code, out, _ = run_hlab(["commutator", "--gammas", "-1,2"])
    assert code == 0
    assert "C = 3" in out
    assert run_hlab(["commutator", "--gammas=-1,2"]) == (code, out, "")
