"""Start-up loads only the engine a command runs.

``import hlab`` loads no engine module and ``import hlab.cli`` loads the
literal rules of the flags alone.  A command that reads a document loads
the document reader (``inputdoc``), and the expression parser
(``exprparse``) when the document holds expressions.  Each command imports
the engine it runs: the HRR engine (``ring``, ``genus``, ``qpoly``), the
bound evaluators (``bounds``, with the root isolation of ``roots``),
``diagonal`` (whose ``commutator_norm`` imports the certificate a
curvature takes), the integer Kahler certificates of ``lefschetz-check``
(``sl2``, with the sign rules of ``monomials``) or the self-check suite
(``selfcheck``, ``fixtures``); only the last loads the operator engine
(``lefschetz``).  The exact set of each is pinned here, and so is the hlab
source each set compiles.
No command loads ``dataclasses``, ``inspect``, ``argparse`` and the
``gettext`` and ``locale`` it pulls in, or OpenSSL's ``_hashlib``.
The package still exports every name it did when it imported all of its
modules eagerly.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hlab
from hlab.inputdoc import cp_fixture

SRC = str(Path(hlab.__file__).parents[1])
HEAVY = {"hlab.lefschetz", "hlab.selfcheck", "hlab.fixtures"}
OPENSSL = {"hashlib", "_hashlib"}  # 4-5 ms of a cold start; the input digest takes a lean module
# sha256 without OpenSSL: in _sha2 from Python 3.12 on, in _sha256 before
LEAN_SHA256 = [name for name in ("_sha2", "_sha256") if importlib.util.find_spec(name)]
CODEGEN = {"dataclasses", "inspect"}  # about 24 ms of a cold start when they load
ARGPARSE = {"argparse", "gettext", "locale"}  # about 7 ms of a cold start with the parsers built
ENGINES = {
    f"hlab.{m}"
    for m in (
        "blocks", "bounds", "diagonal", "exprparse", "gaussian", "genus", "hermitian", "inputdoc", "lefschetz",
        "linebundle", "literals", "monomials", "qpoly", "ring", "roots", "sl2",
    )
}
# The hlab modules a command loads: the flag rules, the document reader if it
# reads a document (with the expression parser if the document has
# expressions), plus its engine.
FLAGS = {f"hlab.{m}" for m in ("cli", "errors", "record", "literals")}
READER = FLAGS | {"hlab.inputdoc"}
BOUNDARY = READER | {"hlab.exprparse"}
HRR = BOUNDARY | {"hlab.ring", "hlab.genus", "hlab.qpoly"}
BOUNDS = {"hlab.bounds", "hlab.roots"}
DIAGONAL = FLAGS | {"hlab.diagonal"}
# lefschetz-check: the space rule is a flag rule, the certificates are integer ones
SL2 = FLAGS | {"hlab.sl2", "hlab.monomials"}
# a Hermitian document: the record and its Gaussian-rational entries; then
# the eigenvalue path of a line bundle, or the blocks of rank r >= 2
HERMITIAN = READER | {"hlab.diagonal", "hlab.hermitian", "hlab.gaussian"}
LINE_BUNDLE = HERMITIAN | {"hlab.linebundle"}
RANK_R = HERMITIAN | {"hlab.blocks", "hlab.monomials"}

# Run one command in a fresh interpreter and print the modules that importing
# hlab.cli and running the command loaded.
PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
from hlab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(set(sys.modules) - before)}))
"""


def _loaded(code: str, *argv: str) -> tuple[int, set]:
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    return report["code"], set(report["modules"])


def _hlab(modules: set) -> set:
    return {m for m in modules if m.startswith("hlab.")}


def _import_loads(statement: str) -> set:
    """The hlab modules that running ``statement`` in a fresh interpreter loads."""
    probe = (
        f"import json, sys\nbefore = set(sys.modules)\n{statement}\n"
        "print(json.dumps({'code': 0, 'modules': sorted(set(sys.modules) - before)}))"
    )
    return _hlab(_loaded(probe)[1])


@pytest.fixture(scope="module")
def cp2_file(tmp_path_factory):
    tree = cp_fixture(2)
    tree["bounds"] = {"K": "100", "C": "2", "c_n": "1/10", "p": 0, "chi": 3}
    path = tmp_path_factory.mktemp("doc") / "cp2.json"
    path.write_text(json.dumps(tree))
    return str(path)


HRR_AND_BOUNDS = [
    ("genus",), ("kcoeffs",), ("hilbert",), ("ineq",),
    *(("bounds", "--which", which) for which in ("t2", "t4", "t5", "c1", "etheta", "t4chain")),
]


@pytest.mark.parametrize("argv", HRR_AND_BOUNDS, ids=" ".join)
def test_hrr_and_bounds_commands_skip_the_operator_engine(cp2_file, argv):
    code, modules = _loaded(PROBE, *argv, "--input", cp2_file)
    assert code == (1 if argv[-1] == "etheta" else 0)  # E_theta's hypotheses fail on this document
    assert _hlab(modules) == (HRR | BOUNDS if argv[0] == "bounds" else HRR)


def test_bounds_without_manifold_data_load_no_hrr_engine(tmp_path):
    path = tmp_path / "scalars.json"
    path.write_text(json.dumps({"bounds": {"n": 2, "K": "100", "C": "2", "c_n": "1/10"}}))
    code, modules = _loaded(PROBE, "bounds", "--which", "t4", "--input", str(path))
    assert code == 0
    assert _hlab(modules) == READER | BOUNDS | {"hlab.qpoly"}


def test_fixture_command_loads_no_operator_engine():
    code, modules = _loaded(PROBE, "fixture", "cp", "1")
    assert code == 0
    assert _hlab(modules) == READER


def test_cli_import_loads_the_flag_rules_only():
    assert _import_loads("import hlab.cli") == FLAGS


@pytest.fixture(scope="module")
def hermitian_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("doc") / "hermitian.json"
    path.write_text(json.dumps({"curvature": {"hermitian": {"theta": [[[[1, 0], [0, 2]]]]}}}))  # r = 2
    return str(path)


@pytest.fixture(scope="module")
def line_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("doc") / "line.json"
    theta = [[[["1"]], [[["1/2", "1"]]]], [[[["1/2", "-1"]]], [["-3"]]]]  # r = 1
    path.write_text(json.dumps({"curvature": {"hermitian": {"theta": theta}}}))
    return str(path)


@pytest.fixture(scope="module")
def gammas_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("doc") / "gammas.json"
    path.write_text(json.dumps({"curvature": {"gammas": [1, "-1/2"]}}))
    return str(path)


# Diagonal curvature, from the flag or a document, and a refused space take
# the closed form and the space rule, a Hermitian line bundle the
# eigenvalues of theta, and Hermitian curvature of rank r >= 2 the bidegree
# blocks read from theta (no operator engine, no bound evaluators).  The
# lefschetz-check certificates are integer tables: no operator engine, no
# Gaussian rationals and no diagonal closed form.
OPERATOR_COMMANDS = [
    (("commutator", "--gammas", "1,2"), 0, DIAGONAL),
    (("commutator", "--input", "GAMMAS"), 0, DIAGONAL | {"hlab.inputdoc"}),
    (("lefschetz-check", "--n", "7"), 2, FLAGS),
    (("lefschetz-check", "--n", "2"), 0, SL2),
    (("commutator", "--input", "HERMITIAN"), 0, RANK_R),
    (("commutator", "--input", "LINE"), 0, LINE_BUNDLE),
]


@pytest.mark.parametrize("argv,exit_code,loads", OPERATOR_COMMANDS, ids=[" ".join(c[0]) for c in OPERATOR_COMMANDS])
def test_operator_commands_load_lefschetz_only(gammas_file, hermitian_file, line_file, argv, exit_code, loads):
    files = {"GAMMAS": gammas_file, "HERMITIAN": hermitian_file, "LINE": line_file}
    code, modules = _loaded(PROBE, *(files.get(arg, arg) for arg in argv))
    assert code == exit_code
    assert _hlab(modules) == loads


@pytest.mark.parametrize(
    "argv",
    [("fixture", "cp", "1"), ("genus",), ("bounds", "--which", "t5"), ("commutator", "--gammas", "1,2"),
     ("lefschetz-check", "--n", "2")],
    ids=" ".join,
)
def test_commands_load_no_code_generation(cp2_file, argv):
    if argv[0] in ("genus", "bounds"):
        argv = (*argv, "--input", cp2_file)
    code, modules = _loaded(PROBE, *argv)
    assert code == 0
    assert not modules & (CODEGEN | ARGPARSE), sorted(modules & (CODEGEN | ARGPARSE))


def test_operator_engine_imports_no_other_engine():
    # Interval lives in record, so lefschetz no longer pulls in bounds and qpoly,
    # and it loads neither the Hermitian record nor any norm certificate; it
    # takes the space rule from literals and re-exports three sl2 certificates
    assert _import_loads("import hlab.lefschetz") == {
        "hlab.lefschetz", "hlab.diagonal", "hlab.errors", "hlab.gaussian", "hlab.literals", "hlab.monomials",
        "hlab.record", "hlab.sl2",
    }


@pytest.mark.parametrize(
    "argv",
    [("fixture", "cp", "1"), ("genus",), ("bounds", "--which", "t5"), ("commutator", "--gammas", "1,2"),
     ("commutator", "--input", "HERMITIAN"), ("commutator", "--input", "LINE"), ("lefschetz-check", "--n", "2"),
     ("verify",)],
    ids=" ".join,
)
@pytest.mark.skipif(not LEAN_SHA256, reason="this interpreter has sha256 only through hashlib")
def test_commands_load_no_openssl_hash(cp2_file, hermitian_file, line_file, argv):
    files = {"HERMITIAN": hermitian_file, "LINE": line_file}
    argv = tuple(files.get(arg, arg) for arg in argv)
    if argv[0] in ("genus", "bounds"):
        argv = (*argv, "--input", cp2_file)
    code, modules = _loaded(PROBE, *argv)
    assert code == 0
    assert not modules & OPENSSL, sorted(modules & OPENSSL)


# Import hlab.literals with only the named lean sha256 modules importable,
# each a stand-in for this interpreter's own, and print the digest of a tree.
LAYOUT_PROBE = """
import json, sys, types
real = None
for name in ("_sha2", "_sha256"):
    try:
        real = real or __import__(name).sha256
    except ImportError:
        pass
    sys.modules[name] = None
for name in sys.argv[1:]:
    sys.modules[name] = types.ModuleType(name)
    sys.modules[name].sha256 = real
from hlab import literals
lean = real is not None and literals.sha256 is real
tree = {"b": [1, "1/2"], "a": None}
print(json.dumps({"lean": lean, "hashlib": "hashlib" in sys.modules, "digest": literals.digest(tree)}))
"""


@pytest.mark.parametrize("layout", [("_sha2",), ("_sha256",), ()], ids=["3.12 on", "up to 3.11", "no lean module"])
def test_digest_takes_sha256_from_either_stdlib_layout(layout):
    # the digest takes the lean module of either layout, and hashlib only where
    # neither exists; the hash is the same
    if layout and not LEAN_SHA256:
        pytest.skip("this interpreter has sha256 only through hashlib")
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-c", LAYOUT_PROBE, *layout], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert (report["lean"], report["hashlib"]) == ((True, False) if layout else (False, True))
    assert report["digest"] == hashlib.sha256(b'{"a":null,"b":[1,"1/2"]}').hexdigest()


# The hlab source, in bytes, that each pinned module set compiles: a change
# may make a command compile less, never more, without raising its pin here.
SOURCE_BYTES = [
    ("import hlab.cli", FLAGS, 26134),
    ("fixture", READER, 39835),
    ("genus kcoeffs hilbert ineq", HRR, 85061),
    ("bounds", HRR | BOUNDS, 99728),
    ("bounds without manifold data", READER | BOUNDS | {"hlab.qpoly"}, 61553),
    ("commutator --gammas", DIAGONAL, 32178),
    ("commutator --input GAMMAS", DIAGONAL | {"hlab.inputdoc"}, 45879),
    ("lefschetz-check", SL2, 36063),
    ("commutator --input HERMITIAN", RANK_R, 67471),
    ("commutator --input LINE", LINE_BUNDLE, 61685),
]


@pytest.mark.parametrize("modules,pinned", [c[1:] for c in SOURCE_BYTES], ids=[c[0] for c in SOURCE_BYTES])
def test_pinned_module_sets_compile_no_more_source(modules, pinned):
    root = Path(hlab.__file__).parent
    assert sum((root / f"{name.removeprefix('hlab.')}.py").stat().st_size for name in modules) <= pinned


@pytest.mark.parametrize("statement", ["import hlab.diagonal", "from hlab import DiagonalCurvature, flatness_test"])
def test_diagonal_closed_form_loads_no_operator_engine(statement):
    assert _import_loads(statement) == {"hlab.diagonal", "hlab.errors", "hlab.record"}


def test_bare_import_loads_no_engine():
    probe = "import hlab, json, sys\nprint(json.dumps({'code': 0, 'modules': list(sys.modules)}))"
    _, modules = _loaded(probe)
    assert not modules & (ENGINES | HEAVY | {"hlab.cli"}), sorted(modules & ENGINES)


# The exports of the package, by home module, as the eager __init__ listed them.
EXPORTS = {
    "bounds": (
        "BoundsInput Interval RootReport T4ChainReport bound_C1 bound_T2 bound_T4 bound_T5 "
        "e_theta_interval forward_difference lemma42_search lemma44_search "
        "root_report sqrt_enclosure t4_chain"
    ),
    "exprparse": "ExprError parse_expression parse_rational",
    "gaussian": "CQ",
    "genus": (
        "BundleData FundamentalClass IntegralityError ManifoldData MissingChernNumber bundle_power "
        "ch_hodge_sheaf chern_character chern_inequality_check chi_p chi_y hilbert_polynomial "
        "hodge_classes integrate integrate_product k1_formula_check k2_surface_formula_check "
        "k_coefficients projective_space todd_class"
    ),
    "hermitian": "HermitianCurvature",
    "lefschetz": (
        "CertificateError CommutatorNorm DiagonalCurvature ExteriorBasis FormVector "
        "Operator commutator_norm curvature_operator "
        "diagonal_commutator_eigenvalues flatness_test get_basis op_L op_Lambda op_star"
    ),
    "qpoly": "QPoly",
    "ring": (
        "GradedElement RingSpec Series SpecMismatch elementary_from_power_sums exp genus_product "
        "log power_sums_from_elementary todd_series"
    ),
    "roots": "isolate_real_roots",
    "sl2": "LefschetzPower injectivity_scan lefschetz_power sl2_commutator_check",
}
EXPORTED = [(home, name) for home, names in EXPORTS.items() for name in names.split()]


def test_every_export_is_listed():
    assert len(EXPORTED) == 70
    listed = set(dir(hlab))
    for name in [name for _, name in EXPORTED] + ["__version__"]:
        assert name in listed and name in hlab.__all__, name


@pytest.mark.parametrize("home,name", EXPORTED, ids=[name for _, name in EXPORTED])
def test_export_is_its_home_modules_object(home, name):
    assert getattr(hlab, name) is getattr(importlib.import_module(f"hlab.{home}"), name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hlab.no_such_name


def test_exit_code_exceptions_keep_their_old_paths():
    from hlab import errors, exprparse, genus, inputdoc, lefschetz

    assert inputdoc.DocumentError is errors.DocumentError
    assert exprparse.ExprError is errors.ExprError
    assert genus.IntegralityError is errors.IntegralityError
    assert genus.MissingChernNumber is errors.MissingChernNumber
    assert lefschetz.CertificateError is errors.CertificateError
