"""Start-up loads only the engine a command runs.

``import hlab`` loads no engine module and ``import hlab.cli`` loads the
input boundary alone.  Each command imports the engine it runs: the HRR
engine (``ring``, ``genus``, ``qpoly``), the bound evaluators (``bounds``),
the operator engine (``lefschetz``) or the self-check suite (``selfcheck``,
``fixtures``); the exact set of each is pinned here.  No command loads
``dataclasses``, ``inspect``, or ``argparse`` and the ``gettext`` and
``locale`` it pulls in.
The package still exports every name it did when it imported all of its
modules eagerly.
"""

import importlib
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
CODEGEN = {"dataclasses", "inspect"}  # about 24 ms of a cold start when they load
ARGPARSE = {"argparse", "gettext", "locale"}  # about 7 ms of a cold start with the parsers built
ENGINES = {f"hlab.{m}" for m in ("bounds", "exprparse", "genus", "inputdoc", "lefschetz", "qpoly", "ring")}
# The hlab modules a command loads: the input boundary, plus its engine.
BOUNDARY = {f"hlab.{m}" for m in ("cli", "errors", "record", "inputdoc", "exprparse")}
HRR = BOUNDARY | {"hlab.ring", "hlab.genus", "hlab.qpoly"}
OPERATOR = BOUNDARY | {"hlab.lefschetz"}

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
    assert _hlab(modules) == (HRR | {"hlab.bounds"} if argv[0] == "bounds" else HRR)


def test_bounds_without_manifold_data_load_no_hrr_engine(tmp_path):
    path = tmp_path / "scalars.json"
    path.write_text(json.dumps({"bounds": {"n": 2, "K": "100", "C": "2", "c_n": "1/10"}}))
    code, modules = _loaded(PROBE, "bounds", "--which", "t4", "--input", str(path))
    assert code == 0
    assert _hlab(modules) == BOUNDARY | {"hlab.bounds", "hlab.qpoly"}


def test_fixture_command_loads_no_operator_engine():
    code, modules = _loaded(PROBE, "fixture", "cp", "1")
    assert code == 0
    assert _hlab(modules) == BOUNDARY


@pytest.fixture(scope="module")
def hermitian_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("doc") / "hermitian.json"
    path.write_text(json.dumps({"curvature": {"hermitian": {"theta": [[[[1, 0], [0, 2]]]]}}}))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [("commutator", "--gammas", "1,2"), ("lefschetz-check", "--n", "2"), ("commutator", "--input", "HERMITIAN")],
    ids=" ".join,
)
def test_operator_commands_load_lefschetz_only(hermitian_file, argv):
    code, modules = _loaded(PROBE, *(hermitian_file if arg == "HERMITIAN" else arg for arg in argv))
    assert code == 0
    assert _hlab(modules) == OPERATOR


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
    # Interval lives in record, so lefschetz no longer pulls in bounds and qpoly
    probe = (
        "import json, sys\nbefore = set(sys.modules)\nimport hlab.lefschetz\n"
        "print(json.dumps({'code': 0, 'modules': sorted(set(sys.modules) - before)}))"
    )
    _, modules = _loaded(probe)
    assert {m for m in modules if m.startswith("hlab.")} == {"hlab.lefschetz", "hlab.errors", "hlab.record"}


def test_bare_import_loads_no_engine():
    probe = "import hlab, json, sys\nprint(json.dumps({'code': 0, 'modules': list(sys.modules)}))"
    _, modules = _loaded(probe)
    assert not modules & (ENGINES | HEAVY | {"hlab.cli"}), sorted(modules & ENGINES)


# The exports of the package, by home module, as the eager __init__ listed them.
EXPORTS = {
    "bounds": (
        "BoundsInput Interval RootReport T4ChainReport bound_C1 bound_T2 bound_T4 bound_T5 "
        "e_theta_interval forward_difference isolate_real_roots lemma42_search lemma44_search "
        "root_report sqrt_enclosure t4_chain"
    ),
    "exprparse": "ExprError parse_expression parse_rational",
    "genus": (
        "BundleData FundamentalClass IntegralityError ManifoldData MissingChernNumber bundle_power "
        "ch_hodge_sheaf chern_character chern_inequality_check chi_p chi_y hilbert_polynomial "
        "hodge_classes integrate integrate_product k1_formula_check k2_surface_formula_check "
        "k_coefficients projective_space todd_class"
    ),
    "lefschetz": (
        "CQ CertificateError CommutatorNorm DiagonalCurvature ExteriorBasis FormVector "
        "HermitianCurvature LefschetzPower Operator commutator_norm curvature_operator "
        "diagonal_commutator_eigenvalues flatness_test get_basis injectivity_scan lefschetz_power "
        "op_L op_Lambda op_star sl2_commutator_check"
    ),
    "qpoly": "QPoly",
    "ring": (
        "GradedElement RingSpec Series SpecMismatch elementary_from_power_sums exp genus_product "
        "log power_sums_from_elementary todd_series"
    ),
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
