"""Start-up loads only the engine a command runs.

``import hlab`` loads no engine module and ``import hlab.cli`` loads the
literal rules of the flags alone (``cli``, ``errors``, ``literals``).  The
command table names each command's handler by its module, so a job loads
no other command's handler, and the help texts (``helptext``) load only
for ``--help`` and for the usage error of a missing subcommand.
``hlab fixture`` loads its own module (``fixturedoc``) and no document
reader.  A command that reads a document loads the document reader
(``inputdoc``), and with a ring section the ring-side readers of
``genus``; the expression parser (``exprparse``) loads only for an
expression or a key outside the form the ring prints.  Each command
imports the engine it runs: the HRR engine (``ring``, ``genus``,
``qpoly``), the bound evaluators (``bounds``), ``diagonal`` (whose
``commutator_norm`` imports the certificate a curvature takes), the integer
Kahler certificates of ``lefschetz-check`` (``sl2``, with the sign rules of
``monomials``) or the self-check suite (``selfcheck``, ``fixtures``), which
loads every engine but the operator engine, and the dense series and
interpolation of ``oracles``, which no other command and no benchmark job
loads; each engine but ``sl2``, whose certificates return plain values,
loads the value records (``record``).  A refused ``lefschetz-check`` space
loads the flag rules alone.  No command loads
the operator engine (``lefschetz``), which holds the one Gaussian-rational
type ``CQ``: only the tests and the benchmark tracer run it, and no other
module names ``CQ``.  The exact set
of each is pinned here, and so is the size of the hlab code each set
compiles: its AST nodes, docstrings left out.
No command loads ``dataclasses``, ``inspect``, ``argparse`` and the
``gettext`` and ``locale`` it pulls in, or OpenSSL's ``_hashlib``.
The package still exports every name it did when it imported all of its
modules eagerly, but the operator engine's own, which live only in
``hlab.lefschetz``, and ``LefschetzPower``: ``lefschetz_power`` returns
its singular values as a tuple.
"""

import ast
import builtins
import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import HLAB_ENV, bench_grid, perfbench, run_hlab, write_doc

import hlab
from hlab.fixturedoc import cp_fixture

# verify alone: the suite, its seeded draws, and the dense series and
# interpolation it holds the closed forms to
HEAVY = {"hlab.selfcheck", "hlab.fixtures", "hlab.oracles"}
OPENSSL = {"hashlib", "_hashlib"}  # 4-5 ms of a cold start; the input digest takes a lean module
# sha256 without OpenSSL: in _sha2 from Python 3.12 on, in _sha256 before
LEAN_SHA256 = [name for name in ("_sha2", "_sha256") if importlib.util.find_spec(name)]
CODEGEN = {"dataclasses", "inspect"}  # about 24 ms of a cold start when they load
ARGPARSE = {"argparse", "gettext", "locale"}  # about 7 ms of a cold start with the parsers built
ENGINES = {
    f"hlab.{m}"
    for m in (
        "blocks", "bounds", "diagonal", "exprparse", "fixturedoc", "genus", "helptext", "hermitian",
        "inputdoc", "lefschetz", "linebundle", "monomials", "qpoly", "record", "ring", "sl2",
    )
}
# The hlab modules a command loads: the flag rules, the document reader if it
# reads a document (with the expression parser if the document has an
# expression or a key outside the ring's printed form), plus its engine and
# the value records.
FLAGS = {f"hlab.{m}" for m in ("cli", "errors", "literals")}
FIXTURE = FLAGS | {"hlab.fixturedoc"}
HELP = FLAGS | {"hlab.helptext"}
READER = FLAGS | {"hlab.inputdoc"}
HRR = READER | {"hlab.ring", "hlab.genus", "hlab.qpoly", "hlab.record"}
PARSED = HRR | {"hlab.exprparse"}  # HRR on a document outside the printed form
BOUNDS = {"hlab.bounds"}
DIAGONAL = FLAGS | {"hlab.diagonal", "hlab.record"}
# lefschetz-check: the space rule is a flag rule, the certificates are integer
# ones, and they return plain values: no value record loads
SL2 = FLAGS | {"hlab.sl2", "hlab.monomials"}
# a Hermitian document: the record, which holds theta as Gaussian integers
# over one scale; then the eigenvalue path of a line bundle, or the blocks of
# rank r >= 2.  No Gaussian rational (``CQ``) is made on either path.
HERMITIAN = READER | {"hlab.diagonal", "hlab.hermitian", "hlab.record"}
LINE_BUNDLE = HERMITIAN | {"hlab.linebundle"}
RANK_R = HERMITIAN | {"hlab.blocks", "hlab.monomials"}
# verify: every engine but the operator engine, the CP^n document and the
# suite itself, whose seeded draws are Gaussian integers over a scale too,
# and the oracles its Todd-series check reads
VERIFY = HRR | BOUNDS | SL2 | LINE_BUNDLE | RANK_R | HEAVY | {"hlab.fixturedoc"}

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


def _probe(code: str, *argv: str) -> dict:
    """The JSON object that ``code`` prints last, run in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=HLAB_ENV, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded(code: str, *argv: str) -> tuple[int, set]:
    report = _probe(code, *argv)
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
    return write_doc(tmp_path_factory.mktemp("doc"), tree, "cp2.json")


HRR_AND_BOUNDS = [
    ("genus",), ("kcoeffs",), ("hilbert",), ("ineq",),
    *(("bounds", "--which", which) for which in ("t2", "t4", "t5", "c1", "etheta", "t4chain")),
]


@pytest.mark.parametrize("argv", HRR_AND_BOUNDS, ids=" ".join)
def test_hrr_and_bounds_commands_skip_the_operator_engine(cp2_file, argv):
    code, modules = _loaded(PROBE, *argv, "--input", cp2_file)
    assert code == (1 if argv[-1] == "etheta" else 0)  # E_theta's hypotheses fail on this document
    assert _hlab(modules) == (HRR | BOUNDS if argv[0] == "bounds" else HRR)


# c_2(X) of CP^2 and c_2(E) of a rank-2 bundle written outside the form the
# ring prints, and their canonical twins
TWINS = [("3 * h^2", "(h + h)*h"), ("3*h^2", "2*h^2")]


def test_only_a_document_outside_the_printed_form_loads_the_parser(tmp_path):
    reports = []
    for c2x, c2e in TWINS:
        tree = cp_fixture(2)
        tree["manifold"]["chern"]["c2"] = c2x
        tree["bundle"] = {"rank": 2, "chern": {"c1": "h", "c2": c2e}}
        path = write_doc(tmp_path, tree, f"{len(reports)}.json")
        code, modules = _loaded(PROBE, "genus", "--input", path)
        assert code == 0
        assert _hlab(modules) == (HRR if reports else PARSED)
        report = json.loads(run_hlab(["genus", "--input", path, "--output", "machine"])[1])
        reports.append({**report, "inputs_digest": None})
    assert reports[0] == reports[1]


# Load the documents of the JSON list at argv[1] in a fresh interpreter; print
# how many loaded and the modules loaded.
GRID_PROBE = """
import json, sys
from hlab.inputdoc import load_document
with open(sys.argv[1]) as fh:
    trees = json.load(fh)
for tree in trees:
    load_document(tree)
print(json.dumps({"code": len(trees), "modules": sorted(sys.modules)}))
"""


def test_no_bench_grid_document_loads_the_parser(tmp_path):
    # every document of the benchmark's grids is in the form the ring prints,
    # so reading one compiles no expression parser
    trees = [tree for seed in (0, 7, 13) for wl in bench_grid(seed).values() for tree in wl.docs.values()]
    count, modules = _loaded(GRID_PROBE, write_doc(tmp_path, trees, "grids.json"))
    assert count == len(trees) == 51
    assert "hlab.genus" in modules and "hlab.exprparse" not in modules


# Build the benchmark's seed-0 grid with the suite's harness (argv[1] holds
# conftest.py), as the benchmark conditions its documents, then run every job
# in-process; print the modules loaded after the build and after the jobs.
GRID_JOBS_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from conftest import bench_grid, run_hlab, write_doc
grid = bench_grid()
built = sorted(sys.modules)
for workload, wl in grid.items():
    paths = {name: write_doc(sys.argv[2], tree, f"{workload}-{name}.json") for name, tree in wl.docs.items()}
    for job in wl.jobs:
        run_hlab([*job.argv, *(["--input", paths[job.doc]] if job.doc else []), "--output", "machine"])
print(json.dumps({"code": 0, "built": built, "modules": sorted(sys.modules)}))
"""


def test_no_bench_grid_job_and_no_conditioning_loads_the_oracles(tmp_path):
    # the oracles are verify's alone: neither the harness's conditioning
    # (perfbench/gen.py leans on genus and bounds) nor any job compiles them
    report = _probe(GRID_JOBS_PROBE, str(Path(__file__).parent), str(tmp_path))
    assert "hlab.genus" in report["built"] and "hlab.oracles" not in report["built"]
    assert "hlab.bounds" in report["modules"] and "hlab.oracles" not in report["modules"]


def test_bounds_without_manifold_data_load_no_hrr_engine(tmp_path):
    path = write_doc(tmp_path, {"bounds": {"n": 2, "K": "100", "C": "2", "c_n": "1/10"}}, "scalars.json")
    code, modules = _loaded(PROBE, "bounds", "--which", "t4", "--input", path)
    assert code == 0
    assert _hlab(modules) == READER | BOUNDS | {"hlab.qpoly", "hlab.record"}


def test_fixture_command_loads_no_operator_engine():
    code, modules = _loaded(PROBE, "fixture", "cp", "1")
    assert code == 0
    assert _hlab(modules) == FIXTURE
    assert "hlab.inputdoc" not in modules


@pytest.mark.parametrize(
    "argv,exit_code", [((), 2), (("--help",), 0), (("-h",), 0), (("genus", "--help"), 0)], ids=repr
)
def test_help_and_the_missing_subcommand_load_the_help_texts_alone(argv, exit_code):
    code, modules = _loaded(PROBE, *argv)
    assert code == exit_code
    assert _hlab(modules) == HELP


def test_cli_import_loads_the_flag_rules_only():
    assert _import_loads("import hlab.cli") == FLAGS


@pytest.fixture(scope="module")
def hermitian_file(tmp_path_factory):
    theta = [[[[1, 0], [0, 2]]]]  # r = 2
    return write_doc(tmp_path_factory.mktemp("doc"), {"curvature": {"hermitian": {"theta": theta}}}, "hermitian.json")


@pytest.fixture(scope="module")
def line_file(tmp_path_factory):
    theta = [[[["1"]], [[["1/2", "1"]]]], [[[["1/2", "-1"]]], [["-3"]]]]  # r = 1
    return write_doc(tmp_path_factory.mktemp("doc"), {"curvature": {"hermitian": {"theta": theta}}}, "line.json")


@pytest.fixture(scope="module")
def gammas_file(tmp_path_factory):
    return write_doc(tmp_path_factory.mktemp("doc"), {"curvature": {"gammas": [1, "-1/2"]}}, "gammas.json")


# Diagonal curvature, from the flag or a document, and a refused space take
# the closed form and the space rule, a Hermitian line bundle the
# eigenvalues of theta, and Hermitian curvature of rank r >= 2 the bidegree
# blocks read from theta (no operator engine, no bound evaluators).  The
# lefschetz-check certificates are integer tables: no operator engine, no
# Gaussian rationals, no diagonal closed form and no value record.
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


def test_verify_loads_no_operator_engine():
    # its Kahler checks read the integer tables of sl2 and the blocks of
    # blocks, held to closed forms and a sign rule of its own
    code, modules = _loaded(PROBE, "verify")
    assert code == 0
    assert _hlab(modules) == VERIFY
    assert "hlab.lefschetz" not in modules


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
    # takes the space rule from literals and re-exports three sl2 certificates;
    # its scalars are its own
    assert _import_loads("import hlab.lefschetz") == {
        "hlab.lefschetz", "hlab.diagonal", "hlab.errors", "hlab.literals", "hlab.monomials", "hlab.record",
        "hlab.sl2",
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
    report = _probe(LAYOUT_PROBE, *layout)
    assert (report["lean"], report["hashlib"]) == ((True, False) if layout else (False, True))
    assert report["digest"] == hashlib.sha256(b'{"a":null,"b":[1,"1/2"]}').hexdigest()


def _code_nodes(name: str) -> int:
    """The AST nodes of module ``name`` once every module, class and
    function docstring is dropped: the code it compiles, not its prose."""
    tree = ast.parse((Path(hlab.__file__).parent / f"{name.removeprefix('hlab.')}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                node.body = node.body[1:]
    return sum(1 for _ in ast.walk(tree))


# The hlab code, in AST nodes without docstrings, that each pinned module set
# compiles, exactly: a change that makes a command compile more must raise its
# pin here, and one that makes it compile less must lower it, so no pin keeps
# slack.  Comments and docstrings do not count.  The repeated-p check of
# inputdoc's bounds.hilbert reader (24 nodes) reaches every document pin, and
# the CertificateError import of bounds (1 node) the two bounds pins.
CODE_NODES = [
    ("import hlab.cli", FLAGS, 2328),
    ("fixture", FIXTURE, 2558),
    ("--help and the missing subcommand", HELP, 2575),
    ("genus kcoeffs hilbert ineq", HRR, 11905),  # from 11881: the repeated-p check
    ("genus on a document outside the printed form", PARSED, 13184),  # from 13160: the repeated-p check
    ("bounds", HRR | BOUNDS, 15434),  # from 15409: the repeated-p check and the CertificateError import
    # from 8544: the repeated-p check and the CertificateError import
    ("bounds without manifold data", READER | BOUNDS | {"hlab.qpoly", "hlab.record"}, 8569),
    # from 3938: diagonal.commutator_norm's rank branch (+16), which replaced
    # hermitian.hermitian_norm, less the table local of diagonal_norm (-5)
    ("commutator --gammas", DIAGONAL, 3949),
    # from 4683: the rank branch and the table local as above, and the
    # repeated-p check
    ("commutator --input GAMMAS", DIAGONAL | {"hlab.inputdoc"}, 4718),
    ("lefschetz-check", SL2, 4122),  # from 4714: no LefschetzPower record, no record module
    # from 8751 and 7573: hermitian_norm gone, its rank branch in diagonal
    # (-13); HermitianCurvature checks theta's shape in one pass and packs its
    # integers from a generator (-10); the table locals of diagonal_norm (-5)
    # and, for LINE, line_bundle_norm (-5); the repeated-p check (+24)
    ("commutator --input HERMITIAN", RANK_R, 8747),
    ("commutator --input LINE", LINE_BUNDLE, 7564),
    # lowered from 30030: no hermitian_norm and no LefschetzPower record, net
    # of the Hermitian-path changes and the two document checks above
    ("verify", VERIFY, 29965),
]


@pytest.mark.parametrize("modules,pinned", [c[1:] for c in CODE_NODES], ids=[c[0] for c in CODE_NODES])
def test_pinned_module_sets_compile_no_more_source(modules, pinned):
    assert sum(_code_nodes(name) for name in modules) == pinned


@pytest.mark.parametrize("statement", ["import hlab.diagonal", "from hlab import DiagonalCurvature, flatness_test"])
def test_diagonal_closed_form_loads_no_operator_engine(statement):
    assert _import_loads(statement) == {"hlab.diagonal", "hlab.errors", "hlab.record"}


def _complex_scalar_names(module: str) -> list[str]:
    """The names ``gaussian`` and ``CQ...`` of the Gaussian-rational scalars
    that the source of hlab module ``module`` holds, lazy imports inside a
    function included, which a module-set probe sees only if the function
    runs."""
    tree = ast.parse((Path(hlab.__file__).parent / f"{module}.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
        names.update(getattr(node, field, None) for field in ("id", "attr", "name", "asname"))
    return sorted(name for name in names - {None} if name == "gaussian" or name.startswith("CQ"))


def test_diagonal_names_no_complex_scalars():
    # the diagonal record is its gammas
    assert not _complex_scalar_names("diagonal")


PACKAGE = sorted(p.stem for p in Path(hlab.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("module", [m for m in PACKAGE if m not in ("lefschetz", "diagonal")])
def test_hermitian_path_names_no_complex_scalars(module):
    # from the document or the seeded draw to the certificate, theta and its
    # blocks are Gaussian integers over one scale: no Gaussian rational is
    # made, and only the operator engine names one (diagonal: the test above)
    assert not _complex_scalar_names(module)


def test_parser_uses_the_rings_public_api_only():
    # the expression parser builds its values with the ring's public
    # arithmetic: it imports no private ring name, reads no field of the
    # element representation and subclasses no ring type
    tree = ast.parse((Path(hlab.__file__).parent / "exprparse.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "ring":
            found += [alias.name for alias in node.names if alias.name.startswith("_")]
        elif isinstance(node, ast.Attribute) and node.attr in ("parts", "den"):
            found.append(node.attr)
        elif isinstance(node, ast.ClassDef):
            found += [ast.unparse(base) for base in node.bases if getattr(base, "id", None) not in dir(builtins)]
    assert not found, found


def test_module_sets_name_every_module_once():
    # a deleted module left in a set, or a new one left out, fails here
    modules = {f"hlab.{p.stem}" for p in Path(hlab.__file__).parent.glob("*.py")} - {"hlab.__init__", "hlab.__main__"}
    assert ENGINES | HEAVY | FLAGS == modules


def test_bare_import_loads_no_engine():
    probe = "import hlab, json, sys\nprint(json.dumps({'code': 0, 'modules': list(sys.modules)}))"
    _, modules = _loaded(probe)
    assert not modules & (ENGINES | HEAVY | {"hlab.cli"}), sorted(modules & ENGINES)


# The exports of the package, by home module, as the eager __init__ listed them.
EXPORTS = {
    "bounds": (
        "BoundsInput Interval RootReport T4ChainReport bound_C1 bound_T2 bound_T4 bound_T5 "
        "e_theta_interval forward_difference lemma42_search lemma44_search "
        "isolate_real_roots root_report sqrt_enclosure t4_chain"
    ),
    "exprparse": "ExprError parse_expression parse_rational",
    "genus": (
        "BundleData FundamentalClass IntegralityError ManifoldData MissingChernNumber bundle_power "
        "ch_hodge_sheaf chern_character chern_inequality_check chi_p chi_y hilbert_polynomial "
        "integrate integrate_product k1_formula_check k2_surface_formula_check "
        "k_coefficients projective_space todd_class"
    ),
    "diagonal": "CertificateError CommutatorNorm DiagonalCurvature commutator_norm flatness_test",
    "hermitian": "HermitianCurvature",
    "oracles": "Series elementary_from_power_sums log todd_series",
    "qpoly": "QPoly",
    "ring": "GradedElement RingSpec SpecMismatch exp genus_product power_sums_from_elementary",
    "sl2": "injectivity_scan lefschetz_power sl2_commutator_check",
}
EXPORTED = [(home, name) for home, names in EXPORTS.items() for name in names.split()]


def test_every_export_is_listed():
    assert len(EXPORTED) == 58
    listed = set(dir(hlab))
    for name in [name for _, name in EXPORTED] + ["__version__"]:
        assert name in listed and name in hlab.__all__, name


@pytest.mark.parametrize("home,name", EXPORTED, ids=[name for _, name in EXPORTED])
def test_export_is_its_home_modules_object(home, name):
    assert getattr(hlab, name) is getattr(importlib.import_module(f"hlab.{home}"), name)


# The operator engine's own names: the tests' oracle exports none through
# the package, and each lives in hlab.lefschetz alone.
ORACLE = (
    "CQ ExteriorBasis FormVector Operator curvature_operator diagonal_commutator_eigenvalues get_basis "
    "op_L op_Lambda op_star"
)


@pytest.mark.parametrize("name", ORACLE.split())
def test_oracle_name_is_not_exported(name):
    from hlab import lefschetz

    assert hasattr(lefschetz, name)
    assert not hasattr(hlab, name) and name not in dir(hlab) and name not in hlab.__all__


def _forwarding_modules() -> list[str]:
    """The hlab modules, the package aside, that define a module ``__getattr__``."""
    return [
        module
        for module in PACKAGE
        if module != "__init__"
        and any(
            isinstance(node, ast.FunctionDef) and node.name == "__getattr__"
            for node in ast.parse((Path(hlab.__file__).parent / f"{module}.py").read_text()).body
        )
    ]


def test_forwarded_names_are_tracer_targets():
    # a module __getattr__ keeps a name that moved to hlab.oracles at its old
    # home only because perfbench/tracer.py wraps it there by name: it serves
    # the names of its one tuple _MOVED, each a TARGETS name, and no other
    from hlab import oracles

    targets, forwarding = perfbench("tracer").TARGETS, _forwarding_modules()
    assert forwarding == ["qpoly", "ring"]
    for module in forwarding:
        home = importlib.import_module(f"hlab.{module}")
        assert home._MOVED and set(home._MOVED) <= {dotted.partition(".")[0] for dotted in targets[module]}
        for name in home._MOVED:
            assert name not in vars(home) and getattr(home, name) is getattr(oracles, name), name
        with pytest.raises(AttributeError, match="no_such_name"):
            home.no_such_name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hlab.no_such_name


def test_exit_code_exceptions_keep_their_old_paths():
    from hlab import errors, exprparse, genus, inputdoc

    assert inputdoc.DocumentError is errors.DocumentError
    assert exprparse.ExprError is errors.ExprError
    assert genus.IntegralityError is errors.IntegralityError
    assert genus.MissingChernNumber is errors.MissingChernNumber
