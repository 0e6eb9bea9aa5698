"""The `verify` suite checks the fixtures users get, and it and the library
keep their checks under ``python -O``."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import HLAB_ENV, perfbench

import hlab

# genus binds ring's todd_series when it is imported, so importing it before
# the patch keeps the fault in the one check that reads ring.todd_series.
BROKEN_TODD_UNDER_O = """
from hlab import genus, ring
from hlab.cli import main

ring.todd_series = lambda n: ring.Series([1] * (n + 1))
raise SystemExit(main(["verify"]))
"""

# The CP^n checks of `verify` read the document `hlab fixture cp N` prints,
# so a fault in that document fails them.
DOUBLED_CP_FUNDAMENTAL_CLASS = """
from hlab import fixturedoc
from hlab.cli import main

cp_fixture = fixturedoc.cp_fixture

def doubled(n):
    tree = cp_fixture(n)
    tree["fundamental_class"] = {key: "2" for key in tree["fundamental_class"]}
    return tree

fixturedoc.cp_fixture = doubled
raise SystemExit(main(["verify"]))
"""

# The line-bundle check of `verify` holds the eigenvalue path of
# ``linebundle.line_bundle_norm`` against the Bareiss block certificate, so
# eigenvalue enclosures that all miss by 1 fail it.
SHIFTED_EIGENVALUES = """
from hlab import linebundle
from hlab.cli import main

enclosures = linebundle.eigenvalue_enclosures
linebundle.eigenvalue_enclosures = lambda theta, trace: [(lo + 1, hi + 1) for lo, hi in enclosures(theta, trace)]
raise SystemExit(main(["verify"]))
"""


# The Kahler checks of `verify` hold the sign table and the star of
# lefschetz-check to a sign rule of their own.  A wedge sign that drops the
# sign of moving xibar_K1 past xi_J2, or a star with every phase negated,
# passes the certificates of lefschetz-check; each fails that check alone.
# sl2 binds wedge_sign and star_key when it is imported, so each patch comes
# before anything imports sl2.
DROPPED_CROSSING_SIGN = """
from hlab import monomials

def wedge_sign(J1, K1, J2, K2):
    if J1 & J2 or K1 & K2:
        return 0
    return -1 if (monomials._inversions(J1, J2) + monomials._inversions(K1, K2)) % 2 else 1

monomials.wedge_sign = wedge_sign
from hlab.cli import main
raise SystemExit(main(["verify"]))
"""

NEGATED_STAR_PHASES = """
from hlab import monomials

star_key = monomials.star_key
monomials.star_key = lambda n, c: (star_key(n, c)[0], (star_key(n, c)[1] + 2) % 4)
from hlab.cli import main
raise SystemExit(main(["verify"]))
"""

# A one-line edit to the source of an hlab module, run in place of that
# module before anything imports from it: ``verify`` must fail the named
# checks and pass the others.  An ``enclose`` that stops at 64 times its
# width passes the other Hermitian checks, whose good float guesses end the
# search before it bisects; an ``inertia_signs`` whose zero-pivot congruence
# always takes u = +1 or +i leaves the cancelling pivot at 0.  The
# Chern-inequality right side summed from p = j + 1 fails the hockey-stick
# check alone.  A star pairing that turns every entry by one more power of
# i refuses the blocks of both checks that certify them.
MUTANT = """
import sys
from pathlib import Path
from hlab import {module} as target

source = Path(target.__file__).read_text()
old, new = sys.argv[1:]
if source.count(old) != 1:
    raise SystemExit(f"the mutated text must occur once, not {{source.count(old)}} times")
exec(compile(source.replace(old, new), target.__file__, "exec"), vars(target))
from hlab.cli import main
raise SystemExit(main(["verify"]))
"""

MUTANTS = {
    "enclose width": (
        "hermitian", "while hi - lo > width:", "while hi - lo > 64 * width:",
        ("enclosures within their width from any guess",),
    ),
    "zero-pivot sign": (
        "hermitian", "sign = 1 if 2 * p + m else -1", "sign = 1", ("inertia signs on zero-pivot families",),
    ),
    "inequality from j + 1": (
        "genus", "for p in range(j, n + 1)", "for p in range(j + 1, n + 1)",
        ("chern inequality right side vs hockey stick",),
    ),
    "star pair rotation": (
        "blocks", "(power[a] - power[b] + 2) % 4", "(power[a] - power[b] + 3) % 4",
        ("line-bundle norm: eigenvalues vs blocks", "commutator blocks: rotated split bundles vs line tables"),
    ),
}


def _verify(script, *flags):
    return subprocess.run(
        [sys.executable, *flags, "-c", script], capture_output=True, text=True, env=HLAB_ENV, timeout=300
    )


def test_verify_reports_injected_fault_under_optimize():
    proc = _verify(BROKEN_TODD_UNDER_O, "-O")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "FAIL  todd series bernoulli values" in proc.stdout
    assert "PASS  lefschetz-check sign and star tables vs sorting signs" in proc.stdout
    assert "22/23 checks passed" in proc.stdout


def test_verify_checks_the_cp_document_hlab_fixture_prints():
    proc = _verify(DOUBLED_CP_FUNDAMENTAL_CLASS)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "FAIL  projective space genus suite" in proc.stdout
    assert "FAIL  hilbert polynomial consistency" in proc.stdout
    assert "21/23 checks passed" in proc.stdout


def test_verify_checks_the_line_bundle_eigenvalue_path():
    proc = _verify(SHIFTED_EIGENVALUES)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "FAIL  line-bundle norm: eigenvalues vs blocks" in proc.stdout
    assert "22/23 checks passed" in proc.stdout


@pytest.mark.parametrize("script", [DROPPED_CROSSING_SIGN, NEGATED_STAR_PHASES], ids=["wedge sign", "star phases"])
def test_verify_holds_the_sign_conventions_to_its_own_rule(script):
    proc = _verify(script)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "FAIL  lefschetz-check sign and star tables vs sorting signs" in proc.stdout
    assert "22/23 checks passed" in proc.stdout


@pytest.mark.parametrize("module,old,new,checks", list(MUTANTS.values()), ids=list(MUTANTS))
def test_verify_catches_the_mutant(module, old, new, checks):
    proc = subprocess.run(
        [sys.executable, "-c", MUTANT.format(module=module), old, new],
        capture_output=True, text=True, env=HLAB_ENV, timeout=300,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    for check in checks:
        assert f"FAIL  {check}" in proc.stdout
    assert f"{23 - len(checks)}/23 checks passed" in proc.stdout


def test_library_has_no_assert_statements():
    """``python -O`` strips ``assert``; library checks must raise explicitly."""
    offenders = []
    for path in sorted(Path(hlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert not offenders, offenders


def test_library_does_not_import_dataclasses():
    """``dataclasses`` loads ``inspect`` and compiles generated methods at
    import time, a cost every cold-started job pays; records derive from
    ``hlab.record.Record`` instead."""
    offenders = []
    for path in sorted(Path(hlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, offenders


def test_only_the_engine_itself_imports_the_operator_engine():
    """No ``hlab`` module but ``lefschetz`` imports ``hlab.lefschetz``: only
    the tests and the benchmark tracer run the operator engine.  The lazy
    export table of ``__init__`` names it in a string, not an import."""
    offenders = []
    for path in sorted(Path(hlab.__file__).parent.glob("*.py")):
        if path.name == "lefschetz.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                base = ".".join(filter(None, ("hlab" if node.level else "", node.module)))
                names = {base} | {f"{base}.{alias.name}" for alias in node.names}
            else:
                continue
            if "hlab.lefschetz" in names:
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, offenders


def test_tests_share_one_harness():
    """Loading ``perfbench/``, the environment of a fresh interpreter,
    capturing ``hlab`` in this process and writing a JSON document each have
    one implementation, in ``tests/conftest.py``.  A probe string that a
    child interpreter runs is a string here, not code."""
    def called(node):
        return isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None))

    offenders = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        if path.name == "conftest.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            found = {getattr(node, field, None) for field in ("id", "attr", "name")}
            found &= {"spec_from_file_location", "redirect_stdout"}
            if isinstance(node, ast.Dict) and any(getattr(key, "value", None) == "PYTHONPATH" for key in node.keys):
                found.add("PYTHONPATH")
            if called(node) == "write_text" and node.args and called(node.args[0]) == "dumps":
                found.add("write_text(json.dumps(...))")
            offenders += [f"{path.name}:{node.lineno} {name}" for name in sorted(found)]
    assert not offenders, offenders


def _unreferenced(public: bool) -> list[tuple[str, str]]:
    """(module file, name) of each public (or private) module-level function
    or class in ``hlab`` that is named nowhere in ``hlab`` outside its own
    definition."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(Path(hlab.__file__).parent.glob("*.py"))}
    defined = {
        (name, node.name): node
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") != public
        and not node.name.startswith("__")
    }
    inside = {id(sub): key for key, node in defined.items() for sub in ast.walk(node)}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            ref = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if ref is not None and inside.get(id(node), (None, None))[1] != ref:
                used.add(ref)
    return sorted(key for key in defined if key[1] not in used)


def test_library_has_no_dead_private_helpers():
    """Every private module-level function or class in ``hlab`` is referenced
    somewhere in ``hlab`` outside its own definition."""
    dead = [f"{module}:{helper}" for module, helper in _unreferenced(public=False)]
    assert not dead, dead


def test_library_has_no_dead_public_code():
    """Every public module-level function or class in ``hlab`` is referenced
    somewhere in ``hlab`` outside its own definition, exported by the
    package, or wrapped by name by the benchmark tracer
    (``perfbench/tracer.py``)."""
    traced = {dotted for group in perfbench("tracer").TARGETS.values() for dotted in group}
    dead = [
        f"{module}:{name}"
        for module, name in _unreferenced(public=True)
        if name not in hlab.__all__ and name not in traced
    ]
    assert not dead, dead
