"""The library keeps its checks under ``python -O``, and its source holds no
dead code and no import the cold start should not pay; the tests share one
harness.  The planted faults that ``hlab verify`` must catch are the table
of ``tests/test_mutants.py``."""

import ast
from pathlib import Path

from conftest import perfbench

import hlab


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
