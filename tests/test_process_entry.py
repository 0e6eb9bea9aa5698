"""The process entry ``hlab.__main__.run``: one command, its exit code, then
a frozen heap.  ``run`` freezes the heap of the process it runs in, so it is
only ever called in a fresh interpreter, never in this one."""

import ast
import gc
import importlib
import json
import re
from pathlib import Path

import pytest
from conftest import run_hlab, run_python, write_doc

import hlab
from hlab.fixturedoc import cp_fixture

SRC = Path(hlab.__file__).parent
PYPROJECT = SRC.parents[1] / "pyproject.toml"

# Run hlab as ``python -m hlab`` does (runpy, as ``__main__``), after the
# planted statements; at exit, report on stderr the freeze count and whether
# the traceback module was loaded.
PROBE = """
import atexit, gc, json, runpy, sys
{plant}
atexit.register(lambda: print(json.dumps(
    {{"frozen": gc.get_freeze_count(), "traceback": "traceback" in sys.modules}}), file=sys.stderr))
runpy.run_module("hlab", run_name="__main__", alter_sys=True)
"""

# a failed sl(2) identity: a certificate failure (exit 3)
SL2_FAILS = ("hlab.sl2", "sl2_commutator_check", "lambda n, r=1: False")
# a handler that raises an exception no exit code is mapped to: a crash (exit 4)
FIXTURE_CRASHES = ("hlab.fixturedoc", "run_command", "lambda args: None + 1")


def _probe(*argv, plant=None):
    """(exit code, stdout, stderr without the exit line, the exit line as a
    dict) of one command run through ``PROBE`` with ``plant`` (module,
    attribute, source of its new value) in place."""
    statement = "import {0}\n{0}.{1} = {2}".format(*plant) if plant else ""
    code, out, err = run_python("-c", PROBE.format(plant=statement), *argv)
    head, _, last = err.rstrip("\n").rpartition("\n")
    return code, out, head + "\n" if head else "", json.loads(last)


@pytest.fixture(scope="module")
def cp2_file(tmp_path_factory):
    tree = cp_fixture(2)
    tree["bounds"] = {"K": "100", "C": "2", "c_n": "1/10", "p": 0}
    return write_doc(tmp_path_factory.mktemp("entry"), tree, "cp2.json")


def test_in_process_main_does_not_freeze():
    before = gc.get_freeze_count()
    assert run_hlab(["fixture", "cp", "1"])[0] == 0
    assert gc.get_freeze_count() == before


def test_fresh_process_freezes_before_it_exits():
    code, out, err, at_exit = _probe("fixture", "cp", "1")
    assert (code, err) == (0, "")
    assert json.loads(out) == cp_fixture(1)
    assert at_exit["frozen"] > 0
    assert not at_exit["traceback"]  # loaded only for a crash


def test_importing_the_entry_runs_no_command():
    assert run_python("-c", "import hlab.__main__") == (0, "", "")


# one job per exit code of cli.main; "DOC" stands for the CP^2 document
EXIT_JOBS = {
    "success": (("bounds", "--input", "DOC", "--which", "t4", "--output", "machine"), None, 0),
    "hypothesis": (("bounds", "--input", "DOC", "--which", "etheta"), None, 1),
    "usage": (("lefschetz-check", "--n", "9"), None, 2),
    "certificate": (("lefschetz-check", "--n", "2"), SL2_FAILS, 3),
}


@pytest.mark.parametrize("argv,plant,exit_code", list(EXIT_JOBS.values()), ids=list(EXIT_JOBS))
def test_process_reports_what_main_reports(monkeypatch, cp2_file, argv, plant, exit_code):
    argv = [cp2_file if a == "DOC" else a for a in argv]
    if plant:
        fresh = _probe(*argv, plant=plant)[:3]
        module, name, value = plant
        monkeypatch.setattr(importlib.import_module(module), name, eval(value))
    else:
        fresh = run_python("-m", "hlab", *argv)
    in_process = run_hlab(argv)
    assert in_process[0] == exit_code
    assert fresh == in_process


def test_crash_exits_4_with_its_traceback():
    code, out, err, at_exit = _probe("fixture", "cp", "1", plant=FIXTURE_CRASHES)
    assert (code, out) == (4, "")
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.endswith("TypeError: unsupported operand type(s) for +: 'NoneType' and 'int'\n")
    assert at_exit["traceback"] and at_exit["frozen"] > 0


def _freezes(path):
    """Whether the module at ``path`` calls ``gc.freeze`` or imports from ``gc``."""
    return any(
        isinstance(node, ast.Attribute) and node.attr == "freeze" and getattr(node.value, "id", None) == "gc"
        or isinstance(node, ast.ImportFrom) and node.module == "gc"
        for node in ast.walk(ast.parse(path.read_text()))
    )


def test_only_the_process_entry_freezes_the_heap():
    assert [path.name for path in SRC.glob("*.py") if _freezes(path)] == ["__main__.py"]


def _main_guards(path):
    return [
        node for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.If) and "__name__" in ast.unparse(node.test)
    ]


def test_only_the_process_entry_runs_as_a_script():
    # ``python -m hlab.cli`` would be a second entry: no freeze, a crash exiting 1
    assert [path.name for path in SRC.glob("*.py") if _main_guards(path)] == ["__main__.py"]


def test_script_runs_the_function_python_m_runs():
    # a regex, not tomllib: the interpreter floor is 3.10.7 and tomllib is 3.11
    script = re.search(r'^hlab = "hlab\.__main__:(\w+)"$', PYPROJECT.read_text(), re.MULTILINE)
    assert script, "[project.scripts] hlab names no function of hlab.__main__"
    (guard,) = _main_guards(SRC / "__main__.py")
    called = {node.func.id for node in ast.walk(guard) if isinstance(node, ast.Call) and hasattr(node.func, "id")}
    assert script.group(1) in called
    assert callable(getattr(importlib.import_module("hlab.__main__"), script.group(1)))
