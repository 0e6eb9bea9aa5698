"""The process entry ``hlab.__main__.run``: one command, its exit code,
then ``os._exit`` once stdout and stderr are flushed.  ``run`` ends the
process it runs in, so it is only ever called in a fresh interpreter, never
in this one."""

import ast
import gc
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import HLAB_ENV, run_hlab, run_python, write_doc

import hlab
from hlab.fixturedoc import cp_fixture

SRC = Path(hlab.__file__).parent
PYPROJECT = SRC.parents[1] / "pyproject.toml"

# Run hlab as ``python -m hlab`` does (runpy, as ``__main__``), after the
# planted statements; when ``os._exit`` is called, report on stderr the code
# it exits with and whether the traceback module was loaded.  The probe line
# is the last one on stderr only if ``run`` flushed everything before it.
PROBE = """
import json, os, runpy, sys
{plant}
exit_now = os._exit
def probed_exit(code):
    print(json.dumps({{"exit": code, "traceback": "traceback" in sys.modules}}), file=sys.stderr, flush=True)
    exit_now(code)
os._exit = probed_exit
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


def test_in_process_main_does_not_exit(monkeypatch):
    def refuse(code):
        raise AssertionError(f"os._exit({code}) called in-process")

    monkeypatch.setattr(os, "_exit", refuse)
    assert run_hlab(["fixture", "cp", "1"])[0] == 0


def test_fresh_process_ends_at_os_exit():
    code, out, err, at_exit = _probe("fixture", "cp", "1")
    assert (code, err) == (0, "")
    assert json.loads(out) == cp_fixture(1)
    assert at_exit == {"exit": 0, "traceback": False}  # traceback loads only for a crash


def test_importing_the_entry_runs_no_command():
    assert run_python("-c", "import hlab.__main__") == (0, "", "")


# Run hlab as ``python -m hlab`` does, and report on stderr, when ``os._exit``
# is called, whether the cyclic collector was on when ``hlab.cli`` was first
# looked up, and whether it is on at exit.
GC_PROBE = """
import gc, json, os, runpy, sys
at_cli = []
class Spy:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name == "hlab.cli":
            at_cli.append(gc.isenabled())
sys.meta_path.insert(0, Spy)
exit_now = os._exit
def probed_exit(code):
    print(json.dumps({"at_cli": at_cli, "at_exit": gc.isenabled()}), file=sys.stderr, flush=True)
    exit_now(code)
os._exit = probed_exit
runpy.run_module("hlab", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("argv", [("fixture", "cp", "1"), ("genus", "--input", "DOC")], ids=" ".join)
def test_fresh_process_runs_without_the_cyclic_collector(cp2_file, argv):
    # hlab's values are acyclic: the compiles and the arithmetic of a job run
    # no collection, and the process ends at os._exit
    code, out, err = run_python("-c", GC_PROBE, *(cp2_file if a == "DOC" else a for a in argv))
    assert code == 0 and out
    assert json.loads(err) == {"at_cli": [False], "at_exit": False}


def test_importing_the_entry_leaves_the_collector_on():
    assert run_python("-c", "import gc, hlab.__main__; print(gc.isenabled())") == (0, "True\n", "")


@pytest.mark.parametrize("enabled", [True, False])
def test_in_process_main_leaves_the_collector_as_it_found_it(cp2_file, enabled):
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        assert run_hlab(["genus", "--input", cp2_file])[0] == 0
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()


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
    assert at_exit == {"exit": 4, "traceback": True}


# stdout block-buffered (the default for a pipe or a file), and written at every print
BUFFERED_ENV = {key: value for key, value in HLAB_ENV.items() if key != "PYTHONUNBUFFERED"}
UNBUFFERED_ENV = {**HLAB_ENV, "PYTHONUNBUFFERED": "1"}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device whose writes fail")
def test_failed_final_flush_exits_120_as_the_interpreter_does():
    # the report cannot be written: cli.main's flush raises (a crash, exit 4),
    # run's flush fails again, and the interpreter's own shutdown flush then
    # reports it and exits 120, without os._exit
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-c", PROBE.format(plant=""), "fixture", "cp", "1"],
            stdout=full, stderr=subprocess.PIPE, text=True, env=BUFFERED_ENV, timeout=120,
        )
    assert proc.returncode == 120
    assert proc.stderr.startswith("Traceback (most recent call last):\n")
    assert proc.stderr.endswith(
        "Exception ignored in: <_io.TextIOWrapper name='<stdout>' mode='w' encoding='utf-8'>\n"
        "OSError: [Errno 28] No space left on device\n"
    )
    assert '"exit"' not in proc.stderr


def test_closed_stdout_crashes_with_exit_4():
    # no stdout at all: cli.main's flush raises, and run leaves the missing
    # stream to the interpreter's shutdown, which ignores it
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(plant=""), "fixture", "cp", "1"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=HLAB_ENV, timeout=120,
        preexec_fn=lambda: os.close(1),
    )
    assert proc.returncode == 4
    assert proc.stderr.endswith("AttributeError: 'NoneType' object has no attribute 'flush'\n")


def test_fixture_out_writes_the_whole_document(tmp_path):
    path = str(tmp_path / "cp12.json")
    code, out, err, at_exit = _probe("fixture", "cp", "12", "--out", path)
    assert (code, out, err, at_exit["exit"]) == (0, f"wrote {path}\n", "", 0)
    assert Path(path).read_text() == run_hlab(["fixture", "cp", "12"])[1]
    assert json.loads(Path(path).read_text()) == cp_fixture(12)


@pytest.mark.parametrize("env", [UNBUFFERED_ENV, BUFFERED_ENV], ids=["unbuffered", "buffered"])
def test_large_report_arrives_whole_through_a_pipe(tmp_path, env):
    # a machine report of about 117 kB, larger than a pipe's buffer: c_1(E)
    # of O(a) on CP^12 with a of 300 digits
    tree = cp_fixture(12)
    tree["bundle"] = {"rank": 1, "chern": {"c1": "7" * 300 + "*h"}}
    argv = ["genus", "--input", write_doc(tmp_path, tree), "--output", "machine"]
    proc = subprocess.run(
        [sys.executable, "-m", "hlab", *argv], capture_output=True, text=True, env=env, timeout=120
    )
    in_process = run_hlab(argv)
    assert len(in_process[1]) > 100_000
    assert (proc.returncode, proc.stdout, proc.stderr) == in_process


def _exits(path):
    """Whether the module at ``path`` calls ``os._exit`` or imports it from ``os``."""
    return any(
        isinstance(node, ast.Attribute) and node.attr == "_exit" and getattr(node.value, "id", None) == "os"
        or isinstance(node, ast.ImportFrom) and node.module == "os" and "_exit" in {a.name for a in node.names}
        for node in ast.walk(ast.parse(path.read_text()))
    )


def test_only_the_process_entry_calls_os_exit():
    assert [path.name for path in SRC.glob("*.py") if _exits(path)] == ["__main__.py"]


def _main_guards(path):
    return [
        node for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.If) and "__name__" in ast.unparse(node.test)
    ]


def test_only_the_process_entry_runs_as_a_script():
    # ``python -m hlab.cli`` would be a second entry: no os._exit, a crash exiting 1
    assert [path.name for path in SRC.glob("*.py") if _main_guards(path)] == ["__main__.py"]


def test_script_runs_the_function_python_m_runs():
    # a regex, not tomllib: the interpreter floor is 3.10.7 and tomllib is 3.11
    script = re.search(r'^hlab = "hlab\.__main__:(\w+)"$', PYPROJECT.read_text(), re.MULTILINE)
    assert script, "[project.scripts] hlab names no function of hlab.__main__"
    (guard,) = _main_guards(SRC / "__main__.py")
    called = {node.func.id for node in ast.walk(guard) if isinstance(node, ast.Call) and hasattr(node.func, "id")}
    assert script.group(1) in called
    assert callable(getattr(importlib.import_module("hlab.__main__"), script.group(1)))
