"""The census of code no command runs: a fresh interpreter runs every job
of the benchmark's seed-0 grid in text and in machine mode, ``verify``,
``fixture cp 3`` and ``--help`` through ``hlab.cli.main`` under
``sys.setprofile``, and names each hlab function it never entered.

Those must be exactly the functions of ``UNENTERED``, each under the reason
it stays.  A new function that no command enters fails the test, and so
does an entry that a command now enters or that no longer exists: delete
the code, move it to the tests, or name it here with its reason.
"""

import json
import sys

import pytest
from conftest import bench_grid, run_python

CENSUS = """
import io
import json
import sys
from pathlib import Path

entered = set()


def profile(frame, event, arg):
    module = frame.f_globals.get("__name__", "")
    if event == "call" and module.partition(".")[0] == "hlab":
        entered.add((module, frame.f_code.co_qualname))


sys.setprofile(profile)
import hlab
from hlab.cli import main

for argv in json.loads(sys.argv[1]):
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    main(argv)
sys.setprofile(None)
sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__


def functions(module, code):
    # every def of the module, nested ones included; no lambda or comprehension
    for const in code.co_consts:
        if hasattr(const, "co_qualname"):
            if const.co_flags & 1 and not const.co_name.startswith("<"):
                yield module, const.co_qualname
            yield from functions(module, const)


defined = set()
for path in Path(hlab.__file__).parent.glob("*.py"):
    module = "hlab" if path.stem == "__init__" else f"hlab.{path.stem}"
    defined.update(functions(module, compile(path.read_text(), str(path), "exec")))
print(json.dumps(sorted(f"{module}.{name}" for module, name in defined - entered)))
"""

UNENTERED = {
    "operator-engine oracle and its Gaussian-rational scalars: the tests hold the integer certificates to it": (
        "hlab.lefschetz.ExteriorBasis.__eq__", "hlab.lefschetz.ExteriorBasis.__hash__",
        "hlab.lefschetz.ExteriorBasis.__init__", "hlab.lefschetz.ExteriorBasis.bidegree_of",
        "hlab.lefschetz.FormVector.__add__", "hlab.lefschetz.FormVector.__eq__", "hlab.lefschetz.FormVector.__init__",
        "hlab.lefschetz.FormVector.inner", "hlab.lefschetz.Operator.__add__", "hlab.lefschetz.Operator.__eq__",
        "hlab.lefschetz.Operator.__init__", "hlab.lefschetz.Operator.__sub__", "hlab.lefschetz.Operator._check",
        "hlab.lefschetz.Operator.adjoint", "hlab.lefschetz.Operator.apply", "hlab.lefschetz.Operator.block",
        "hlab.lefschetz.Operator.commutator", "hlab.lefschetz.Operator.compose", "hlab.lefschetz.Operator.entry",
        "hlab.lefschetz.Operator.is_diagonal", "hlab.lefschetz.Operator.is_zero", "hlab.lefschetz.Operator.power",
        "hlab.lefschetz.Operator.scale", "hlab.lefschetz._wedge_operator", "hlab.lefschetz.cq_rank",
        "hlab.lefschetz.curvature_operator", "hlab.lefschetz.diagonal_commutator_eigenvalues",
        "hlab.lefschetz.get_basis", "hlab.lefschetz.i_power", "hlab.lefschetz.identity_operator",
        "hlab.lefschetz.int_rank", "hlab.lefschetz.op_L", "hlab.lefschetz.op_Lambda", "hlab.lefschetz.op_star",
        "hlab.lefschetz.CQ.__add__", "hlab.lefschetz.CQ.__bool__", "hlab.lefschetz.CQ.__eq__",
        "hlab.lefschetz.CQ.__hash__", "hlab.lefschetz.CQ.__init__", "hlab.lefschetz.CQ.__mul__",
        "hlab.lefschetz.CQ.__neg__", "hlab.lefschetz.CQ.__repr__", "hlab.lefschetz.CQ.__rsub__",
        "hlab.lefschetz.CQ.__sub__", "hlab.lefschetz.CQ.__truediv__", "hlab.lefschetz.CQ.abs2",
        "hlab.lefschetz.CQ.conj", "hlab.lefschetz.CQ.im", "hlab.lefschetz.CQ.re", "hlab.lefschetz._as_cq",
        "hlab.lefschetz._cq", "hlab.lefschetz._reduced",
    ),
    "parser for text outside the printed form: every grid document is canonical": (
        "hlab.exprparse._Parser.__init__", "hlab.exprparse._Parser._guard", "hlab.exprparse._Parser.advance",
        "hlab.exprparse._Parser.expr", "hlab.exprparse._Parser.fail", "hlab.exprparse._Parser.parse",
        "hlab.exprparse._Parser.peek", "hlab.exprparse._Parser.term", "hlab.exprparse._Parser.unary",
        "hlab.exprparse._bit_size", "hlab.exprparse._coefficient_bits", "hlab.exprparse._tokenize",
        "hlab.exprparse.parse_expression", "hlab.exprparse.parse_monomial_key",
        "hlab.ring.RingSpec.gen", "hlab.ring.RingSpec.index",
    ),
    "bounds document fields that no grid document gives": (
        "hlab.inputdoc._hilbert", "hlab.inputdoc._integers",
    ),
    "error path": (
        "hlab.errors.ExprError.__init__", "hlab.errors.MissingChernNumber.__init__",
        "hlab.errors.MissingChernNumber.__str__", "hlab.record.Record.__delattr__", "hlab.record.Record.__setattr__",
    ),
    "process entry: the census calls hlab.cli.main in-process": (
        "hlab.__main__.run",
    ),
    "printing and dunders": (
        "hlab.__dir__", "hlab.qpoly.QPoly.__hash__", "hlab.qpoly.QPoly.__repr__",
        "hlab.qpoly.QPoly.__rsub__", "hlab.record.Record.__hash__", "hlab.record.Record.__repr__",
        "hlab.ring.GradedElement.__hash__", "hlab.ring.GradedElement.__repr__", "hlab.ring.GradedElement.__rsub__",
        "hlab.ring.GradedElement.__truediv__", "hlab.oracles.Series.__eq__", "hlab.oracles.Series.__getitem__",
        "hlab.oracles.Series.__str__",
    ),
    "tracer target: perfbench/tracer.py wraps it by name": (
        "hlab.bounds.count_roots_between", "hlab.bounds.forward_difference", "hlab.oracles.poly_from_values",
        "hlab.ring.GradedElement.graded_component",
    ),
}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="names functions by co_qualname")
def test_the_functions_no_command_enters_are_the_allowed_ones(grid_docs):
    argvs = [
        [*job.argv, *(["--input", grid_docs[workload][job.doc]] if job.doc else []), "--output", mode]
        for workload, wl in bench_grid().items()
        for job in wl.jobs
        for mode in ("text", "machine")
    ]
    code, out, err = run_python("-c", CENSUS, json.dumps([*argvs, ["verify"], ["fixture", "cp", "3"], ["--help"]]))
    assert (code, err) == (0, "")
    unentered = set(json.loads(out))
    allowed = {name for names in UNENTERED.values() for name in names}
    assert sorted(unentered - allowed) == [], "functions no command enters"
    assert sorted(allowed - unentered) == [], "stale entries: entered, or gone"
