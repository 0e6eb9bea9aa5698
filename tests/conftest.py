"""Shared helpers: the seeded random Chern data of `hlab.fixtures`, random
forms, the two conversions between a matrix of Gaussian rationals ``CQ``
and the form (scale, re, im) of ``hlab.hermitian``, integer-valued
polynomials in the binomial basis, and the one harness of the suite
(README, "Install and test"): loading ``perfbench/``, running hlab
in-process or in a fresh interpreter, writing a document, and the
benchmark's seed-0 grid, built and written once per session."""

import contextlib
import functools
import importlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

import hlab
from hlab.cli import main
from hlab.fixtures import (  # noqa: F401 - re-exported for the test modules
    random_homogeneous,
    random_manifold_bundle,
    weight_keys,
)
from hlab.lefschetz import CQ, FormVector
from hlab.qpoly import QPoly

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
# a fresh interpreter imports the hlab this one imports
HLAB_ENV = {**os.environ, "PYTHONPATH": str(Path(hlab.__file__).parents[1])}


def random_form(rng, basis):
    """A form with one to six random Gaussian-rational coefficients."""
    terms = {}
    for _ in range(rng.randint(1, 6)):
        idx = rng.randrange(basis.dim)
        terms[idx] = CQ(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                        Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
    return FormVector(basis, terms)


def gaussian_integers(H):
    """The matrix (scale, re, im) of ``hlab.hermitian`` that the matrix H of
    ``CQ`` is: integers with H = (re + i im) / scale over the least common scale."""
    scale = lcm(*(v.d for row in H for v in row))
    return scale, [[v.a * (scale // v.d) for v in row] for row in H], [[v.b * (scale // v.d) for v in row] for row in H]


def gaussian_rationals(matrix):
    """The matrix (scale, re, im) as the operator engine's matrix of ``CQ``."""
    scale, re, im = matrix
    return [[CQ(Fraction(x, scale), Fraction(y, scale)) for x, y in zip(*rows)] for rows in zip(re, im)]


def newton_poly(b):
    """P(m) = sum b_i C(m, i): integer-valued with Delta^i P(0) = b_i."""
    P = QPoly([])
    for i, bi in enumerate(b):
        term = QPoly([1])
        for j in range(i):
            term = term * QPoly([-j, 1]) * Fraction(1, j + 1)
        P = P + bi * term
    return P


def perfbench(name):
    """perfbench/<name>.py, imported once under its own name, as ``run.py``
    and its siblings import one another."""
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(PERFBENCH)


def run_hlab(argv):
    """(exit code, stdout, stderr) of ``hlab <argv>``, run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_python(*args):
    """(exit code, stdout, stderr) of ``python <args>`` in a fresh interpreter
    that imports the tested hlab: ``run_python("-m", "hlab", *argv)`` runs a
    command as its user does."""
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=HLAB_ENV, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def write_doc(directory, tree, name="doc.json"):
    """Write ``tree`` as the JSON document ``directory/name``; its path, as a string."""
    path = Path(directory) / name
    path.write_text(json.dumps(tree))
    return str(path)


@functools.cache
def bench_grid(seed=0):
    """{workload: its documents and jobs} of the benchmark for one seed."""
    gen = perfbench("gen")
    return {workload: gen.build(workload, seed) for workload in gen.WORKLOADS}


@pytest.fixture(scope="session")
def grid_docs(tmp_path_factory):
    """{workload: {name: path}} of every document of the seed-0 grid."""
    root = tmp_path_factory.mktemp("grid")
    return {
        workload: {name: write_doc(root, tree, f"{workload}-{name}.json") for name, tree in wl.docs.items()}
        for workload, wl in bench_grid().items()
    }
