"""Planted faults: each row of one table is a one-line edit to the source of
an hlab module that ``hlab verify`` must catch under ``python -O``.

A row runs the edited source in place of its module, before anything
imports from it, so a module that imports a name from it gets the edited
one.  ``verify`` must then fail exactly the checks the row names.  Faults
that ``verify`` cannot see are planted next to the test that catches them:
the Hermitian checks that skip the antisymmetry of the imaginary part in
``tests/test_blocks.py`` (every matrix ``verify`` draws is Hermitian), and
the trace certificate of the line-bundle eigenvalues in
``tests/test_lefschetz.py``.

After DeMillo, Lipton and Sayward, "Hints on test data selection", IEEE
Computer 11(4), 1978.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import HLAB_ENV

CHECKS = 23  # the checks ``hlab verify`` runs

MUTANT = """
import importlib
import sys
from pathlib import Path

module, old, new = sys.argv[1:]
target = importlib.import_module(f"hlab.{module}")
source = Path(target.__file__).read_text().replace(old, new)
exec(compile(source, target.__file__, "exec"), vars(target))
from hlab.cli import main
raise SystemExit(main(["verify"]))
"""

# name: (module, exact old text, new text, the verify checks that must fail).
# An ``enclose`` that stops at 64 times its width passes the other Hermitian
# checks, whose good float guesses end the search before it bisects.  The
# ring's closed-form Todd log reaches ``genus`` too, which imports it by
# name; the dense Todd series of ``oracles`` reaches ``verify`` alone.
MUTANTS = {
    "enclose width": (
        "hermitian", "while hi - lo > width:", "while hi - lo > 64 * width:",
        ("enclosures within their width from any guess",),
    ),
    "zero-pivot sign": (
        "hermitian", "sign = 1 if 2 * p + m else -1", "sign = 1",
        ("inertia signs on zero-pivot families",),
    ),
    "zero-pivot search skips imaginary entries": (
        "hermitian", "if rk[t] or ik[t]), 0)", "if rk[t]), 0)",
        ("inertia signs on zero-pivot families",),
    ),
    "radius without the imaginary part": (
        "hermitian", "sum(map(abs, r)) + sum(map(abs, i))", "sum(map(abs, r))",
        ("inertia signs on zero-pivot families",),
    ),
    "inequality from j + 1": (
        "genus", "for p in range(j, n + 1)", "for p in range(j + 1, n + 1)",
        ("projective space genus suite", "chern inequality right side vs hockey stick"),
    ),
    "strict chern inequality": (
        "genus", "lhs >= rhs", "lhs > rhs",
        ("projective space genus suite",),
    ),
    "chi_y sign of the power sums": (
        "genus", "Fraction((-1) ** j * onto", "Fraction((-1) ** (j + 1) * onto",
        ("projective space genus suite", "serre symmetry", "K coefficient closed forms"),
    ),
    "star pair rotation": (
        "blocks", "(power[a] - power[b] + 2) % 4", "(power[a] - power[b] + 3) % 4",
        ("line-bundle norm: eigenvalues vs blocks", "commutator blocks: rotated split bundles vs line tables"),
    ),
    "block off-diagonal sign": (
        "blocks", "theta[k][j], -sign)", "theta[k][j], sign)",
        (
            "commutator blocks: diagonal theta vs closed form",
            "line-bundle norm: eigenvalues vs blocks",
            "commutator blocks: rotated split bundles vs line tables",
        ),
    ),
    "todd series of ones": (
        "oracles", "return denom.reciprocal()", "return Series([1] * (n + 1))",
        ("todd series bernoulli values",),
    ),
    "todd log with the dual's first coefficient": (
        "ring", "b[1] = Fraction(1, 2)", "b[1] = Fraction(-1, 2)",
        (
            "todd series bernoulli values",
            "projective space genus suite",
            "serre symmetry",
            "K coefficient closed forms",
            "hilbert polynomial consistency",
        ),
    ),
    "newton identity sign": (
        "ring", "(e[i - 1] * p[k - i - 1], (-1) ** (i - 1))", "(e[i - 1] * p[k - i - 1], (-1) ** i)",
        (
            "newton identity round-trip",
            "projective space genus suite",
            "K coefficient closed forms",
            "hilbert polynomial consistency",
        ),
    ),
    "seeded draws: Gaussian product adds b d": (
        "fixtures", "a * c - b * d", "a * c + b * d",
        (
            "line-bundle norm: eigenvalues vs blocks",
            "commutator blocks: rotated split bundles vs line tables",
            "inertia signs on zero-pivot families",
        ),
    ),
    "seeded draws: adjoint without the conjugation": (
        "fixtures", "[(x, -y) for x, y in col]", "[(x, y) for x, y in col]",
        (
            "line-bundle norm: eigenvalues vs blocks",
            "commutator blocks: rotated split bundles vs line tables",
            "inertia signs on zero-pivot families",
        ),
    ),
    "doubled CP fundamental class": (
        "fixturedoc", 'else f"h^{n}"): "1"', 'else f"h^{n}"): "2"',
        ("projective space genus suite", "hilbert polynomial consistency"),
    ),
    "shifted line-bundle eigenvalues": (
        "linebundle", "    return out", "    return [(lo + 1, hi + 1) for lo, hi in out]",
        ("line-bundle norm: eigenvalues vs blocks",),
    ),
    "absolute value of a positive enclosure": (
        "diagonal", "if lo >= 0:\n        return lo, hi", "if lo >= 0:\n        return lo, lo",
        ("line-bundle norm: eigenvalues vs blocks",),
    ),
    "dropped crossing sign": (
        "monomials", " + K1.bit_count() * J2.bit_count()", "",
        ("lefschetz-check sign and star tables vs sorting signs",),
    ),
    "negated star phases": (
        "monomials", "(2 * odd - n) % 4", "(2 * odd - n + 2) % 4",
        ("lefschetz-check sign and star tables vs sorting signs",),
    ),
    "sl2 weight off by one": (
        "sl2", "m = n - sum(bidegree(n, c))", "m = n + 1 - sum(bidegree(n, c))",
        ("sl2 commutator", "hard lefschetz bijectivity", "injectivity range"),
    ),
    "star conjugation phase": (
        "sl2", "(e + 1 - star[c2][1]", "(e + 3 - star[c2][1]",
        ("hodge star conjugation identity",),
    ),
    "lefschetz singular values": (
        "sl2", "Fraction(factorial(n - k + j), factorial(j))", "Fraction(factorial(n - k + j + 1), factorial(j))",
        ("hard lefschetz bijectivity",),
    ),
    "injectivity through p + q = n": (
        "sl2", "p + q < n for p", "p + q <= n for p",
        ("injectivity range",),
    ),
    "horner step subtracts": (
        "qpoly", "acc = acc * x + c", "acc = acc * x - c",
        ("hilbert polynomial consistency", "lemma44_search window and bound"),
    ),
    "integer-valued up to halves": (
        "qpoly", "denominator != 1", "denominator > 2",
        ("hilbert polynomial consistency",),
    ),
    "sturm chain without the sign": (
        "bounds", "chain.append(-chain[-2]", "chain.append(chain[-2]",
        ("enclosures within their width from any guess", "root isolation"),
    ),
    "T4 bound without the n + 1": (
        "bounds", "return b.n + 1 + floor(", "return b.n + floor(",
        ("bound evaluator fixtures",),
    ),
    "T2 bound without the square": (
        "bounds", "Fraction(f) ** 2", "Fraction(f)",
        ("bound evaluator fixtures",),
    ),
    "T5 bound without the factor 2": (
        "bounds", "+ 2 * abs(Fraction(a_n))", "+ abs(Fraction(a_n))",
        ("bound evaluator fixtures",),
    ),
    "C1 bound without the + 1": (
        "bounds", "** b.n + 1", "** b.n",
        ("bound evaluator fixtures",),
    ),
    "rank 2 sent to the line-bundle path": (
        "diagonal", "if spec.r == 1:", "if spec.r <= 2:",
        ("commutator blocks: rotated split bundles vs line tables",),
    ),
}


def _optimized(*args):
    """The finished ``python -O <args>`` in a fresh interpreter that imports the tested hlab."""
    return subprocess.run([sys.executable, "-O", *args], capture_output=True, text=True, env=HLAB_ENV, timeout=300)


def test_verify_passes_under_optimize():
    proc = _optimized("-m", "hlab", "verify")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{CHECKS}/{CHECKS} checks passed"


@pytest.mark.parametrize("module,old,new,checks", list(MUTANTS.values()), ids=list(MUTANTS))
def test_verify_catches_the_mutant(module, old, new, checks):
    source = Path(importlib.import_module(f"hlab.{module}").__file__).read_text()
    assert source.count(old) == 1, f"the mutated text occurs {source.count(old)} times"
    proc = _optimized("-c", MUTANT, module, old, new)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    for check in checks:
        assert f"FAIL  {check}" in proc.stdout, proc.stdout
    assert proc.stdout.splitlines()[-1] == f"{CHECKS - len(checks)}/{CHECKS} checks passed"
