"""Products of curves through ``hlab genus``, held to the Kunneth formula.

X = C_{g_1} x ... x C_{g_n} has one weight-1 class a_i per factor (the
pull-back of the point class), c(X) = prod (1 + (2 - 2 g_i) a_i), and
int a_1 ... a_n = 1; every other top monomial integrates to 0, and the
document lists each of them.  chi_y is multiplicative and a curve has
chi_y = (1 - g)(1 - y), so chi_y(X) = prod (1 - g_i) (1 - y)^n and
e(X) = chi_{-1}(X) = prod (2 - 2 g_i).  These closed forms share no code
with the ring.
"""

import json
from itertools import combinations, combinations_with_replacement
from math import comb, prod

import pytest
from conftest import run_hlab, write_doc

from hlab.qpoly import QPoly

GENERA = [(2, 3), (0, 5), (1, 4), (2, 2, 4), (1, 3, 0), (3, 2, 2), (2, 3, 4, 5), (2, 2, 2, 2), (0, 1, 6, 2)]


def _name(factors):
    """The printed form of a product of distinct generators a_i, i in ``factors``."""
    return "*".join(f"a{i + 1}" for i in factors)


def curve_product(genera) -> dict:
    n = len(genera)
    chern = {}
    for k in range(1, n + 1):
        terms = [(prod(2 - 2 * genera[i] for i in s), _name(s)) for s in combinations(range(n), k)]
        text = " + ".join(f"{c}*{m}" for c, m in terms if c).replace("+ -", "- ")
        chern[f"c{k}"] = text or "0"
    fclass = {}
    for factors in combinations_with_replacement(range(n), n):
        exps = [factors.count(i) for i in range(n)]
        key = "*".join(f"a{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(exps) if e)
        fclass[key] = "1" if exps == [1] * n else "0"
    return {
        "ring": {"generators": [{"name": f"a{i + 1}", "weight": 1} for i in range(n)], "dimension": n},
        "manifold": {"chern": chern},
        "fundamental_class": fclass,
    }


@pytest.mark.parametrize("genera", GENERA, ids=lambda g: "x".join(f"C{x}" for x in g))
def test_chi_y_and_euler_number_of_a_curve_product(tmp_path, genera):
    n, scale = len(genera), prod(1 - g for g in genera)
    tree = curve_product(genera)
    assert len(tree["fundamental_class"]) == comb(2 * n - 1, n)
    code, out, err = run_hlab(["genus", "--input", write_doc(tmp_path, tree), "--output", "machine"])
    assert (code, err) == (0, "")
    results = json.loads(out)["results"]
    chi_p = [scale * comb(n, p) * (-1) ** p for p in range(n + 1)]
    assert results["chi_p"] == [str(c) for c in chi_p]
    assert results["chi_y"] == str(QPoly(chi_p, var="y"))
    assert results["euler_characteristic"] == str(prod(2 - 2 * g for g in genera))
