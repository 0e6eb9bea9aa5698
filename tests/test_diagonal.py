"""The diagonal closed form: one object on every import path, the same
table as the operator engine builds, and enclosures of it from enclosures
of the gammas.

``hlab.diagonal`` holds the diagonal curvature record, its closed-form
C_{p,q} table and ``commutator_norm``, so ``commutator --gammas`` loads no
operator engine; ``hlab.lefschetz`` re-exports ``commutator_norm`` and
``flatness_test``, which the benchmark tracer wraps there, and the space
rule of ``hlab.literals``, as ``inputdoc`` and ``exprparse`` re-export its
literal rules.
"""

import random
from fractions import Fraction

import pytest

import hlab
from hlab import diagonal, exprparse, inputdoc, lefschetz, literals
from hlab.fixtures import as_hermitian, gamma_draws
from hlab.record import Interval

MOVED = [
    (lefschetz, literals, "check_space"),
    (lefschetz, diagonal, "commutator_norm"),
    (lefschetz, diagonal, "flatness_test"),
    (inputdoc, literals, "digest"),
    (exprparse, literals, "parse_rational"),
]


@pytest.mark.parametrize("old,home,name", MOVED, ids=[f"{old.__name__}.{name}" for old, _, name in MOVED])
def test_a_moved_name_is_its_home_modules_object(old, home, name):
    # one object on both paths, so isinstance agrees whichever path built a spec
    assert getattr(old, name) is getattr(home, name)
    if hasattr(hlab, name):
        assert getattr(hlab, name) is getattr(home, name)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closed_form_table_is_the_operator_table(n):
    rng = random.Random(1600 + n)
    basis = lefschetz.get_basis(n, 1)
    lam = lefschetz.op_Lambda(n, 1)
    for gammas in gamma_draws(rng, n):
        spec = diagonal.DiagonalCurvature(gammas)
        norm = diagonal.diagonal_norm(spec)
        assert norm.exact and norm.value == max(norm.table.values())
        assert lefschetz.commutator_norm(spec) == norm
        T = lam.commutator(lefschetz.curvature_operator(as_hermitian(spec)))  # [Lambda, iTheta(L)], diagonal
        assert T.is_diagonal()
        built = {}
        for (p, q), idxs in basis.by_bidegree.items():
            entries = [T.entry(i, i) for i in idxs]
            assert all(not e.im for e in entries)
            built[(p, q)] = max(abs(e.re) for e in entries)
        assert norm.table == built, gammas


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_closed_form_encloses_the_exact_table_from_wide_gammas(n):
    # the line-bundle path feeds eigenvalue enclosures HERMITIAN_WIDTH / (2n)
    # wide to the same closed form, and relies on each C_pq enclosure being at
    # most 2n times as wide as the widest input.  Scaled by 1/1000 the gammas
    # are closer than the widening, so partial sums near but not at 0 get
    # enclosures that straddle 0.
    rng = random.Random(1900 + n)
    straddled = False
    for scale in (1, Fraction(1, 1000)):
        for draw in gamma_draws(rng, n):
            gammas = sorted(g * scale for g in draw)
            exact = diagonal.diagonal_norm(diagonal.DiagonalCurvature(gammas)).table
            widened = [(g - Fraction(rng.randint(1, 9), 1000), g + Fraction(rng.randint(1, 9), 1000)) for g in gammas]
            widest = max(hi - lo for lo, hi in widened)
            table = diagonal._diagonal_table(widened, sum(gammas, Fraction(0)))
            assert set(table) == set(exact)
            for key, (lo, hi) in table.items():
                assert lo <= exact[key] <= hi, (gammas, key)
                assert hi - lo <= 2 * n * widest, (gammas, key)
                straddled |= lo == 0 < exact[key]
    # for n = 1 every sum is S_0 = 0 or S_1 = total, exact
    assert straddled or n == 1


def test_equality_and_hash_see_the_gammas_alone():
    spec, twin = diagonal.DiagonalCurvature((1, Fraction(-1, 2), 3)), diagonal.DiagonalCurvature((1, Fraction(-1, 2), 3))
    assert spec == twin and hash(spec) == hash(twin)
    assert spec != diagonal.DiagonalCurvature((1, Fraction(-1, 2), 2))


def test_the_norm_record_is_its_table():
    # C is read off the C_{p,q} table: its largest entry, or among enclosures
    # the one with the largest upper end, not the largest lower end
    table = {(0, 0): Fraction(1), (0, 1): Fraction(7, 2), (1, 0): Fraction(3), (1, 1): Fraction(0)}
    norm = diagonal.CommutatorNorm(table)
    assert norm._fields == ("table",)
    assert (norm.value, norm.exact) == (Fraction(7, 2), True)
    wide = Interval(0, 4)
    enclosed = diagonal.CommutatorNorm({(0, 0): Interval(3, 3), (0, 1): wide, (1, 0): Interval(1, 2)})
    assert enclosed.value is wide and not enclosed.exact
