"""The seeded Hermitian draws of ``hlab.fixtures`` against their oracle: the
same draws built from Gaussian rationals ``CQ``, one entry at a time, as
hlab built them before its draws took the integer form (scale, re, im) of
``hlab.hermitian``.  Every draw must give the oracle's exact values and
leave the random stream where the oracle leaves it, so ``hlab verify`` and
the tests hold the certificates to the matrices they always drew.
"""

import random
from fractions import Fraction

import pytest
from conftest import gaussian_integers, gaussian_rationals

import hlab.fixtures as fixtures
from hlab.diagonal import DiagonalCurvature, diagonal_norm
from hlab.hermitian import HermitianCurvature
from hlab.lefschetz import CQ, CQ_ONE, CQ_ZERO

SEEDS = range(50)
# every shape that ``hlab verify`` and the tests draw
GENERIC = [(n, r) for n in (1, 2, 3) for r in (1, 2, 3)] + [(4, 1), (4, 2)]
ROTATED = [(n, 1) for n in range(1, 7)] + [(n, r) for n in (1, 2, 3) for r in (2, 3)]
DIMENSIONS = range(1, 10)


# -- the oracle: the draws of Gaussian rationals ------------------------------------


def _reflection(rng, d):
    v = [CQ(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(d)]
    if not any(v):
        v[0] = CQ_ONE
    c = Fraction(-2) / sum(x.abs2() for x in v)
    return [
        [(CQ_ONE if i == j else CQ_ZERO) + v[i] * v[j].conj() * c for j in range(d)]
        for i in range(d)
    ]


def rotated_split_curvature(rng, n, r):
    gamma = [[Fraction(rng.randint(-3, 3)) for _ in range(r)] for _ in range(n)]
    U, W = _reflection(rng, n), _reflection(rng, r)
    d = n * r
    V = [
        [U[j][k] * W[a][b] for k in range(n) for b in range(r)]
        for j in range(n)
        for a in range(r)
    ]
    D = [gamma[z // r][z % r] for z in range(d)]
    H = [
        [sum((V[x][z] * D[z] * V[y][z].conj() for z in range(d)), CQ_ZERO) for y in range(d)]
        for x in range(d)
    ]
    lines = [
        diagonal_norm(DiagonalCurvature(tuple(row[s] for row in gamma))).table
        for s in range(r)
    ]
    table = {pq: max(t[pq] for t in lines) for pq in lines[0]}
    return _curvature(H, n, r), table


def generic_hermitian(rng, d):
    H = [[CQ_ZERO] * d for _ in range(d)]
    for x in range(d):
        H[x][x] = CQ(Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
        for y in range(x + 1, d):
            if rng.random() < 0.7:
                z = CQ(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), Fraction(rng.randint(-4, 4), 2))
                H[x][y], H[y][x] = z, z.conj()
    return H


def generic_curvature(rng, n, r):
    return _curvature(generic_hermitian(rng, n * r), n, r)


def as_hermitian(spec):
    H = [[CQ(g) if j == k else CQ_ZERO for k in range(spec.n)] for j, g in enumerate(spec.gammas)]
    return _curvature(H, spec.n, 1)


def _congruent(P, B):
    d = len(B)
    BP = [[sum((B[a][b] * P[b][j] for b in range(d)), CQ_ZERO) for j in range(d)] for a in range(d)]
    return [[sum((P[a][i].conj() * BP[a][j] for a in range(d)), CQ_ZERO) for j in range(d)] for i in range(d)]


def _unitriangular(rng, d, entries):
    return [[CQ_ONE if i == j else rng.choice(entries) if i < j else CQ_ZERO for j in range(d)] for i in range(d)]


def imaginary_hermitian(rng, d):
    k = rng.randint(0, d // 2)
    A = [[CQ_ZERO] * d for _ in range(d)]
    for a in range(k):
        A[2 * a][2 * a + 1], A[2 * a + 1][2 * a] = CQ(0, 1), CQ(0, -1)
    upper = _unitriangular(rng, d, [CQ(x) for x in range(-2, 3)])
    lower = [list(col) for col in zip(*_unitriangular(rng, d, [CQ(x) for x in range(-2, 3)]))]
    return _congruent(upper, _congruent(lower, A)), (k, k, d - 2 * k)  # C = lower upper


def cancelling_hermitian(rng, d):
    z = rng.choice((CQ(1), CQ(-1), CQ(0, 1), CQ(0, -1)))
    diagonal = [rng.randint(-2, 2) for _ in range(d - 2)]
    B = [[CQ_ZERO] * d for _ in range(d)]
    B[0][1], B[1][0], B[1][1] = z, z.conj(), CQ(2 * (z.im - z.re))
    for i, e in enumerate(diagonal, 2):
        B[i][i] = CQ(e)
    P = _unitriangular(rng, d, [CQ(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)])
    P[0] = [CQ_ONE] + [CQ_ZERO] * (d - 1)
    signs = [1, -1] + diagonal
    return _congruent(P, B), (sum(e > 0 for e in signs), sum(e < 0 for e in signs), signs.count(0))


def _curvature(H, n, r):
    scale, re, im = gaussian_integers(H)
    pairs = [list(zip(*rows)) for rows in zip(re, im)]
    return HermitianCurvature(
        tuple(
            tuple(tuple(tuple(pairs[j * r + a][k * r + b] for b in range(r)) for a in range(r)) for k in range(n))
            for j in range(n)
        ),
        scale,
    )


# -- the draws against the oracle ---------------------------------------------------


def _same_draw(seed, draw, oracle, *args):
    """draw(rng, *args) and oracle(rng, *args), each from the seeded state,
    and whether both leave the stream in the same state."""
    results, states = [], []
    for f in (draw, oracle):
        rng = random.Random(seed)
        results.append(f(rng, *args))
        states.append(rng.getstate())
    return (*results, states[0] == states[1])


def test_generic_matrices_equal_the_oracle():
    for seed in SEEDS:
        for d in DIMENSIONS:
            matrix, oracle, same_state = _same_draw(seed, fixtures.generic_hermitian, generic_hermitian, d)
            assert matrix[0] == 6 and gaussian_rationals(matrix) == oracle and same_state, (seed, d)


def test_reflections_equal_the_oracle():
    for seed in SEEDS:
        for d in range(1, 7):
            (scale, matrix), oracle, same_state = _same_draw(seed, fixtures._reflection, _reflection, d)
            assert gaussian_rationals(fixtures._matrix(scale, matrix)) == oracle and same_state, (seed, d)


@pytest.mark.parametrize(
    "draw,oracle,shapes",
    [(fixtures.generic_curvature, generic_curvature, GENERIC),
     (fixtures.rotated_split_curvature, rotated_split_curvature, ROTATED)],
    ids=["generic", "rotated split"],
)
def test_curvature_draws_equal_the_oracle(draw, oracle, shapes):
    # a record holds its theta over the least common scale, so equal records are equal values
    for seed in SEEDS:
        for n, r in shapes:
            drawn, want, same_state = _same_draw(seed, draw, oracle, n, r)
            assert drawn == want and same_state, (seed, n, r)


@pytest.mark.parametrize(
    "family,oracle",
    [(fixtures.imaginary_hermitian, imaginary_hermitian), (fixtures.cancelling_hermitian, cancelling_hermitian)],
    ids=["imaginary", "cancelling"],
)
def test_zero_pivot_families_equal_the_oracle(family, oracle):
    for seed in SEEDS:
        for d in range(2, 9):
            (matrix, inertia), (want, want_inertia), same_state = _same_draw(seed, family, oracle, d)
            assert matrix[0] == 1 and gaussian_rationals(matrix) == want, (seed, d)
            assert inertia == want_inertia and same_state, (seed, d)


def test_diagonal_curvature_as_hermitian_equals_the_oracle():
    for seed in SEEDS:
        rng = random.Random(seed)
        for n in range(1, 7):
            for gammas in fixtures.gamma_draws(rng, n):
                spec = DiagonalCurvature(gammas)
                assert fixtures.as_hermitian(spec) == as_hermitian(spec), (seed, gammas)
