"""The one source of seeded random data: ring elements, Chern data with
exact integralization, diagonal curvature gammas, Hermitian curvature,
generic or with a closed-form commutator norm, and Hermitian matrices whose
inertia is known, built to drive the zero pivots of the inertia kernel; and
the one conversion of diagonal curvature to Hermitian
(:func:`as_hermitian`), which no command runs.  The Hermitian draws
compute on matrices of Gaussian-integer pairs (x, y) = x + i y over an
integer scale, with one product and one adjoint, and hand over the one
matrix form of ``hlab.hermitian`` that the record and the certificates
read: (scale, re, im).

Random "formal manifolds" have no reason to produce integral Euler
characteristics, so after drawing the data we rescale the fundamental
class by the lcm of every denominator the planned integrals produce.
Scaling is linear in the Chern-number table, so every identity under test
is preserved while the engine's integrality validator stays satisfied.

Shared by the test suite and the `verify` subcommand, which take CP^n from
``genus.projective_space``, the document ``hlab fixture cp n`` prints.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from typing import Iterable

from .genus import (
    BundleData,
    FundamentalClass,
    ManifoldData,
    bundle_power,
    chern_character,
    integrate_product,
)
from .diagonal import DiagonalCurvature, diagonal_norm
from .hermitian import HermitianCurvature
from .ring import RingSpec


def weight_keys(spec: RingSpec, weight: int, prefix=(), start=0):
    """Exponent tuples of every monomial of the given total weight."""
    if start == len(spec.generators):
        if weight == 0:
            yield prefix
        return
    _, w = spec.generators[start]
    for e in range(weight // w + 1):
        yield from weight_keys(spec, weight - e * w, prefix + (e,), start + 1)


def random_homogeneous(rng: random.Random, spec: RingSpec, weight: int, density=0.8):
    terms = {}
    for key in weight_keys(spec, weight):
        if rng.random() < density:
            terms[key] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return spec.element(terms)


def random_element(rng: random.Random, spec: RingSpec, density=0.8):
    """A sum of random homogeneous parts: each weight present with chance 0.8,
    and each of its monomials with chance ``density``."""
    out = spec.zero()
    for w in range(spec.truncation + 1):
        if rng.random() < 0.8:
            out = out + random_homogeneous(rng, spec, w, density)
    return out


def gamma_draws(rng: random.Random, n: int) -> list[tuple[Fraction, ...]]:
    """Seeded diagonal curvature gammas, with zeros and repeated values among them."""
    draws = [tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(n)) for _ in range(4)]
    g = draws[0]
    zero = Fraction(0)
    return draws + [(zero,) * n, (g[0],) * n, (g[0], zero) * (n // 2) + g[: n % 2], tuple(sorted(g * 2)[:n])]


def manifold_ring(n: int, bundle_rank: int) -> RingSpec:
    gens = [(f"x{i}", i) for i in range(1, n + 1)]
    gens += [(f"y{j}", j) for j in range(1, min(bundle_rank, n) + 1)]
    return RingSpec(tuple(gens), n)


def integralized(x: ManifoldData, bundles: Iterable[BundleData]) -> ManifoldData:
    """``x`` with its fundamental class scaled so every chi^p(X, B) is integral."""
    scale = 1
    for b in bundles:
        td_ch = x.td * chern_character(b, x.spec, x.n)
        for h in x.hodge:
            scale = lcm(scale, integrate_product(td_ch, h, x.fclass).denominator)
    if scale == 1:
        return x
    fclass = FundamentalClass(x.spec, {e: c * scale for e, c in x.fclass.assignments.items()})
    return ManifoldData(x.n, x.chern, fclass)


def random_manifold_bundle(
    rng: random.Random,
    n: int,
    bundle_rank: int = 1,
    line_powers=(),
):
    """Random Chern data for (X, E) with integral chi^p for every p.

    ``line_powers``: also make chi^p(X, E^{tensor m}) integral for these m
    (requires bundle_rank == 1).
    """
    spec = manifold_ring(n, bundle_rank)
    cx = tuple(random_homogeneous(rng, spec, i) for i in range(1, n + 1))
    ce = tuple(
        random_homogeneous(rng, spec, j) for j in range(1, min(bundle_rank, n) + 1)
    )
    fclass = FundamentalClass(
        spec,
        {k: Fraction(rng.randint(-5, 5)) for k in weight_keys(spec, n)},
    )
    e = BundleData(bundle_rank, ce)
    bundles = [BundleData.trivial(), e] + [bundle_power(e, m) for m in line_powers]
    return integralized(ManifoldData(n, cx, fclass), bundles), e


def _times(z: tuple, w: tuple) -> tuple:
    """(a + i b)(c + i d) for the Gaussian integers z = (a, b) and w = (c, d)."""
    (a, b), (c, d) = z, w
    return a * c - b * d, a * d + b * c


def _product(A: list, B: list) -> list:
    """AB for matrices of Gaussian-integer pairs (x, y) = x + i y."""
    return [[tuple(map(sum, zip(*map(_times, row, col)))) for col in zip(*B)] for row in A]


def _adjoint(A: list) -> list:
    """The conjugate transpose of a matrix of Gaussian-integer pairs."""
    return [[(x, -y) for x, y in col] for col in zip(*A)]


def _matrix(scale: int, A: list) -> tuple:
    """The matrix (scale, re, im) of ``hlab.hermitian`` that A / scale is,
    for A a matrix of Gaussian-integer pairs."""
    return scale, [[x for x, _ in row] for row in A], [[y for _, y in row] for row in A]


def _reflection(rng: random.Random, d: int) -> tuple[int, list]:
    """(s, s I - 2 v v*) for s = v* v and a random nonzero Gaussian-integer
    v: over s, a unitary matrix."""
    v = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(d)]
    if not any(map(any, v)):
        v[0] = (1, 0)
    s = sum(x * x + y * y for x, y in v)
    column = [[z] for z in v]
    vv = _product(column, _adjoint(column))
    return s, [[(s * (i == j) - 2 * x, -2 * y) for j, (x, y) in enumerate(row)] for i, row in enumerate(vv)]


def rotated_split_curvature(rng: random.Random, n: int, r: int):
    """A direct sum of r line bundles, presented in random unitary frames.

    theta = V diag(gamma) V* with V = U (x) W for reflections U of the base
    and W of the fiber, where gamma[j][s] is the curvature of line s along
    base direction j.  A unitary frame change leaves every C_{p,q} alone, so
    the table is the closed form: per bidegree, the largest diagonal C_{p,q}
    among the r lines.  Returns (HermitianCurvature, table).
    """
    gamma = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
    (su, U), (sw, W) = _reflection(rng, n), _reflection(rng, r)
    d = n * r
    V = [[_times(U[x // r][y // r], W[x % r][y % r]) for y in range(d)] for x in range(d)]
    D = [[(gamma[x // r][x % r], 0) if x == y else (0, 0) for y in range(d)] for x in range(d)]
    lines = [
        diagonal_norm(DiagonalCurvature(tuple(row[s] for row in gamma))).table
        for s in range(r)
    ]
    table = {pq: max(t[pq] for t in lines) for pq in lines[0]}
    return _curvature(_matrix((su * sw) ** 2, _product(_product(V, D), _adjoint(V))), n, r), table


def generic_hermitian(rng: random.Random, d: int) -> tuple:
    """A d x d Hermitian matrix (6, re, im) with random entries: real parts
    of denominator 1, 2 or 3 and imaginary parts of denominator 2, some
    entries zero off the diagonal."""
    H = [[(0, 0)] * d for _ in range(d)]
    for x in range(d):
        H[x][x] = (6 * rng.randint(-6, 6) // rng.randint(1, 3), 0)
        for y in range(x + 1, d):
            if rng.random() < 0.7:
                z = a, b = 6 * rng.randint(-4, 4) // rng.randint(1, 3), 3 * rng.randint(-4, 4)
                H[x][y], H[y][x] = z, (a, -b)
    return _matrix(6, H)


def generic_curvature(rng: random.Random, n: int, r: int) -> HermitianCurvature:
    """A Hermitian theta drawn by :func:`generic_hermitian`: irrational
    eigenvalues and no closed-form norm."""
    return _curvature(generic_hermitian(rng, n * r), n, r)


def as_hermitian(spec: DiagonalCurvature) -> HermitianCurvature:
    """The Hermitian curvature of diagonal gammas: 1 x 1 blocks, gamma_j at (j, j)."""
    H = [[(g if j == k else 0, 0) for k in range(spec.n)] for j, g in enumerate(spec.gammas)]
    return _curvature(_matrix(1, H), spec.n, 1)


def _congruent(P: list, B: list) -> list:
    """P* B P, which has the inertia of B when P is invertible (Sylvester)."""
    return _product(_adjoint(P), _product(B, P))


def _unitriangular(rng: random.Random, d: int, entries) -> list:
    """A random d x d upper unitriangular matrix with off-diagonal entries drawn from ``entries``."""
    return [[(1, 0) if i == j else rng.choice(entries) if i < j else (0, 0) for j in range(d)] for i in range(d)]


def imaginary_hermitian(rng: random.Random, d: int) -> tuple[tuple, tuple[int, int, int]]:
    """A d x d Hermitian matrix (1, re, im) with a zero diagonal and purely
    imaginary entries, and its inertia (#positive, #negative, #zero eigenvalues).

    It is C^T (iJ) C for a random real C of determinant 1 and J the sum of
    k blocks [[0, 1], [-1, 0]] and d - 2k zeros: C^T J C is skew, so the
    diagonal is 0 and every entry imaginary, and by Sylvester's law the
    inertia is that of iJ, whose blocks have eigenvalues +1 and -1: (k, k, d - 2k).
    """
    k = rng.randint(0, d // 2)
    A = [[(0, 0)] * d for _ in range(d)]
    for a in range(k):
        A[2 * a][2 * a + 1], A[2 * a + 1][2 * a] = (0, 1), (0, -1)
    upper = _unitriangular(rng, d, [(x, 0) for x in range(-2, 3)])
    lower = _adjoint(_unitriangular(rng, d, [(x, 0) for x in range(-2, 3)]))
    return _matrix(1, _congruent(upper, _congruent(lower, A))), (k, k, d - 2 * k)  # C = lower upper


def cancelling_hermitian(rng: random.Random, d: int) -> tuple[tuple, tuple[int, int, int]]:
    """A d x d Hermitian Gaussian-integer matrix (1, re, im), d >= 2, whose
    first elimination step cancels, and its inertia (#positive, #negative, #zero).

    A_00 = 0, A_01 = z for z = +-1 or +-i, and A_11 = 2 (Im z - Re z), so
    2 Re(u A_01) + A_11 = 0 for u = 1 (z real) or u = i (z imaginary): the
    congruence e_0 -> e_0 + u e_1 gives a zero pivot, and the kernel must
    take u = -1 or -i.  It is P* B P for B = [[0, z], [conj z, A_11]] plus a
    random diagonal and P an upper unitriangular Gaussian-integer matrix
    that fixes e_0 and e_1, so by Sylvester's law the inertia is that
    of B: the 2 x 2 block has determinant -1, one eigenvalue of each sign.
    """
    z = x, y = rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
    diagonal = [rng.randint(-2, 2) for _ in range(d - 2)]
    B = [[(e, 0) if i == j else (0, 0) for j in range(d)] for i, e in enumerate([0, 2 * (y - x), *diagonal])]
    B[0][1], B[1][0] = z, (x, -y)
    P = _unitriangular(rng, d, [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)])
    P[0] = [(1, 0)] + [(0, 0)] * (d - 1)
    signs = [1, -1] + diagonal
    return _matrix(1, _congruent(P, B)), (sum(e > 0 for e in signs), sum(e < 0 for e in signs), signs.count(0))


def _curvature(H: tuple, n: int, r: int) -> HermitianCurvature:
    """The curvature whose (nr x nr) matrix is H = (scale, re, im):
    theta[j][k][a][b] = H[j r + a][k r + b].  The record reduces the scale."""
    scale, re, im = H
    pairs = [list(zip(*rows)) for rows in zip(re, im)]
    return HermitianCurvature(
        tuple(
            tuple(tuple(tuple(pairs[j * r + a][k * r + b] for b in range(r)) for a in range(r)) for k in range(n))
            for j in range(n)
        ),
        scale,
    )
