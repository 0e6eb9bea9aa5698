"""The one source of seeded random data: ring elements, Chern data with
exact integralization, diagonal curvature gammas, and Hermitian curvature,
generic or with a closed-form commutator norm; and the one conversion of
diagonal curvature to Hermitian (:func:`as_hermitian`), which no command
runs.

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
from .gaussian import CQ, CQ_ONE, CQ_ZERO
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


def _reflection(rng: random.Random, d: int) -> list[list[CQ]]:
    """I - 2 v v* / (v* v) for a random nonzero Gaussian-integer v: a unitary
    matrix with Gaussian-rational entries."""
    v = [CQ(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(d)]
    if not any(v):
        v[0] = CQ_ONE
    c = Fraction(-2) / sum(x.abs2() for x in v)
    return [
        [(CQ_ONE if i == j else CQ_ZERO) + v[i] * v[j].conj() * c for j in range(d)]
        for i in range(d)
    ]


def rotated_split_curvature(rng: random.Random, n: int, r: int):
    """A direct sum of r line bundles, presented in random unitary frames.

    theta = V diag(gamma) V* with V = U (x) W for reflections U of the base
    and W of the fiber, where gamma[j][s] is the curvature of line s along
    base direction j.  A unitary frame change leaves every C_{p,q} alone, so
    the table is the closed form: per bidegree, the largest diagonal C_{p,q}
    among the r lines.  Returns (HermitianCurvature, table).
    """
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


def generic_hermitian(rng: random.Random, d: int) -> list[list[CQ]]:
    """A d x d Hermitian matrix with random Gaussian-rational entries, some
    zero off the diagonal."""
    H = [[CQ_ZERO] * d for _ in range(d)]
    for x in range(d):
        H[x][x] = CQ(Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
        for y in range(x + 1, d):
            if rng.random() < 0.7:
                z = CQ(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), Fraction(rng.randint(-4, 4), 2))
                H[x][y], H[y][x] = z, z.conj()
    return H


def generic_curvature(rng: random.Random, n: int, r: int) -> HermitianCurvature:
    """A Hermitian theta drawn by :func:`generic_hermitian`: irrational
    eigenvalues and no closed-form norm."""
    return _curvature(generic_hermitian(rng, n * r), n, r)


def as_hermitian(spec: DiagonalCurvature) -> HermitianCurvature:
    """The Hermitian curvature of diagonal gammas: 1 x 1 blocks, gamma_j at (j, j)."""
    H = [[CQ(g) if j == k else CQ_ZERO for k in range(spec.n)] for j, g in enumerate(spec.gammas)]
    return _curvature(H, spec.n, 1)


def _curvature(H: list[list[CQ]], n: int, r: int) -> HermitianCurvature:
    """The curvature whose (nr x nr) matrix is H: theta[j][k][a][b] = H[j r + a][k r + b]."""
    return HermitianCurvature(
        tuple(
            tuple(
                tuple(tuple(H[j * r + a][k * r + b] for b in range(r)) for a in range(r))
                for k in range(n)
            )
            for j in range(n)
        )
    )
