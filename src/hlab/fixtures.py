"""Seeded random Chern data with exact integralization.

Random "formal manifolds" have no reason to produce integral Euler
characteristics, so after drawing the data we rescale the fundamental
class by the lcm of every denominator the planned integrals produce.
Scaling is linear in the Chern-number table, so every identity under test
is preserved while the engine's integrality validator stays satisfied.

Shared by the test suite and the `verify` subcommand.
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
    hodge_classes,
    integrate,
    todd_class,
)
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


def manifold_ring(n: int, bundle_rank: int) -> RingSpec:
    gens = [(f"x{i}", i) for i in range(1, n + 1)]
    gens += [(f"y{j}", j) for j in range(1, min(bundle_rank, n) + 1)]
    return RingSpec(tuple(gens), n)


def integralized(x: ManifoldData, bundles: Iterable[BundleData]) -> ManifoldData:
    """``x`` with its fundamental class scaled so every chi^p(X, B) is integral."""
    td = todd_class(x)
    hodge = [td * h for h in hodge_classes(x)]
    scale = 1
    for b in bundles:
        ch = chern_character(b, x.spec, x.n)
        for h in hodge:
            scale = lcm(scale, integrate(h * ch, x.fclass).denominator)
    if scale == 1:
        return x
    return ManifoldData(x.n, x.chern, x.fclass.scaled(scale))


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
