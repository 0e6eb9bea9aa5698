"""Shared helpers: the seeded random Chern data of `hlab.fixtures`, and
integer-valued polynomials in the binomial basis."""

from fractions import Fraction

from hlab.fixtures import (  # noqa: F401 - re-exported for the test modules
    random_homogeneous,
    random_manifold_bundle,
    weight_keys,
)
from hlab.qpoly import QPoly


def newton_poly(b):
    """P(m) = sum b_i C(m, i): integer-valued with Delta^i P(0) = b_i."""
    P = QPoly([])
    for i, bi in enumerate(b):
        term = QPoly([1])
        for j in range(i):
            term = term * QPoly([-j, 1]) * Fraction(1, j + 1)
        P = P + bi * term
    return P
