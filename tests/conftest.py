"""Shared helpers: the seeded random Chern data of `hlab.fixtures`, random
forms, and integer-valued polynomials in the binomial basis."""

from fractions import Fraction

from hlab.fixtures import (  # noqa: F401 - re-exported for the test modules
    random_homogeneous,
    random_manifold_bundle,
    weight_keys,
)
from hlab.gaussian import CQ
from hlab.lefschetz import FormVector
from hlab.qpoly import QPoly


def random_form(rng, basis):
    """A form with one to six random Gaussian-rational coefficients."""
    terms = {}
    for _ in range(rng.randint(1, 6)):
        idx = rng.randrange(basis.dim)
        terms[idx] = CQ(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                        Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
    return FormVector(basis, terms)


def newton_poly(b):
    """P(m) = sum b_i C(m, i): integer-valued with Delta^i P(0) = b_i."""
    P = QPoly([])
    for i, bi in enumerate(b):
        term = QPoly([1])
        for j in range(i):
            term = term * QPoly([-j, 1]) * Fraction(1, j + 1)
        P = P + bi * term
    return P
