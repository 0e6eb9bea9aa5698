"""The commutator norm of a Hermitian line bundle from the eigenvalues of theta.

For r = 1, theta is an n x n Hermitian matrix.  A unitary frame U of C^n
with U* theta U = diag(gamma) acts unitarily on Lambda^{p,q}(C^n) and
commutes with L and Lambda, so every C_{p,q} is the closed form of
``hlab.diagonal`` at the eigenvalues gamma of theta.  They are enclosed by
counting the eigenvalues of theta below and at a rational h with the exact
inertia kernel of ``hlab.hermitian``, on theta's Gaussian integers over its
scale; no operator or polynomial is built.
``hlab.diagonal.commutator_norm`` sends a Hermitian line bundle here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial

from .diagonal import CommutatorNorm, _diagonal_table
from .errors import CertificateError
from .hermitian import HERMITIAN_WIDTH, HermitianCurvature, _float_eigenvalues, enclose, inertia_signs, integer_parts
from .record import Interval


def line_bundle_norm(spec: HermitianCurvature) -> CommutatorNorm:
    """C = |[Lambda, iTheta(L)]| and the C_{p,q} table of a line bundle, each
    enclosed to width at most HERMITIAN_WIDTH.

    The closed form ``hlab.diagonal._diagonal_table`` at the eigenvalues of
    theta (module docstring), each enclosed to width HERMITIAN_WIDTH / (2n)
    by :func:`eigenvalue_enclosures`, with their sum taken as tr theta
    exactly.
    """
    if spec.r != 1:
        raise ValueError(f"the eigenvalue path takes a line bundle, not r = {spec.r}")
    re = [[m[0][0][0] for m in line] for line in spec.theta]
    im = [[m[0][0][1] for m in line] for line in spec.theta]
    trace = Fraction(sum(re[j][j] for j in range(spec.n)), spec.scale)
    ends = _diagonal_table(eigenvalue_enclosures((spec.scale, re, im), trace), trace)
    return CommutatorNorm({key: Interval(lo, hi) for key, (lo, hi) in ends.items()})


def eigenvalue_enclosures(theta: tuple, trace: Fraction) -> list[tuple[Fraction, Fraction]]:
    """The n eigenvalues of the Hermitian matrix theta, a (scale, re, im)
    triple, with multiplicity, each as a rational (lo, hi) at most
    HERMITIAN_WIDTH / (2n) wide: enclosure k holds the k-th smallest, and
    the lows need not be sorted.  ``trace`` is tr theta.

    ``hermitian.integer_parts`` certifies theta Hermitian, and one inertia
    elimination per h counts its eigenvalues below and at h: the sign of
    each gamma_k - h.  ``hermitian.enclose`` takes it from the k-th sorted
    float eigenvalue and the bracket +-(1 + max row sum).
    Certified: the enclosures add up around tr theta.
    """
    *_, radius = parts = integer_parts(theta)  # radius bounds every eigenvalue's size
    signs = cache(lambda h: list(inertia_signs(parts, h)))

    def compare(k: int, h: Fraction) -> int:
        """sign(gamma_k - h), gamma_k the k-th smallest eigenvalue."""
        below = signs(h).count(1)
        return -1 if below > k else 0 if below + signs(h).count(0) > k else 1

    width = HERMITIAN_WIDTH / (2 * len(parts[1]))
    guesses = sorted(_float_eigenvalues(parts))
    out = [enclose(partial(compare, k), g, -1 - radius, 1 + radius, width) for k, g in enumerate(guesses)]
    if not sum(lo for lo, _ in out) <= trace <= sum(hi for _, hi in out):
        raise CertificateError("the eigenvalue enclosures do not add up around tr theta")
    return out
