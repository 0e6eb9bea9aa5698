"""The commutator norm of a Hermitian line bundle from the eigenvalues of theta.

For r = 1, theta is an n x n Hermitian matrix.  A unitary frame U of C^n
with U* theta U = diag(gamma) acts unitarily on Lambda^{p,q}(C^n) and
commutes with L and Lambda, so every C_{p,q} is the closed form of
``hlab.diagonal`` at the eigenvalues gamma of theta.  They are enclosed by
counting the eigenvalues of theta below and at a rational h with the exact
inertia kernel of ``hlab.hermitian``, and no operator and no polynomial is
built.  ``hlab.diagonal.commutator_norm`` sends a Hermitian curvature here
when r = 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import isfinite

from .diagonal import CommutatorNorm, _diagonal_table
from .errors import CertificateError
from .gaussian import CQ
from .hermitian import HERMITIAN_WIDTH, HermitianCurvature, _float_eigenvalues, inertia_signs, integer_parts
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
    n = spec.n
    theta = [[line[k][0][0] for k in range(n)] for line in spec.theta]
    trace = sum((theta[j][j].re for j in range(n)), Fraction(0))
    ends = _diagonal_table(eigenvalue_enclosures(theta, trace), trace)
    table = {key: Interval(lo, hi) for key, (lo, hi) in ends.items()}
    return CommutatorNorm(max(table.values(), key=lambda iv: iv.hi), table)


def eigenvalue_enclosures(theta: list[list[CQ]], trace: Fraction) -> list[tuple[Fraction, Fraction]]:
    """The n eigenvalues of the Hermitian matrix theta, with multiplicity and
    in increasing order, each as a rational (lo, hi) at most
    HERMITIAN_WIDTH / (2n) wide; ``trace`` is tr theta.

    ``hermitian.integer_parts`` certifies theta Hermitian, and the inertia
    kernel counts its eigenvalues below h and at h exactly.  Each float
    eigenvalue proposes the grid point c nearest to it on the grid of step
    width/2: [c, c] when c is an eigenvalue, as often as its multiplicity,
    else [c - width/2, c + width/2], as often as the eigenvalues in it; a
    proposal must be disjoint from those kept so far.  Unless the kept ones
    hold all n eigenvalues (a bad, missing or non-finite proposal), exact
    bisection on the same counts encloses them from a Gershgorin bracket.
    Certified: the enclosures add up around tr theta.
    """
    n = len(theta)
    width = HERMITIAN_WIDTH / (2 * n)
    *_, radius = parts = integer_parts(theta)  # radius bounds every eigenvalue's size

    def counts(h: Fraction) -> tuple[int, int]:
        """The number of eigenvalues below h and equal to h."""
        signs = list(inertia_signs(parts, h))
        return signs.count(1), signs.count(0)

    step = width / 2
    out: list[tuple[Fraction, Fraction]] = []
    for guess in _float_eigenvalues(theta):
        if not isfinite(guess):
            continue
        c = round(Fraction(guess) / step) * step
        iv, inside = (c, c), counts(c)[1]
        if not inside:
            under, (below, at_hi) = counts(c - step)[0], counts(c + step)
            iv, inside = (c - step, c + step), below + at_hi - under
        if inside and all(iv[1] < lo or hi < iv[0] for lo, hi in out):
            out += [iv] * inside
    if len(out) != n:
        bound = 1 + radius
        # (a, b, eigenvalues <= a, eigenvalues < b): b - a halves until it is width
        out, work = [], [(-bound, bound, 0, n)]
        while work:
            a, b, at_most_a, below_b = work.pop()
            if at_most_a == below_b or b - a <= width:
                out += [(a, b)] * (below_b - at_most_a)
                continue
            mid = (a + b) / 2
            below, at = counts(mid)
            out += [(mid, mid)] * at
            work += [(a, mid, at_most_a, below), (mid, b, below + at, below_b)]
    if not sum(lo for lo, _ in out) <= trace <= sum(hi for _, hi in out):
        raise CertificateError("the eigenvalue enclosures do not add up around tr theta")
    return sorted(out)
