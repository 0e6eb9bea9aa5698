"""The commutator norm of a Hermitian line bundle from the eigenvalues of theta.

For r = 1, theta is an n x n Hermitian matrix.  A unitary frame U of C^n
with U* theta U = diag(gamma) acts unitarily on Lambda^{p,q}(C^n) and
commutes with L and Lambda, so every C_{p,q} is the closed form of
``hlab.diagonal`` at the eigenvalues gamma of theta.  They are enclosed from
the exact characteristic polynomial with the root isolation of
``hlab.roots``, and no operator is built.  ``hlab.diagonal.commutator_norm``
sends a Hermitian curvature here when r = 1.
"""

from __future__ import annotations

from fractions import Fraction

from .diagonal import CommutatorNorm, _diagonal_table
from .errors import CertificateError
from .gaussian import CQ, CQ_ONE, CQ_ZERO
from .hermitian import HERMITIAN_WIDTH, HermitianCurvature, _float_eigenvalues
from .qpoly import QPoly
from .record import Interval
from .roots import isolate_real_roots, squarefree_factors


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

    The characteristic polynomial is exact (:func:`_charpoly`); Yun's
    decomposition gives each distinct root its multiplicity, and each
    square-free factor's roots are isolated by Sturm counts, proposed by
    float eigenvalues (the ``guesses`` of ``hlab.roots.isolate_real_roots``).
    Certified: the multiplicities of the roots found sum to n, so every
    eigenvalue is real and enclosed, and their enclosures add up around
    tr theta.
    """
    n = len(theta)
    width = HERMITIAN_WIDTH / (2 * n)
    guesses = _float_eigenvalues(theta)
    out = []
    for multiplicity, factor in squarefree_factors(_charpoly(theta)):
        for iv in isolate_real_roots(factor, width, guesses):
            out += [iv] * multiplicity
    if len(out) != n:
        raise CertificateError(f"theta has {len(out)} real eigenvalues with multiplicity, not n = {n}")
    if not sum(lo for lo, _ in out) <= trace <= sum(hi for _, hi in out):
        raise CertificateError("the eigenvalue enclosures do not add up around tr theta")
    return sorted(out)


def _charpoly(theta: list[list[CQ]]) -> QPoly:
    """det(x I - theta) by Faddeev-LeVerrier over Q(i): with M_1 = I,
    c_{n-k} = -tr(theta M_k) / k and M_{k+1} = theta M_k + c_{n-k} I.
    Every coefficient must be real, else CertificateError."""
    n = len(theta)
    coeffs = [CQ_ZERO] * n + [CQ_ONE]
    product = theta  # theta M_k
    for k in range(1, n + 1):
        c = coeffs[n - k] = -sum((product[i][i] for i in range(n)), CQ_ZERO) / CQ(k)
        if k < n:
            M = [[v + c if i == j else v for j, v in enumerate(row)] for i, row in enumerate(product)]
            product = [[sum((theta[i][t] * M[t][j] for t in range(n)), CQ_ZERO) for j in range(n)] for i in range(n)]
    if any(c.b for c in coeffs):
        raise CertificateError("the characteristic polynomial of a Hermitian theta is not real")
    return QPoly([c.re for c in coeffs], "x")
