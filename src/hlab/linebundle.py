"""The commutator norm of a Hermitian line bundle from the eigenvalues of theta.

For r = 1, theta is an n x n Hermitian matrix.  A unitary frame U of C^n
with U* theta U = diag(gamma) acts unitarily on Lambda^{p,q}(C^n) and
commutes with L and Lambda, so every C_{p,q} is the closed form of
``hlab.diagonal`` at the eigenvalues gamma of theta.  They are enclosed from
the exact characteristic polynomial with the root isolation of
``hlab.roots``, and no operator is built.
"""

from __future__ import annotations

from fractions import Fraction

from .diagonal import CommutatorNorm
from .errors import CertificateError
from .gaussian import CQ, CQ_ONE, CQ_ZERO
from .hermitian import HERMITIAN_WIDTH, HermitianCurvature, _float_eigenvalues
from .qpoly import QPoly
from .record import Interval
from .roots import isolate_near, squarefree_factors


def line_bundle_norm(spec: HermitianCurvature) -> CommutatorNorm:
    """C = |[Lambda, iTheta(L)]| and the C_{p,q} table of a line bundle, each
    enclosed to width at most HERMITIAN_WIDTH.

    C_{p,q} = max |gamma_J + gamma_K - sum gamma| over |J| = p, |K| = q at the
    eigenvalues gamma of theta (module docstring), each enclosed to width
    HERMITIAN_WIDTH / (2n) by :func:`eigenvalue_enclosures`.  The extremes
    are the sums of the p (and q) largest and smallest eigenvalues, as in
    ``hlab.diagonal._diagonal_table``, here in interval arithmetic with the
    sum of all n eigenvalues taken as tr theta exactly, so a block that is
    identically zero (p = n, q = 0 and the reverse) encloses 0 as [0, 0].
    """
    if spec.r != 1:
        raise ValueError(f"the eigenvalue path takes a line bundle, not r = {spec.r}")
    n = spec.n
    theta = [[line[k][0][0] for k in range(n)] for line in spec.theta]
    gammas = eigenvalue_enclosures(theta)
    trace = sum((theta[j][j].re for j in range(n)), Fraction(0))
    low, high = [(Fraction(0), Fraction(0))], [(Fraction(0), Fraction(0))]
    for p in range(1, n):
        low.append(_add(low[-1], gammas[p - 1]))
        high.append(_add(high[-1], gammas[n - p]))
    low.append((trace, trace))
    high.append((trace, trace))
    table = {}
    for p in range(n + 1):
        for q in range(n + 1):
            top, bottom = _add(high[p], high[q]), _add(low[p], low[q])
            lo_top, hi_top = _abs(top[0] - trace, top[1] - trace)
            lo_bottom, hi_bottom = _abs(bottom[0] - trace, bottom[1] - trace)
            table[(p, q)] = Interval(max(lo_top, lo_bottom), max(hi_top, hi_bottom))
    worst = max(table.values(), key=lambda iv: iv.hi)
    return CommutatorNorm(worst, table, exact=False)


def _add(x: tuple[Fraction, Fraction], y: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
    return x[0] + y[0], x[1] + y[1]


def _abs(lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """The enclosure {|x| : lo <= x <= hi}."""
    if lo >= 0:
        return lo, hi
    if hi <= 0:
        return -hi, -lo
    return Fraction(0), max(-lo, hi)


def eigenvalue_enclosures(theta: list[list[CQ]]) -> list[tuple[Fraction, Fraction]]:
    """The n eigenvalues of the Hermitian matrix theta, with multiplicity and
    in increasing order, each as a rational (lo, hi) at most
    HERMITIAN_WIDTH / (2n) wide.

    The characteristic polynomial is exact (:func:`_charpoly`); Yun's
    decomposition gives each distinct root its multiplicity, and each
    square-free factor's roots are isolated by Sturm counts, proposed by
    float eigenvalues (``hlab.roots.isolate_near``).  Certified: the
    multiplicities of the roots found sum to n, so every eigenvalue is
    real and enclosed, and their enclosures add up around tr theta.
    """
    n = len(theta)
    width = HERMITIAN_WIDTH / (2 * n)
    guesses = _float_eigenvalues(theta)
    out = []
    for multiplicity, factor in squarefree_factors(_charpoly(theta)):
        for iv in isolate_near(factor, guesses, width):
            out += [iv] * multiplicity
    if len(out) != n:
        raise CertificateError(f"theta has {len(out)} real eigenvalues with multiplicity, not n = {n}")
    trace = sum((theta[j][j].re for j in range(n)), Fraction(0))
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
