"""Exact real-root isolation: Sturm counts and sign-change bisection.

Only the bound evaluators (``hlab.bounds``) isolate roots, those of a
Hilbert polynomial; the eigenvalues of a Hermitian curvature are counted by
the inertia kernel of ``hlab.hermitian`` instead.  Every interval is
certified by exact rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .qpoly import QPoly


def sturm_chain(P: QPoly) -> list[QPoly]:
    chain = [P, P.derivative()]
    while not chain[-1].is_zero() and chain[-1].degree > 0:
        rem = chain[-2].divmod(chain[-1])[1]
        chain.append(-rem)
    if chain[-1].is_zero():
        chain.pop()
    return chain


def _variations(chain: Sequence[QPoly], x: Fraction) -> int:
    signs = []
    for poly in chain:
        v = poly(x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_between(chain: Sequence[QPoly], a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots in (a, b]; endpoints must not be roots."""
    return _variations(chain, a) - _variations(chain, b)


def cauchy_bound(P: QPoly) -> Fraction:
    """All roots satisfy |z| < 1 + max |a_i| / |a_deg|."""
    lead = abs(P.leading())
    rest = [abs(c) for c in P.coeffs[:-1]]
    return 1 + (max(rest) / lead if rest else Fraction(0))


def isolate_real_roots(P: QPoly, width: Fraction = Fraction(1, 2**20)) -> list[tuple[Fraction, Fraction]]:
    """Disjoint rational intervals, one distinct real root of P in each.

    Multiple roots are removed by dividing out gcd(P, P') first, so a
    simple sign change certifies each non-degenerate interval; a root hit
    exactly is returned as a degenerate [r, r] interval.  Non-degenerate
    intervals are at most ``width`` wide.
    """
    if P.is_zero():
        raise ValueError("cannot isolate roots of the zero polynomial")
    Q = P.squarefree_part()
    if Q.degree < 1:
        return []
    if Q.degree == 1:
        root = -Q.coeffs[0] / Q.coeffs[1]
        return [(root, root)]
    chain = sturm_chain(Q)
    B = cauchy_bound(Q)
    out: list[tuple[Fraction, Fraction]] = []
    work = [(-B, B, count_roots_between(chain, -B, B))]
    while work:
        a, b, cnt = work.pop()
        if cnt == 0:
            continue
        if cnt == 1:
            out.append(_refine(Q, a, b, width))
            continue
        mid = (a + b) / 2
        if Q(mid) == 0:
            out.append((mid, mid))
            # carve out a punctured neighbourhood holding only this root
            delta = (b - a) / 4
            while True:
                lo, hi = mid - delta, mid + delta
                if Q(lo) != 0 and Q(hi) != 0 and count_roots_between(chain, lo, hi) == 1:
                    break
                delta /= 2
            left = count_roots_between(chain, a, lo)
            work.append((a, lo, left))
            work.append((hi, b, cnt - 1 - left))
        else:
            left = count_roots_between(chain, a, mid)
            work.append((a, mid, left))
            work.append((mid, b, cnt - left))
    out.sort()
    return out


def _refine(Q: QPoly, a: Fraction, b: Fraction, width: Fraction) -> tuple[Fraction, Fraction]:
    """Bisect (a, b], which holds exactly one root of Q, down to ``width``.

    Q is square-free, so Q changes sign at its one root in (a, b), and
    neither end is a root: the root lies left of a non-root midpoint exactly
    when Q there differs in sign from Q(a), and the half kept is the one a
    Sturm count would pick.
    """
    left_positive = Q(a) > 0
    while b - a > width:
        mid = (a + b) / 2
        v = Q(mid)
        if v == 0:
            return (mid, mid)
        if (v > 0) != left_positive:
            b = mid
        else:
            a = mid
    return (a, b)
