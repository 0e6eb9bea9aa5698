"""Exact real-root isolation: Sturm counts, sign-change bisection and
Yun's square-free decomposition.

The bound evaluators (``hlab.bounds``) isolate the roots of a Hilbert
polynomial here, and the line-bundle commutator norm (``hlab.linebundle``)
the eigenvalues of its curvature.  Every interval is certified by exact
rational arithmetic; a float may only propose one (the ``guesses`` of
:func:`isolate_real_roots`).
"""

from __future__ import annotations

from fractions import Fraction
from math import isfinite
from typing import Iterable, Sequence

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


def isolate_real_roots(
    P: QPoly, width: Fraction = Fraction(1, 2**20), guesses: Iterable[float] = ()
) -> list[tuple[Fraction, Fraction]]:
    """Disjoint rational intervals, one distinct real root of P in each.

    Multiple roots are removed by dividing out gcd(P, P') first, so a
    simple sign change certifies each non-degenerate interval; a root hit
    exactly is returned as a degenerate [r, r] interval.  Non-degenerate
    intervals are at most ``width`` wide.

    Float ``guesses`` may propose the intervals.  Each proposes the grid
    point c nearest to it on the grid of step width/2: [c, c] when c is a
    root, else [c - width/2, c + width/2], kept when the square-free part
    changes sign across it and the Sturm count on it is 1, and when it is
    disjoint from the intervals kept so far.  The kept intervals hold
    distinct roots, so as many of them as the degree hold every root.
    Otherwise (a bad, missing or non-finite guess, or a root that is not
    real) exact bisection isolates the real roots.
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
    step = width / 2
    kept: list[tuple[Fraction, Fraction]] = []
    for guess in guesses:
        if not isfinite(guess):
            continue
        c = round(Fraction(guess) / step) * step
        if Q(c) == 0:
            iv = (c, c)
        else:
            lo, hi = c - step, c + step
            if Q(lo) * Q(hi) >= 0 or count_roots_between(chain, lo, hi) != 1:
                continue
            iv = (lo, hi)
        if all(iv[1] < a or b < iv[0] for a, b in kept):
            kept.append(iv)
    if len(kept) == Q.degree:
        return sorted(kept)
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


def squarefree_factors(P: QPoly) -> list[tuple[int, QPoly]]:
    """Yun's square-free decomposition: the (i, a_i) with deg a_i >= 1 and
    P = lc(P) prod a_i^i, each a_i monic, square-free and prime to the others,
    so the roots of a_i are exactly the roots of P of multiplicity i."""
    if P.degree < 1:
        return []
    dP = P.derivative()
    g = P.gcd(dP)
    b, c = P.divmod(g)[0], dP.divmod(g)[0]
    d = c - b.derivative()
    out, i = [], 1
    while b.degree >= 1:
        a = b.gcd(d)
        b, c = b.divmod(a)[0], d.divmod(a)[0]
        d = c - b.derivative()
        if a.degree >= 1:
            out.append((i, a))
        i += 1
    return out
