"""Numerical-polynomial toolkit and Euler-characteristic bound evaluators.

Forward differences, the two constructive lemmas about integer-valued
polynomials, the real roots of P(m) = chi_p (Sturm counts and exact
bisection), and the closed-form lower bounds on (-1)^n chi(X) driven by a
curvature constant K, the commutator norm C and the dimensional constant
c_n.  Everything is exact rational arithmetic except the two square roots
in the primitive-bound interval, which are certified decimal enclosures.

Next to the evaluators sit the one source rule for their inputs, every
one of n, p, K, C, c_n and the data of X and L (:func:`bound_input`:
derived from a document's ring, manifold and line bundle, or read from
its ``bounds`` section, and checked to agree when given both ways), the
``--which`` dispatch of ``hlab bounds`` (:func:`bounds_results`) and its
handler (:func:`run_command`).  So only a ``bounds`` job compiles them.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from math import ceil, factorial, floor, isqrt, lcm
from typing import TYPE_CHECKING, Optional, Sequence, Union

from .errors import DocumentError
from .qpoly import QPoly, is_integer_valued
from .record import Interval, Record

if TYPE_CHECKING:
    from .inputdoc import InputDocument

Scalar = Union[int, Fraction]


def sqrt_enclosure(x: Scalar, eps: Fraction = Fraction(1, 10**12)) -> tuple[Fraction, Fraction]:
    """Rational (lo, hi) with lo^2 <= x <= hi^2 and hi - lo <= eps.

    Exact (degenerate) when x is the square of a rational.
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError("square root of a negative rational")
    num, den = x.numerator, x.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        root = Fraction(rn, rd)
        return root, root
    scale = max(1, ceil(Fraction(1) / (den * eps)))
    lo_int = isqrt(num * den * scale * scale)
    return Fraction(lo_int, den * scale), Fraction(lo_int + 1, den * scale)


# -- numerical polynomials -----------------------------------------------------


def forward_difference(P: QPoly, order: int = 1) -> QPoly:
    """Iterated difference Delta P(m) = P(m+1) - P(m)."""
    if order < 0:
        raise ValueError("difference order must be nonnegative")
    out = P
    for _ in range(order):
        out = out.shift(1) - out
    return out


def lemma44_search(P: QPoly, m0: int, k: int) -> int:
    """Least m in [m0, m0+kn] with P(m) >= a_n k^n / 2^{n-1}.

    P must have degree n >= 1 with n! times the leading coefficient a
    positive integer, and be nonnegative at the scanned integers (this is
    spot-checked; the caller asserts nonnegativity beyond the window).
    """
    n = P.degree
    if n < 1:
        raise ValueError("polynomial must be non-constant")
    if k < 0:
        raise ValueError("k must be a natural number")
    a_n = P.leading() * factorial(n)
    if a_n.denominator != 1 or a_n <= 0:
        raise ValueError(f"n! * leading coefficient = {a_n} is not a positive integer")
    window = range(m0, m0 + k * n + 1)
    values = {m: P(m) for m in window}
    bad = next((m for m, v in values.items() if v < 0), None)
    if bad is not None:
        raise ValueError(f"P({bad}) = {values[bad]} < 0 violates the nonnegativity hypothesis")
    target = a_n * Fraction(k) ** n / Fraction(2) ** (n - 1)
    for m in window:
        if values[m] >= target:
            return m
    raise ValueError("no qualifying integer found; the lemma's hypotheses must be violated")


def lemma42_search(P: QPoly, candidates: Sequence[int], Lval: int) -> int:
    """Some integer i in the list with |P(i)| >= Lval.

    P must be a non-constant integer-valued polynomial.  |P| <= Lval - 1
    admits at most deg(P) solutions per attained integer value, hence at
    most deg(P)(2 Lval - 1) in total, so any list of deg(P)(2 Lval - 1) + 1
    distinct integers guarantees a hit (a list sized to the looser
    2 deg(P) Lval + 1 passes a fortiori).  The first qualifying candidate
    in list order is returned.  A ``range`` holds distinct integers, so it
    is counted and scanned without being stored.
    """
    n = P.degree
    if n < 1:
        raise ValueError("polynomial must be non-constant")
    if Lval < 1:
        raise ValueError("the target bound must be a positive integer")
    if not is_integer_valued(P):
        raise ValueError("lemma applies to integer-valued polynomials only")
    distinct = len(candidates if isinstance(candidates, range) else set(candidates))
    needed = n * (2 * Lval - 1) + 1
    if distinct < needed:
        raise ValueError(f"need at least {needed} distinct candidates, got {distinct}")
    for m in candidates:
        if abs(P(m)) >= Lval:
            return m
    raise ValueError("no qualifying integer found; preconditions must be violated")


# -- real roots ----------------------------------------------------------------


def sturm_chain(P: QPoly) -> list[QPoly]:
    chain = [P, P.derivative()]
    while chain[-1].degree > 0:
        chain.append(-chain[-2].divmod(chain[-1])[1])
    if chain[-1].is_zero():
        chain.pop()
    return chain


def _integral(P: QPoly) -> tuple[int, ...]:
    """The coefficients of P times the lcm of their denominators: integers."""
    d = lcm(*(c.denominator for c in P.coeffs))
    return tuple(c.numerator * (d // c.denominator) for c in P.coeffs)


def _sign_at(coeffs: Sequence[int], x: Fraction) -> int:
    """sign P(p/q), q > 0, from P's integer c_i: that of sum c_i p^i q^(d-i)."""
    p, q = x.numerator, x.denominator
    acc, qk = 0, 1
    for c in reversed(coeffs):
        acc = acc * p + c * qk
        qk *= q
    return _sign(acc)


def _variations(chain: Sequence[Sequence[int]], x: Fraction) -> int:
    signs = [s for c in chain if (s := _sign_at(c, x))]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def count_roots_between(chain: Sequence[QPoly], a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots in (a, b]; endpoints must not be roots."""
    chain = [_integral(P) for P in chain]
    return _variations(chain, a) - _variations(chain, b)


def cauchy_bound(P: QPoly) -> Fraction:
    """All roots satisfy |z| < 1 + max |a_i| / |a_deg|."""
    return 1 + max((abs(c) for c in P.coeffs[:-1]), default=0) / abs(P.leading())


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
    chain = [_integral(S) for S in sturm_chain(Q)]
    q = chain[0]

    def count(a, b):
        return _variations(chain, a) - _variations(chain, b)

    B = cauchy_bound(Q)
    out: list[tuple[Fraction, Fraction]] = []
    work = [(-B, B, count(-B, B))]
    while work:
        a, b, cnt = work.pop()
        if cnt == 0:
            continue
        if cnt == 1 and b - a <= width:
            out.append((a, b))
            continue
        mid = (a + b) / 2
        sign = _sign_at(q, mid)
        if not sign:
            out.append((mid, mid))
            if cnt == 1:
                continue
            # carve out a punctured neighbourhood holding only this root
            delta = (b - a) / 4
            while True:
                lo, hi = mid - delta, mid + delta
                if _sign_at(q, lo) and _sign_at(q, hi) and count(lo, hi) == 1:
                    break
                delta /= 2
            left = count(a, lo)
            work += [(a, lo, left), (hi, b, cnt - 1 - left)]
        elif cnt == 1:
            # Q is square-free, so it changes sign at its one root in (a, b)
            # and neither end is a root: the root lies left of a non-root
            # midpoint exactly when Q there differs in sign from Q(a)
            work.append((a, mid, 1) if sign != _sign_at(q, a) else (mid, b, 1))
        else:
            left = count(a, mid)
            work += [(a, mid, left), (mid, b, cnt - left)]
    out.sort()
    return out


class RootReport(Record):
    """Isolating intervals and certified magnitude bounds for real roots."""

    intervals: tuple[tuple[Fraction, Fraction], ...]
    m_p: Fraction
    c_plus: Fraction
    c_minus: Fraction


def root_report(P: QPoly, chi_p: Scalar = 0) -> RootReport:
    """Analyse the real solutions of P(m) = chi_p.

    ``m_p`` is a certified upper bound on the largest |root|; ``c_plus``
    and ``c_minus`` bound the largest positive root and the largest
    |negative root|.  All three are 0 when the corresponding root set is
    empty.  No interval straddles 0, so each root is counted on its own
    side: the bisection of :func:`isolate_real_roots` first cuts the
    Cauchy bracket (-B, B), B >= 1, at its midpoint 0.
    """
    shifted = P - chi_p
    if shifted.is_zero():
        raise ValueError("P - chi_p is identically zero; the root set is all of R")
    intervals = isolate_real_roots(shifted)
    m_p = c_plus = c_minus = Fraction(0)
    for lo, hi in intervals:
        m_p = max(m_p, abs(lo), abs(hi))
        if lo >= 0 and hi > 0:
            c_plus = max(c_plus, hi)
        elif hi <= 0 and lo < 0:
            c_minus = max(c_minus, abs(lo))
    return RootReport(tuple(intervals), m_p, c_plus, c_minus)


# -- theorem evaluators ---------------------------------------------------------


class BoundsInput(Record):
    """The hypotheses shared by the Euler-characteristic bound evaluators.

    n is the dimension, K the curvature scale (sec <= -K), C the commutator
    norm and c_n the paper-level dimensional constant (always user-supplied).
    Data of X and L (a_n, chi^p(X), a p-Hilbert polynomial) are arguments of
    the evaluators that read them.
    """

    n: int
    K: Fraction
    C: Fraction
    c_n: Fraction

    def __post_init__(self):
        object.__setattr__(self, "K", Fraction(self.K))
        object.__setattr__(self, "C", Fraction(self.C))
        object.__setattr__(self, "c_n", Fraction(self.c_n))
        if self.n < 1:
            raise ValueError("dimension must be positive")
        if self.K <= 0:
            raise ValueError("K must be positive")
        if self.c_n <= 0:
            raise ValueError("c_n must be positive")
        if self.C < 0:
            raise ValueError("C must be nonnegative")
        if self.C == 0:
            raise ValueError("C = 0 makes the bound undefined (a non-flat line bundle has C > 0)")


def bound_T4(b: BoundsInput) -> int:
    """(n+1) + floor(c_n K / (2 n C)), the basic Euler-characteristic bound
    (-1)^n chi(X) >= (n+1) + floor(c_n K / (2nC)) of the paper's abstract.
    With N = floor(c_n K / (n C)) of :func:`t4_chain`, whose proof step
    comes before the factor 2 enters, it is n + 1 + N // 2."""
    return b.n + 1 + floor(b.c_n * b.K / (2 * b.n * b.C))


def bound_T2(b: BoundsInput, c1sq_L: Scalar) -> Fraction:
    """Surface bound 3 + |int c_1^2(L)| floor(c_n K / C)^2; requires n = 2."""
    if b.n != 2:
        raise ValueError("this bound is specific to surfaces (n = 2)")
    f = floor(b.c_n * b.K / b.C)
    return 3 + abs(Fraction(c1sq_L)) * Fraction(f) ** 2


def bound_T5(b: BoundsInput, a_n: Scalar, m_p: Scalar) -> Fraction:
    """Root-aware bound max(n+1, n+1 + 2|a_n| sign(..) |floor(..)|^n), with
    a_n = int c_1^n(L)."""
    if a_n == 0:
        warnings.warn("a_n = 0: Hilbert polynomial degenerates, returning n + 1")
        return Fraction(b.n + 1)
    x = b.c_n * b.K - b.C * Fraction(m_p)
    s = _sign(floor(x))
    inner = abs(floor(x / (2 * b.C * b.n)))
    value = b.n + 1 + 2 * abs(Fraction(a_n)) * s * Fraction(inner) ** b.n
    return max(Fraction(b.n + 1), value)


def bound_C1(b: BoundsInput, a_n: Scalar, C_pm: Scalar) -> Fraction:
    """Signed-root bound 2|a_n| |floor((c_n K - C C^pm)/(2Cn))|^n + 1, with
    a_n = int c_1^n(L)."""
    C_pm = Fraction(C_pm)
    if b.c_n * b.K < b.C * C_pm:
        raise ValueError("hypothesis c_n K >= C C^pm is violated")
    if a_n == 0:
        warnings.warn("a_n = 0: Hilbert polynomial degenerates, returning 1")
        return Fraction(1)
    inner = abs(floor((b.c_n * b.K - b.C * C_pm) / (2 * b.C * b.n)))
    return 2 * abs(Fraction(a_n)) * Fraction(inner) ** b.n + 1


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def e_theta_interval(b: BoundsInput, chi: int) -> tuple[Interval, Interval]:
    """Certified enclosures of the primitive-norm bracket for E(theta).

    Returns (lower, upper) enclosing
    sqrt(c_n / (n C ((-1)^n chi - n)))  and  sqrt(n) K^{-1/2},
    each at most 10^-12 wide (:func:`sqrt_enclosure`'s default).
    """
    signed = (-1) ** b.n * chi
    if signed <= b.n:
        raise ValueError(f"(-1)^n chi = {signed} must exceed n = {b.n}")
    lower = Interval(*sqrt_enclosure(b.c_n / (b.n * b.C * (signed - b.n))))
    upper = Interval(*sqrt_enclosure(Fraction(b.n) / b.K))
    if lower.lo > upper.hi:
        raise ValueError(
            "certified lower endpoint exceeds the upper endpoint: "
            "the input data cannot satisfy the theorem's hypotheses"
        )
    return lower, upper


class T4ChainReport(Record):
    """Trace of the floor(c_n K / nC) pipeline on a p-Hilbert polynomial."""

    p: int
    N: int
    m_tilde: Optional[int]
    delta: Optional[Fraction]
    branch: str
    bound: int


def t4_chain(b: BoundsInput, P: QPoly, chi_p: Scalar, p: int) -> T4ChainReport:
    """Reproduce the proof pipeline: N = floor(c_n K/(nC)), scan |m| <= nN.

    P is the p-Hilbert polynomial and chi_p the value chi^p(X).  Finds an
    integer m with |P(m) - chi_p| >= N and reports which Euler
    characteristic, untwisted ("chi_p") or twisted by L^m
    ("chi_p_twisted"), is certified to be at least N + 1 in absolute value
    with the sign (-1)^{n-p}.
    """
    if not 0 <= p <= b.n:
        raise ValueError(f"p = {p} is outside [0, {b.n}]")
    if P.degree < 1:
        raise ValueError("the p-Hilbert polynomial must be non-constant")
    if P.degree > b.n:
        raise ValueError("polynomial degree exceeds the dimension")
    N = floor(b.c_n * b.K / (b.n * b.C))
    if N <= 0:
        return T4ChainReport(p, max(N, 0), None, None, "degenerate", 1)
    shifted = P - chi_p
    m_tilde = lemma42_search(shifted, range(-b.n * N, b.n * N + 1), N)
    delta = shifted(m_tilde)
    s = Fraction((-1) ** (b.n - p + 1)) * delta
    branch = "chi_p" if s >= N else "chi_p_twisted"
    return T4ChainReport(p, N, m_tilde, delta, branch, N + 1)


# -- the bounds command ----------------------------------------------------------


def bound_input(doc: InputDocument, key: str):
    """One bound input of a document, by the one source rule: derived when
    the document has the sections it comes from, read from ``bounds.<key>``
    otherwise; given both ways, the two must agree.  n comes from the ring,
    chi^p(X) from the manifold, chi from chi^p got either way, and a_n,
    c1sq_L and the bounds.p-Hilbert polynomial (``hilbert``) from the
    manifold and line bundle.  K, C and c_n are only ever given, and p, a
    form degree in [0, n], is 0 unless given."""
    section, x, line = doc.require("bounds"), doc.manifold, doc.line_bundle
    if x is not None:  # every derivation from X runs in genus, loaded when X was read
        from . import genus
    given, path, derived = section.get(key), f"bounds.{key}", None
    if key == "p":
        from .inputdoc import in_range

        return in_range(section.get(key, 0), bound_input(doc, "n"), path)
    if key == "hilbert":
        p = bound_input(doc, "p")
        given, path = (given or {}).get(p), f"{path}.{p}"
    if key == "n" and doc.spec is not None:
        derived = doc.spec.truncation
    elif key == "chi" and (x is not None or "chi_p" in section):
        derived = sum((-1) ** p * v for p, v in enumerate(bound_input(doc, "chi_p")))
    elif key == "chi_p" and x is not None:  # X's own, whatever the bundle section says; chi_y checks integrality
        derived = tuple(map(int, genus.chi_y(x, genus.BundleData.trivial()).padded(x.n + 1)))
    elif key == "hilbert" and x is not None and line is not None:
        derived = genus.hilbert_polynomial(x, line, p)
    elif key in ("a_n", "c1sq_L") and x is not None and line is not None:
        c1 = line.chern[0] if line.chern else x.spec.zero()
        derived = genus.integrate(c1 ** x.n if key == "a_n" else c1 * c1, x.fclass)
    if derived is None:
        if given is None:
            source = "" if key in ("K", "C", "c_n") else ", or the document sections to derive it from"
            raise DocumentError(f"this bound needs {path}{source}")
        if key == "chi_p" and len(given) != (count := bound_input(doc, "n") + 1):
            raise DocumentError(f"{path} must list chi^0 .. chi^n: {count} values, not {len(given)}")
        if key == "hilbert" and (given.degree > (n := bound_input(doc, "n")) or not is_integer_valued(given)):
            raise DocumentError(f"{path} = {given} is not an integer-valued polynomial of degree <= n = {n}")
        return given
    if given is not None and given != derived:
        raise DocumentError(f"{path} = {given} disagrees with {derived}, derived from the rest of the document")
    return derived


def run_command(args) -> tuple[dict, dict]:
    """``hlab bounds --which W``: the document's tree and the chosen bound."""
    from .inputdoc import load_input

    doc = load_input(args.input)
    return doc.raw, bounds_results(doc, args.which)


def bounds_results(doc: InputDocument, which: str) -> dict:
    """``hlab bounds --which W``: the chosen bound and the inputs it read.
    The hypotheses on n, K, C and c_n are checked first, then bounds.p, then
    the data of X and L that the chosen bound reads."""
    b, p = doc.bounds_input(), bound_input(doc, "p")
    if which == "t4":
        return {"bound_T4": bound_T4(b)}
    if which == "t2":
        c1sq = bound_input(doc, "c1sq_L")
        return {"c1sq_L": c1sq, "bound_T2": bound_T2(b, c1sq)}
    if which == "etheta":
        chi = Fraction(bound_input(doc, "chi"))
        lower, upper = e_theta_interval(b, int(chi))
        return {"chi": chi, "E_theta_lower_enclosure": lower, "E_theta_upper_enclosure": upper}
    if which == "t4chain":
        chi_p = bound_input(doc, "chi_p")
        return dict(vars(t4_chain(b, bound_input(doc, "hilbert"), chi_p[p], p)))  # its fields, in order
    a_n, chi_p = bound_input(doc, "a_n"), bound_input(doc, "chi_p")
    rr = root_report(bound_input(doc, "hilbert"), chi_p[p])
    if which == "t5":
        return {"m_p": rr.m_p, "bound_T5": bound_T5(b, a_n, rr.m_p)}
    plus, minus = bound_C1(b, a_n, rr.c_plus), bound_C1(b, a_n, rr.c_minus)
    return {"C_plus": rr.c_plus, "C_minus": rr.c_minus, "bound_C1_plus": plus, "bound_C1_minus": minus}
