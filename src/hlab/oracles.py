"""Dense and interpolating oracles that ``hlab verify`` and the tests hold
the engine to; no other command loads this module.

The dense one-variable power series (:class:`Series`) and the Todd series
``t/(1 - e^{-t})`` by exact series division (:func:`todd_series`) check
``ring.todd_log``, the closed form behind every Todd class; the ring
``log`` checks ``ring.exp``; the inverse Newton identities
(:func:`elementary_from_power_sums`) check ``ring.power_sums_from_elementary``;
and the tests hold :class:`~hlab.qpoly.QPoly` to Lagrange interpolation
(:func:`poly_from_values`).  ``ring`` and ``qpoly`` forward these names here, for the
benchmark tracer, which wraps them under their old homes.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Iterable, Sequence

from .qpoly import QPoly
from .ring import GradedElement, Scalar, _nilpotent_series, newton_rung

# -- the ring log and the inverse Newton identities ---------------------------


def log(u: GradedElement) -> GradedElement:
    """Series log of an element with constant term 1 (inverse of exp)."""
    if u.constant_term() != 1:
        raise ValueError("log requires constant term 1")
    return _nilpotent_series(u - 1, lambda k: Fraction((-1) ** (k + 1), k) if k else 0)


def elementary_from_power_sums(p: Sequence[GradedElement], n: int) -> list[GradedElement]:
    """Inverse Newton: e_1..e_n from p_1..p_n, one :func:`newton_rung` each."""
    if len(p) != n:
        raise ValueError(f"need exactly {n} power sums, got {len(p)}")
    if n == 0:
        return []
    e = [p[0].spec.one()]
    while len(e) <= n:
        e.append(newton_rung(e, p))
    return e[1:]


# -- one-variable series ----------------------------------------------------


class Series:
    """Dense univariate power series truncated at a fixed degree.

    Coefficient k is the degree-k coefficient; the list always has
    length ``truncation + 1``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar]):
        self.coeffs = tuple(Fraction(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("series needs at least the constant coefficient")

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k]

    def __eq__(self, other):
        return isinstance(other, Series) and self.coeffs == other.coeffs

    def __mul__(self, other: "Series") -> "Series":
        n = min(self.truncation, other.truncation)
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if a == 0:
                continue
            for j in range(n - i + 1):
                out[i + j] += a * other.coeffs[j]
        return Series(out)

    def reciprocal(self) -> "Series":
        if self.coeffs[0] == 0:
            raise ZeroDivisionError("series with zero constant term")
        n = self.truncation
        inv = [Fraction(1) / self.coeffs[0]] + [Fraction(0)] * n
        for k in range(1, n + 1):
            s = sum((self.coeffs[i] * inv[k - i] for i in range(1, k + 1)), Fraction(0))
            inv[k] = -s / self.coeffs[0]
        return Series(inv)

    def log(self) -> "Series":
        """log of a series with constant term 1: the integral of f'/f."""
        if self.coeffs[0] != 1:
            raise ValueError("series log requires constant term 1")
        derivative = Series([k * c for k, c in enumerate(self.coeffs)][1:] or [0])
        g = (derivative * self.reciprocal()).coeffs
        return Series([0] + [g[k - 1] / k for k in range(1, self.truncation + 1)])

    def __str__(self):
        return " + ".join(f"{c}*t^{k}" for k, c in enumerate(self.coeffs) if c != 0) or "0"


def todd_series(n: int) -> Series:
    """Coefficients of t/(1 - e^{-t}) up to degree n, by exact series division.

    The Bernoulli numbers fall out of the division; they are cross-checked
    in the tests rather than tabulated here.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    # (1 - e^{-t})/t = sum_{k>=0} (-1)^k t^k/(k+1)!
    denom = Series([Fraction((-1) ** k, factorial(k + 1)) for k in range(n + 1)])
    return denom.reciprocal()


# -- interpolation -----------------------------------------------------------


def poly_from_values(values: Sequence[tuple[Scalar, Scalar]], var: str = "m") -> QPoly:
    """Lagrange interpolation through exact points (for test oracles)."""
    out = QPoly([], var)
    pts = [(Fraction(x), Fraction(y)) for x, y in values]
    for i, (xi, yi) in enumerate(pts):
        num = QPoly([yi], var)
        for j, (xj, _) in enumerate(pts):
            if i == j:
                continue
            num = num * QPoly([-xj, 1], var) * (Fraction(1) / (xi - xj))
        out = out + num
    return out
