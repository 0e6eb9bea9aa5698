"""Exact univariate polynomials over the rationals.

Used for chi_y genus polynomials (variable ``y``) and Hilbert polynomials
in the tensor power (variable ``m``), whose real roots ``bounds``
isolates.  Coefficients are `fractions.Fraction`; trailing zeros are
trimmed so equality is equality of functions.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]


class QPoly:
    """Polynomial with Fraction coefficients, index = degree."""

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs: Iterable[Scalar], var: str = "m"):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)
        self.var = var

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def padded(self, length: int) -> list[Fraction]:
        out = list(self.coeffs) + [Fraction(0)] * (length - len(self.coeffs))
        return out[:length]

    def __call__(self, x: Scalar) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QPoly([other], self.var)
        n = max(len(self.coeffs), len(other.coeffs))
        return QPoly(
            [self.coefficient(i) + other.coefficient(i) for i in range(n)], self.var
        )

    __radd__ = __add__

    def __neg__(self):
        return QPoly([-c for c in self.coeffs], self.var)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QPoly([c * Fraction(other) for c in self.coeffs], self.var)
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return QPoly(out, self.var)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QPoly([other])
        if not isinstance(other, QPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def divmod(self, other: "QPoly") -> tuple["QPoly", "QPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        d, lc = other.degree, other.leading()
        q = [Fraction(0)] * max(0, self.degree - d + 1)
        r = list(self.coeffs)
        for k in reversed(range(len(q))):
            f = q[k] = r[k + d] / lc
            for i, b in enumerate(other.coeffs):
                r[k + i] -= f * b
        return QPoly(q, self.var), QPoly(r[:d], self.var)

    def derivative(self) -> "QPoly":
        return QPoly([i * c for i, c in enumerate(self.coeffs)][1:], self.var)

    def shift(self, a: Scalar) -> "QPoly":
        """Taylor shift: returns P(x + a)."""
        a = Fraction(a)
        out = [Fraction(0)] * len(self.coeffs)
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            # (x + a)^k expanded by binomials
            ak = Fraction(1)
            for j in range(k, -1, -1):
                out[j] += c * comb(k, k - j) * ak
                ak *= a
        return QPoly(out, self.var)

    def monic(self) -> "QPoly":
        if self.is_zero():
            return self
        lc = self.leading()
        return QPoly([c / lc for c in self.coeffs], self.var)

    def gcd(self, other: "QPoly") -> "QPoly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic()

    def squarefree_part(self) -> "QPoly":
        """Divide out repeated factors (gcd with the derivative)."""
        g = self.gcd(self.derivative())
        if g.degree < 1:
            return self
        return self.divmod(g)[0]

    # -- printing ----------------------------------------------------------

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                body = _coeff_str(c, alone=True)
            else:
                mono = self.var if k == 1 else f"{self.var}^{k}"
                if c == 1:
                    body = mono
                elif c == -1:
                    body = f"-{mono}"
                else:
                    body = f"{_coeff_str(c)}{mono}"
            parts.append(body)
        return " + ".join(parts).replace(" + -", " - ")

    def __repr__(self):
        return f"<QPoly {self}>"


def _coeff_str(c: Fraction, alone: bool = False) -> str:
    return str(c) if alone or c.denominator == 1 else f"({c})"


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


def is_integer_valued(P: QPoly) -> bool:
    """Exact test: all forward differences at 0 are integers."""
    values = [P(m) for m in range(P.degree + 2)]
    while values:
        if values[0].denominator != 1:
            return False
        values = [b - a for a, b in zip(values, values[1:])]
    return True
