"""Exact Gaussian rationals Q(i): the scalars of Hermitian curvature and of
the operator engine's matrices.

Apart from the engines that use them, so reading a Hermitian curvature or
taking its line-bundle norm loads no operator engine.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Union

Scalar = Union[int, Fraction]


class CQ:
    """Exact complex rational (a + b i) / d over the Gaussian integers.

    a, b, d are ints with d > 0 and gcd(a, b, d) = 1, a canonical form, so
    equality compares fields.  Arithmetic takes a gcd only when d != 1; the
    entries of L, Lambda and star and all their products have d = 1.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re: Scalar = 0, im: Scalar = 0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
        else:
            re, im = Fraction(re), Fraction(im)
            # with d the lcm of the reduced denominators, gcd(a, b, d) = 1
            d = self.d = lcm(re.denominator, im.denominator)
            self.a = re.numerator * (d // re.denominator)
            self.b = im.numerator * (d // im.denominator)

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __add__(self, other):
        o = _as_cq(other)
        if self.d == 1 == o.d:
            return _cq(self.a + o.a, self.b + o.b, 1)
        return _reduced(self.a * o.d + o.a * self.d, self.b * o.d + o.b * self.d, self.d * o.d)

    __radd__ = __add__

    def __neg__(self):
        return _cq(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + -_as_cq(other)

    def __rsub__(self, other):
        return _as_cq(other) - self

    def __mul__(self, other):
        o = _as_cq(other)
        a, b = self.a * o.a - self.b * o.b, self.a * o.b + self.b * o.a
        if self.d == 1 == o.d:
            return _cq(a, b, 1)
        return _reduced(a, b, self.d * o.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _as_cq(other)
        norm = o.a * o.a + o.b * o.b
        if not norm:
            raise ZeroDivisionError("complex division by zero")
        # (a + b i) o.d (o.a - o.b i) / (d |o.a + o.b i|^2)
        return _reduced(
            (self.a * o.a + self.b * o.b) * o.d, (self.b * o.a - self.a * o.b) * o.d, self.d * norm
        )

    def conj(self) -> "CQ":
        return _cq(self.a, -self.b, self.d)

    def abs2(self) -> Fraction:
        return Fraction(self.a * self.a + self.b * self.b, self.d * self.d)

    def __bool__(self):
        return bool(self.a or self.b)

    def __eq__(self, other):
        if isinstance(other, CQ):
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, (int, Fraction)):
            return not self.b and self.a == other.numerator and self.d == other.denominator
        return NotImplemented

    def __hash__(self):
        # a real value hashes like the int or Fraction it equals
        if not self.b:
            return hash(self.a if self.d == 1 else Fraction(self.a, self.d))
        return hash((self.a, self.b, self.d))

    def __repr__(self):
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{abs(im)}i"


def _as_cq(x) -> CQ:
    if isinstance(x, CQ):
        return x
    if isinstance(x, (int, Fraction)):
        return CQ(x)
    raise TypeError(f"cannot coerce {x!r} to a complex rational")


def _cq(a: int, b: int, d: int) -> CQ:
    """(a + b i) / d, already in canonical form."""
    z = object.__new__(CQ)
    z.a, z.b, z.d = a, b, d
    return z


def _reduced(a: int, b: int, d: int) -> CQ:
    """(a + b i) / d for d > 0, brought to canonical form."""
    g = gcd(a, b, d)
    return _cq(a // g, b // g, d // g)


CQ_ZERO = CQ(0)
CQ_ONE = CQ(1)
CQ_I = CQ(0, 1)
