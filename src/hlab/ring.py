"""Truncated graded-commutative polynomial ring over exact rationals.

Everything here is exact: coefficients are `fractions.Fraction`, monomials
are sparse exponent tuples, and any term whose total weight exceeds the
ring's truncation is discarded.  The truncation models the top real
dimension of a compact complex n-fold, so products behave like the cup
product on cohomology with all relations above degree 2n collapsed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import factorial, lcm
from operator import add
from typing import Iterable, Mapping, Sequence, Union

from .record import Record

Scalar = Union[int, Fraction]


class SpecMismatch(ValueError):
    """Raised when two elements from different rings are combined."""


class RingSpec(Record):
    """Generator alphabet and truncation weight of a graded ring.

    ``generators`` is an ordered tuple of ``(name, weight)`` pairs;
    ``truncation`` is the top total weight kept by all arithmetic.
    """

    generators: tuple[tuple[str, int], ...]
    truncation: int

    def __post_init__(self):
        gens = tuple((str(n), int(w)) for n, w in self.generators)
        object.__setattr__(self, "generators", gens)
        names = [n for n, _ in gens]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate generator names in {names}")
        if any(w < 1 for _, w in gens):
            raise ValueError("generator weights must be positive")
        if self.truncation < 1:
            raise ValueError("truncation must be >= 1")

    # cached in the instance __dict__, so equality and hashing still see
    # only the two fields
    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.generators)

    @cached_property
    def weights(self) -> tuple[int, ...]:
        return tuple(w for _, w in self.generators)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown generator {name!r}") from None

    def weight_of(self, exps: Sequence[int]) -> int:
        return sum(e * w for e, w in zip(exps, self.weights))

    def zero(self) -> "GradedElement":
        return GradedElement(self, {})

    def one(self) -> "GradedElement":
        return self.constant(1)

    def constant(self, value: Scalar) -> "GradedElement":
        zero_key = (0,) * len(self.generators)
        return GradedElement(self, {zero_key: Fraction(value)})

    def gen(self, name: str) -> "GradedElement":
        i = self.index(name)
        key = tuple(1 if j == i else 0 for j in range(len(self.generators)))
        return GradedElement(self, {key: Fraction(1)})

    def element(self, terms: Mapping[Sequence[int], Scalar]) -> "GradedElement":
        return GradedElement(self, {tuple(k): Fraction(v) for k, v in terms.items()})

    def monomial_name(self, exps: Sequence[int]) -> str:
        """Canonical printable form of an exponent tuple, e.g. ``c1^2*c2``."""
        parts = []
        for (name, _), e in zip(self.generators, exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"


def _grlex_key(spec: RingSpec, exps: tuple[int, ...]):
    return (spec.weight_of(exps), tuple(-e for e in exps))


class GradedElement:
    """Sparse truncated polynomial over Fraction in a :class:`RingSpec`.

    Values are immutable once constructed; all arithmetic returns fresh
    elements.  Stored terms always satisfy weight <= spec.truncation and
    never carry a zero coefficient.
    """

    __slots__ = ("spec", "terms")

    def __init__(self, spec: RingSpec, terms: Mapping[tuple[int, ...], Fraction]):
        clean = {}
        ngen = len(spec.generators)
        for exps, coeff in terms.items():
            if len(exps) != ngen or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps} for {spec.names}")
            if coeff == 0:
                continue
            if spec.weight_of(exps) <= spec.truncation:
                clean[exps] = Fraction(coeff)
        self.spec = spec
        self.terms = clean

    @classmethod
    def _wrap(cls, spec: RingSpec, terms: dict[tuple[int, ...], Fraction]) -> "GradedElement":
        """Adopt ``terms`` unchecked: arithmetic results already hold only
        nonzero Fractions on valid exponent tuples of weight <= truncation."""
        out = object.__new__(cls)
        out.spec = spec
        out.terms = terms
        return out

    # -- basic queries ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.spec.generators), Fraction(0))

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def graded_component(self, k: int) -> "GradedElement":
        """Sum of the terms of total weight exactly ``k``."""
        if not 0 <= k <= self.spec.truncation:
            raise ValueError(f"component {k} outside [0, {self.spec.truncation}]")
        wt = self.spec.weight_of
        return GradedElement._wrap(self.spec, {e: c for e, c in self.terms.items() if wt(e) == k})

    def is_homogeneous(self, k: int) -> bool:
        return all(self.spec.weight_of(e) == k for e in self.terms)

    # -- arithmetic ------------------------------------------------------

    def _check(self, other: "GradedElement"):
        if self.spec != other.spec:
            raise SpecMismatch(f"ring mismatch: {self.spec} vs {other.spec}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.spec.constant(other)
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            if s is None:
                out[e] = c
                continue
            s += c
            if s:
                out[e] = s
            else:
                del out[e]
        return GradedElement._wrap(self.spec, out)

    __radd__ = __add__

    def __neg__(self):
        return GradedElement._wrap(self.spec, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.spec.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scaled_by_weight(self) -> tuple[int, dict[int, list[tuple[tuple[int, ...], int]]]]:
        """``(d, {w: [(exps, d * coeff), ...]})``: the terms over the lcm d of
        their denominators, as integer numerators bucketed by weight."""
        d = lcm(*(c.denominator for c in self.terms.values()))
        wt = self.spec.weight_of
        buckets: dict[int, list[tuple[tuple[int, ...], int]]] = {}
        for e, c in self.terms.items():
            buckets.setdefault(wt(e), []).append((e, c.numerator * (d // c.denominator)))
        return d, buckets

    def __mul__(self, other):
        """Truncated product, accumulated over the integers.

        Both operands are put over the lcm of their denominators and
        bucketed by weight, so the inner loop multiplies and adds ints, one
        Fraction is built per output term, and a weight pair above the
        truncation is never visited.
        """
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if q == 1:
                return self
            if not q:
                return GradedElement._wrap(self.spec, {})
            return GradedElement._wrap(self.spec, {e: c * q for e, c in self.terms.items()})
        self._check(other)
        d1, left = self.scaled_by_weight()
        d2, right = other.scaled_by_weight()
        trunc = self.spec.truncation
        acc: dict[tuple[int, ...], int] = {}
        get = acc.get
        for w1, terms1 in left.items():
            partners = [bucket for w2, bucket in right.items() if w1 + w2 <= trunc]
            for e1, n1 in terms1:
                for bucket in partners:
                    for e2, n2 in bucket:
                        e = tuple(map(add, e1, e2))
                        acc[e] = get(e, 0) + n1 * n2
        d = d1 * d2
        return GradedElement._wrap(self.spec, {e: Fraction(v, d) for e, v in acc.items() if v})

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)) and other != 0:
            return self * (Fraction(1) / Fraction(other))
        raise TypeError("can only divide by a nonzero rational scalar")

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not defined here")
        out = self.spec.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.spec.constant(other)
        if not isinstance(other, GradedElement):
            return NotImplemented
        return self.spec == other.spec and self.terms == other.terms

    def __hash__(self):
        return hash((self.spec, tuple(sorted(self.terms.items()))))

    # -- printing ----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms in graded-lexicographic order (deterministic printing)."""
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(self.spec, kv[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in self.sorted_terms():
            mono = self.spec.monomial_name(exps)
            if mono == "1":
                text = str(coeff)
            elif coeff == 1:
                text = mono
            elif coeff == -1:
                text = f"-{mono}"
            else:
                text = f"{coeff}*{mono}"
            parts.append(text)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"<GradedElement {self}>"


# -- exp / log ------------------------------------------------------------


def exp(x: GradedElement) -> GradedElement:
    """Finite exponential sum_{k<=n} x^k/k!; x must have zero constant term.

    Terminates because x is nilpotent under truncation.
    """
    if x.constant_term() != 0:
        raise ValueError("exp requires a zero constant term")
    n = x.spec.truncation
    out = x.spec.one()
    power = x.spec.one()
    for k in range(1, n + 1):
        power = power * x
        if power.is_zero():
            break
        out = out + power * Fraction(1, factorial(k))
    return out


def log(u: GradedElement) -> GradedElement:
    """Series log of an element with constant term 1 (inverse of exp)."""
    if u.constant_term() != 1:
        raise ValueError("log requires constant term 1")
    v = u - 1
    n = u.spec.truncation
    out = u.spec.zero()
    power = u.spec.one()
    for k in range(1, n + 1):
        power = power * v
        if power.is_zero():
            break
        out = out + power * Fraction((-1) ** (k + 1), k)
    return out


# -- symmetric-function machinery ------------------------------------------


def power_sums_from_elementary(e: Sequence[GradedElement], n: int) -> list[GradedElement]:
    """Newton's identities: elementary symmetric e_1..e_n -> power sums p_1..p_n.

    p_k = e_1 p_{k-1} - e_2 p_{k-2} + ... + (-1)^{k-1} k e_k.
    """
    if len(e) != n:
        raise ValueError(f"need exactly {n} elementary inputs, got {len(e)}")
    if n == 0:
        return []
    spec = e[0].spec
    for x in e:
        if x.spec != spec:
            raise SpecMismatch("elementary inputs live in different rings")
    p: list[GradedElement] = []
    for k in range(1, n + 1):
        acc = e[k - 1] * ((-1) ** (k - 1) * k)
        for i in range(1, k):
            acc = acc + e[i - 1] * p[k - i - 1] * ((-1) ** (i - 1))
        p.append(acc)
    return p


def elementary_from_power_sums(p: Sequence[GradedElement], n: int) -> list[GradedElement]:
    """Inverse Newton: e_k = (1/k) sum_{i=1..k} (-1)^{i-1} e_{k-i} p_i."""
    if len(p) != n:
        raise ValueError(f"need exactly {n} power sums, got {len(p)}")
    if n == 0:
        return []
    spec = p[0].spec
    e: list[GradedElement] = []
    for k in range(1, n + 1):
        acc = spec.zero()
        for i in range(1, k + 1):
            prev = e[k - i - 1] if k - i >= 1 else spec.one()
            acc = acc + prev * p[i - 1] * ((-1) ** (i - 1))
        e.append(acc * Fraction(1, k))
    return e


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
            for j in range(0, n - i + 1):
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


def genus_product(q: Series, p: Sequence[GradedElement]) -> GradedElement:
    """Evaluate prod_i Q(gamma_i) for a multiplicative factor Q with Q(0) = 1.

    ``p`` are the power sums of the roots gamma_i.  Uses
    prod Q(gamma_i) = exp(sum_k b_k p_k) where log Q = sum b_k t^k,
    which stays symmetric-function exact at every step.
    """
    if q.coeffs[0] != 1:
        raise ValueError("genus factor must have constant term 1")
    if not p:
        raise ValueError("need at least one power sum (the ring carrier)")
    spec = p[0].spec
    b = q.log().coeffs
    acc = spec.zero()
    for k in range(1, min(len(b) - 1, len(p)) + 1):
        if b[k]:
            acc = acc + p[k - 1] * b[k]
    return exp(acc)
