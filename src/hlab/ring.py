"""Truncated graded-commutative polynomial ring over exact rationals.

Everything here is exact: coefficients are integers over one common
denominator, monomials are sparse exponent tuples, and any term whose total
weight exceeds the ring's truncation is discarded.  The truncation models
the top real dimension of a compact complex n-fold, so products behave like
the cup product on cohomology with all relations above degree 2n collapsed.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import cached_property
from math import factorial, gcd, lcm
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
        return _canonical(self, {}, 1)

    def one(self) -> "GradedElement":
        return self.constant(1)

    def constant(self, value: Scalar) -> "GradedElement":
        q = Fraction(value)
        return _canonical(self, {0: {(0,) * len(self.generators): q.numerator}} if q else {}, q.denominator)

    def gen(self, name: str) -> "GradedElement":
        i = self.index(name)
        return self.element({tuple(int(j == i) for j in range(len(self.generators))): 1})

    def element(self, terms: Mapping[Sequence[int], Scalar]) -> "GradedElement":
        """The element sum c * x^exps over ``terms``; terms above the
        truncation are dropped."""
        monomials = []
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != len(self.generators) or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps} for {self.names}")
            c, w = Fraction(coeff), self.weight_of(exps)
            monomials.append(({w: {exps: c.numerator}} if c and w <= self.truncation else {}, 1, c.denominator))
        return _sum(self, monomials)

    def monomial_name(self, exps: Sequence[int]) -> str:
        """Canonical printable form of an exponent tuple, e.g. ``c1^2*c2``."""
        parts = []
        for (name, _), e in zip(self.generators, exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    # the generators that an expression can name: ASCII identifiers
    @cached_property
    def _ascii_index(self) -> dict[str, int]:
        return {n: i for i, n in enumerate(self.names) if n.isascii() and n.isidentifier()}

    def read_monomial(self, text: str) -> tuple[int, ...] | None:
        """The inverse of :meth:`monomial_name`: the exponent tuple of "1" or
        of ``name`` and ``name^k`` factors joined by "*" (each generator at
        most once, k of one to three digits with no leading 0), if its
        weight is at most the truncation; None for any other text."""
        exps = [0] * len(self.generators)
        for factor in [] if text == "1" else text.split("*"):
            name, caret, power = factor.partition("^")
            i, k = self._ascii_index.get(name), _numeral(power) if caret else 1
            # k < 1000 stays under the parser's coefficient-bit cap on a power
            if i is None or exps[i] or not k or power[:1] == "0" or len(power) > 3:
                return None
            exps[i] = k
        return tuple(exps) if self.weight_of(exps) <= self.truncation else None

    def read_element(self, text: str) -> GradedElement | None:
        """The inverse of ``str`` on elements: terms ``c*m``, ``m`` or ``c``
        (c an integer or p/q with q nonzero, m a monomial that
        :meth:`read_monomial` reads) joined by " + " and " - ", the first
        term maybe led by "-"; None for any other text, which is left to
        the expression parser."""
        words, terms = ("- " + text[1:] if text[:1] == "-" else "+ " + text).split(" "), []
        if len(words) % 2 or not {*words[::2]} <= {"+", "-"}:
            return None
        for op, term in zip(words[::2], words[1::2]):
            head, star, mono = term.partition("*")
            num, slash, den = head.partition("/")
            a, d = _numeral(num), _numeral(den) if slash else 1
            if a is None:  # no coefficient
                a, d, mono = 1, 1, term
            elif not star:  # a constant
                mono = "1"
            if not d or (exps := self.read_monomial(mono)) is None:
                return None
            terms.append(({self.weight_of(exps): {exps: a}} if a else {}, 1 if op == "+" else -1, d))
        return _sum(self, terms)


def _numeral(text: str) -> int | None:
    """The value of a run of ASCII digits shorter than the least digit limit
    the interpreter admits (``sys.int_info.str_digits_check_threshold``, 640),
    or None."""
    short = len(text) < sys.int_info.str_digits_check_threshold
    return int(text) if short and text.isascii() and text.isdigit() else None


def _canonical(spec: RingSpec, parts: dict[int, dict[tuple[int, ...], int]], den: int) -> "GradedElement":
    """``parts / den`` (no zero numerator, no empty part, den > 0), reduced."""
    g = gcd(den, *(v for part in parts.values() for v in part.values()))
    if g > 1:
        parts = {w: {e: v // g for e, v in part.items()} for w, part in parts.items()}
    out = object.__new__(GradedElement)
    out.spec, out.parts, out.den = spec, parts, den // g
    return out


def _sum(spec: RingSpec, terms: Sequence) -> "GradedElement":
    """The sum of ``(parts, a, d)`` triples, each worth ``a * parts / d``:
    merged over the lcm of the denominators, zeros dropped, reduced once.
    The one sum kernel: :meth:`RingSpec.element`, :meth:`RingSpec.read_element`
    and :func:`linear_combination` (so ``+``) end here."""
    den, acc = lcm(*(d for _, _, d in terms)), {}
    for parts, a, d in terms:
        if not (s := a * (den // d)):
            continue
        for w, part in parts.items():
            if w not in acc:
                acc[w] = {e: v * s for e, v in part.items()}
                continue
            out = acc[w]
            for e, v in part.items():
                if v := out.get(e, 0) + v * s:
                    out[e] = v
                else:
                    del out[e]
    return _canonical(spec, {w: out for w, out in acc.items() if out}, den)


def linear_combination(spec: RingSpec, terms: Iterable) -> "GradedElement":
    """sum c * x over ``(x, c)`` pairs, each c an int or a Fraction: one merge
    over one denominator and one reduction, where a chain of ``+`` merges
    and reduces the running total at every step."""
    triples = []
    for x, c in terms:
        if x.spec is not spec and x.spec != spec:
            raise SpecMismatch(f"ring mismatch: {spec} vs {x.spec}")
        triples.append((x.parts, c.numerator, x.den * c.denominator))
    return _sum(spec, triples)


class GradedElement:
    """Sparse truncated polynomial over Q in a :class:`RingSpec`.

    ``parts[w]`` maps each exponent tuple of weight w <= spec.truncation to
    a nonzero integer numerator over ``den`` > 0, with gcd 1: one form per
    value.  The class has no constructor of its own and no subclass: its
    ring makes it (``RingSpec.element``, ``zero``, ``one``, ``constant``,
    ``gen``).  Outside this module only ``genus``'s pairing reads ``parts``
    and ``den``.
    Values are immutable; all arithmetic returns fresh elements.
    """

    @cached_property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        """``{exps: coefficient}``, each coefficient a nonzero Fraction."""
        return {e: Fraction(v, self.den) for part in self.parts.values() for e, v in part.items()}

    # -- basic queries ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.parts

    def constant_term(self) -> Fraction:
        # generators weigh >= 1: weight 0 holds the constant alone
        return Fraction(sum(self.parts.get(0, {}).values()), self.den)

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def graded_component(self, k: int) -> "GradedElement":
        """Sum of the terms of total weight exactly ``k``."""
        if not 0 <= k <= self.spec.truncation:
            raise ValueError(f"component {k} outside [0, {self.spec.truncation}]")
        return _canonical(self.spec, {k: self.parts[k]} if k in self.parts else {}, self.den)

    def is_homogeneous(self, k: int) -> bool:
        return self.parts.keys() <= {k}

    # -- arithmetic ------------------------------------------------------

    def _check(self, other: "GradedElement"):
        if self.spec is not other.spec and self.spec != other.spec:
            raise SpecMismatch(f"ring mismatch: {self.spec} vs {other.spec}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.spec.constant(other)
        return linear_combination(self.spec, ((self, 1), (other, 1)))

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Truncated product over the integers: only weight pairs w1 + w2 <=
        truncation are visited, each writing into part w1 + w2."""
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if q == 1:
                return self
            a = q.numerator
            parts = {w: {e: v * a for e, v in part.items()} for w, part in self.parts.items()} if a else {}
            return _canonical(self.spec, parts, self.den * q.denominator)
        self._check(other)
        trunc = self.spec.truncation
        right = other.parts.items()
        acc: dict[int, dict[tuple[int, ...], int]] = {}
        for w1, part1 in self.parts.items():
            for w2, part2 in right:
                if w1 + w2 <= trunc:
                    out = acc.setdefault(w1 + w2, {})
                    get = out.get
                    for e1, n1 in part1.items():
                        for e2, n2 in part2.items():
                            e = tuple(map(add, e1, e2))
                            out[e] = get(e, 0) + n1 * n2
        parts = {w: p for w, out in acc.items() if (p := {e: v for e, v in out.items() if v})}
        return _canonical(self.spec, parts, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)) and other != 0:
            return self * (1 / Fraction(other))
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
        return self.spec == other.spec and self.den == other.den and self.parts == other.parts

    def __hash__(self):
        return hash((self.spec, tuple(sorted(self.terms.items()))))

    # -- printing ----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms in graded-lexicographic order (deterministic printing)."""
        terms, parts = self.terms, self.parts
        return [(e, terms[e]) for w in sorted(parts) for e in sorted(parts[w], reverse=True)]

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
        return parts[0] + "".join(f" - {p[1:]}" if p.startswith("-") else f" + {p}" for p in parts[1:])

    def __repr__(self):
        return f"<GradedElement {self}>"


# -- exp / log ------------------------------------------------------------


def exp(x: GradedElement) -> GradedElement:
    """Finite exponential sum_{k<=n} x^k/k!; x must have zero constant term."""
    if x.constant_term() != 0:
        raise ValueError("exp requires a zero constant term")
    return _nilpotent_series(x, lambda k: Fraction(1, factorial(k)))


def log(u: GradedElement) -> GradedElement:
    """Series log of an element with constant term 1 (inverse of exp)."""
    if u.constant_term() != 1:
        raise ValueError("log requires constant term 1")
    return _nilpotent_series(u - 1, lambda k: Fraction((-1) ** (k + 1), k) if k else 0)


def _nilpotent_series(x: GradedElement, coeff) -> GradedElement:
    """sum_k coeff(k) x^k for x of zero constant term: finite, since x is
    nilpotent under truncation."""
    terms, power = [], x.spec.one()
    while not power.is_zero():
        terms.append((power, coeff(len(terms))))
        power = power * x
    return linear_combination(x.spec, terms)


# -- symmetric-function machinery ------------------------------------------


def power_sums_from_elementary(e: Sequence[GradedElement], n: int) -> list[GradedElement]:
    """Newton's identities: elementary symmetric e_1..e_m -> power sums p_1..p_n.

    p_k = e_1 p_{k-1} - e_2 p_{k-2} + ... + (-1)^{k-1} k e_k.  The m given
    classes are 1 <= m <= n; e_i = 0 for i > m, and its terms are skipped.
    """
    m = len(e)
    if not 1 <= m <= n:
        raise ValueError(f"need 1 to {n} elementary inputs, got {m}")
    spec = e[0].spec
    for x in e:
        if x.spec != spec:
            raise SpecMismatch("elementary inputs live in different rings")
    p: list[GradedElement] = []
    for k in range(1, n + 1):
        terms = [(e[i - 1] * p[k - i - 1], (-1) ** (i - 1)) for i in range(1, min(k, m + 1))]
        if k <= m:
            terms.append((e[k - 1], (-1) ** (k - 1) * k))
        p.append(linear_combination(spec, terms))
    return p


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


def newton_rung(e: Sequence[GradedElement], p: Sequence[GradedElement]) -> GradedElement:
    """e_k = (1/k) sum_{i=1..k} (-1)^{i-1} e_{k-i} p_i for k = len(e): the
    next rung of the inverse-Newton ladder from e_0 = 1, e_1..e_{k-1} and
    p_1..p_k (``p[i - 1]`` is p_i), in one linear combination; e_0 p_k
    is p_k itself, not a product."""
    k = len(e)
    terms = [(e[k - i] * p[i - 1] if i < k else p[i - 1], Fraction((-1) ** (i - 1), k)) for i in range(1, k + 1)]
    return linear_combination(e[0].spec, terms)


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
    return exp(linear_combination(spec, [(p[k - 1], b[k]) for k in range(1, min(len(b), len(p) + 1))]))
