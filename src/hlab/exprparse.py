"""Recursive-descent parser for ring-element expressions.

A document's text in the form the ring prints (``str`` of an element,
``RingSpec.monomial_name`` of a key) is read by the ring itself
(``RingSpec.read_element``, ``RingSpec.read_monomial``), which gives the
value this parser would give, with no warning; this module loads only for
other text, and every error, warning and cap below is its own.

Grammar (usual precedence, ^ binds tightest and is right-associative):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('+' | '-') unary | power
    power  := atom ('^' unary)?
    atom   := INTEGER | NAME | '(' expr ')'

An INTEGER is a run of ASCII digits [0-9].  '/' divides by a nonzero
rational constant (so literals like 1/2 work); '^' takes a nonnegative
integer exponent.  Unknown generator names, other characters and syntax
errors are reported with their character position.

Values are computed in the target ring itself: its truncation is the
quotient by the monomials of weight above T, which commutes with every
operation here.  A product of integer literals, generators and their powers
is one :class:`_Monomial`, an integer numerator and denominator times one
exponent tuple, which takes no ring arithmetic; a sum merges the parts of
its terms over one denominator in one pass.  Only a parenthesised
sub-expression, and a product or power that has one, takes the ring's
arithmetic.  A syntactic weight bound rides along with each value: a
product or power whose bound exceeds max(WEIGHT_CAP, T) is rejected before
any arithmetic, and one warning per parse fires when the whole bound
exceeds T.  Coefficients are capped too, at the bit size of an integer with
as many digits as the interpreter converts to text
(``sys.get_int_max_str_digits()``): a power ``a^k`` is rejected before it
is computed when k times the largest numerator or denominator bit length in
``a`` exceeds that size, and a product when its result does.
"""

from __future__ import annotations

import re
import sys
import warnings
from functools import lru_cache
from math import gcd
from operator import add
from typing import TYPE_CHECKING

from .errors import ExprError
from .literals import parse_rational  # noqa: F401 - re-exported: its home is literals
from .ring import GradedElement, _sum

if TYPE_CHECKING:
    from .ring import RingSpec

# expressions whose syntactic weight bound exceeds this are rejected
# before any arithmetic is attempted
WEIGHT_CAP = 4096

# after any whitespace: ASCII digits, a name, an operator, or any other
# character, which is an error; a name starts with a letter or "_" (checked
# below), so "٣" or "²", which \w matches, starts none
_TOKEN = re.compile(r"\s*(?:(?P<int>[0-9]+)|(?P<name>\w+)|(?P<op>[-+*/^()])|(?P<bad>\S))")


class TruncationWarning(UserWarning):
    """Emitted when a parsed expression loses terms to the truncation."""


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    for match in _TOKEN.finditer(src):
        kind = match.lastgroup
        text, i = match[kind], match.start(kind)
        if kind == "bad" or kind == "name" and not (text[0].isalpha() or text[0] == "_"):
            raise ExprError(f"unexpected character {text[0]!r}", i, src)
        tokens.append((kind, text, i))
    tokens.append(("end", "", len(src)))
    return tokens


@lru_cache(maxsize=None)
def _bit_size(digits: int) -> int:
    """The bit size of a ``digits``-digit integer."""
    return (10**digits).bit_length()


def _coefficient_bits(value) -> int:
    """The largest numerator or denominator bit length among the coefficients."""
    den = value.den
    return max(
        (max((v // g).bit_length(), (den // g).bit_length()) for part in value.parts.values() for v in part.values()
         if (g := gcd(v, den))),
        default=0,
    )


class _Monomial(GradedElement):
    """num/den times the monomial ``exps`` of that weight, in lowest terms,
    or 0 above the truncation: a GradedElement whose products and powers
    with other monomials, and negation, take no ring arithmetic."""

    def __init__(self, spec, num, den, exps, weight):
        num *= weight <= spec.truncation  # 0 above the truncation
        g = gcd(num, den)
        self.spec, self.num, self.den, self.exps, self.weight = spec, num // g, den // g, exps, weight
        self.parts = {weight: {exps: num // g}} if num else {}

    def __mul__(self, other):
        if not isinstance(other, _Monomial):
            return super().__mul__(other)
        exps = tuple(map(add, self.exps, other.exps))
        return _Monomial(self.spec, self.num * other.num, self.den * other.den, exps, self.weight + other.weight)

    def __neg__(self):
        return _Monomial(self.spec, -self.num, self.den, self.exps, self.weight)

    def __pow__(self, k):
        return _Monomial(self.spec, self.num**k, self.den**k, tuple(e * k for e in self.exps), self.weight * k)


class _Parser:
    """Evaluates in the target ring, tracking a syntactic weight bound that
    caps the work and tells whether the truncation dropped anything, and
    capping the size of every coefficient."""

    def __init__(self, src: str, spec: RingSpec):
        self.src = src
        self.spec = spec
        self.cap = max(WEIGHT_CAP, spec.truncation)
        self.max_bits = _bit_size(sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits)
        self.tokens = _tokenize(src)
        self.pos = 0
        self.zeros = (0,) * len(spec.generators)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str):
        raise ExprError(message, self.peek()[2], self.src)

    def _guard(self, where, bound, bits=0):
        """The weight bound, unless it or the coefficient ``bits`` exceeds its cap."""
        if bound > self.cap:
            raise ExprError(f"expression weight bound {bound} exceeds the cap {self.cap}", where, self.src)
        if bits > self.max_bits:
            raise ExprError(
                f"a coefficient of about {bits} bits exceeds the {self.max_bits}-bit limit", where, self.src
            )
        return bound

    def parse(self) -> tuple[GradedElement, int]:
        """The truncated value and the weight bound of the whole input."""
        try:
            value, bound = self.expr()
        except RecursionError:
            raise ExprError("expression nested too deeply") from None
        if self.peek()[0] != "end":
            self.fail(f"unexpected trailing {self.peek()[1]!r}")
        return value, bound

    def expr(self):
        """A sum: the parts of its terms merged over one denominator."""
        value, bound = self.term()
        terms = [(value.parts, 1, value.den)]
        while self.peek()[1] in ("+", "-"):
            op = self.advance()[1]
            rhs, rbound = self.term()
            terms.append((rhs.parts, 1 if op == "+" else -1, rhs.den))
            bound = max(bound, rbound)
        return _sum(self.spec, terms), bound

    def term(self):
        value, bound = self.unary()
        while self.peek()[1] in ("*", "/"):
            _, op, where = self.advance()
            rhs, rbound = self.unary()
            if op == "*":
                bound = self._guard(where, bound + rbound)
                value = value * rhs
                self._guard(where, 0, _coefficient_bits(value))
            else:
                # exact: a bound <= T means nothing of the divisor was truncated
                if rbound > self.spec.truncation or list(rhs.parts) != [0]:
                    raise ExprError("division is only defined by nonzero rational constants", where, self.src)
                (p,) = rhs.parts[0].values()  # rhs = p/den: times den/p = den p/p^2
                value = value * _Monomial(self.spec, rhs.den * p, p * p, self.zeros, 0)
        return value, bound

    def unary(self):
        """unary := ('+' | '-') unary | atom ('^' INTEGER)?"""
        kind, text, where = self.advance()
        if text in ("+", "-"):
            value, bound = self.unary()
            return (-value if text == "-" else value), bound
        if kind == "int":
            value, bound = _Monomial(self.spec, int(text), 1, self.zeros, 0), 0
        elif kind == "name":
            try:
                i = self.spec.index(text)
            except KeyError:
                raise ExprError(f"unknown generator {text!r}", where, self.src) from None
            bound = self.spec.weights[i]
            value = _Monomial(self.spec, 1, 1, self.zeros[:i] + (1,) + self.zeros[i + 1 :], bound)
        elif text == "(":
            value, bound = self.expr()
            if self.peek()[1] != ")":
                self.fail("expected ')'")
            self.advance()
        else:
            raise ExprError(f"expected a value, found {text!r}" if text else "unexpected end of input", where, self.src)
        if self.peek()[1] == "^":
            _, _, where = self.advance()
            kind, text, _ = self.advance()
            if kind != "int":
                raise ExprError("exponent must be a nonnegative integer", where, self.src)
            k = int(text)
            bound = self._guard(where, bound * k, k * _coefficient_bits(value))
            value = value**k
        return value, bound


def parse_expression(src: str, spec: RingSpec) -> GradedElement:
    """Parse an arithmetic expression over the ring's generators, exactly, in
    ``spec`` itself.  A :class:`TruncationWarning` fires when the weight bound
    exceeds the truncation: whenever a term was dropped, and also when written
    high terms cancel (``h^3 - h^3``)."""
    value, bound = _Parser(src, spec).parse()
    if bound > spec.truncation:
        message = f"terms of weight above {spec.truncation} truncated in {src!r}"
        warnings.warn(message, TruncationWarning, stacklevel=2)
    return value


def parse_monomial_key(key: str, spec: RingSpec) -> tuple[int, ...]:
    """Parse a canonical monomial string like 'h^2' or 'c1*c2' to exponents."""
    elt, bound = _Parser(key, spec).parse()
    if bound > spec.truncation:
        raise ValueError(f"{key!r} has weight above the truncation {spec.truncation}")
    if len(elt.terms) != 1:
        raise ValueError(f"{key!r} is not a single monomial")
    (exps, coeff), = elt.terms.items()
    if coeff != 1:
        raise ValueError(f"{key!r} must have coefficient 1")
    return exps
