"""Recursive-descent parser for ring-element expressions.

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
operation here.  A syntactic weight bound rides along with each value: a
product or power whose bound exceeds max(WEIGHT_CAP, T) is rejected before
any arithmetic, and one warning per parse fires when the whole bound exceeds T.
Coefficients are capped too, at the bit size of an integer with as many
digits as the interpreter converts to text (``sys.get_int_max_str_digits()``):
a power ``a^k`` is rejected before it is computed when k times the largest
numerator or denominator bit length in ``a`` exceeds that size, and a
product when its result does.
"""

from __future__ import annotations

import sys
import warnings
from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import ExprError
from .literals import parse_rational  # noqa: F401 - re-exported: its home is literals

if TYPE_CHECKING:  # the parser calls only the methods of the RingSpec it is given
    from .ring import GradedElement, RingSpec

# expressions whose syntactic weight bound exceeds this are rejected
# before any arithmetic is attempted
WEIGHT_CAP = 4096


class TruncationWarning(UserWarning):
    """Emitted when a parsed expression loses terms to the truncation."""


_TOKEN_CHARS = set("+-*/^()")


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(src):
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_CHARS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        if "0" <= ch <= "9":  # ASCII only: "٣" or "²" is no digit
            j = i
            while j < len(src) and "0" <= src[j] <= "9":
                j += 1
            tokens.append(("int", src[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("name", src[i:j], i))
            i = j
            continue
        raise ExprError(f"unexpected character {ch!r}", i, src)
    tokens.append(("end", "", len(src)))
    return tokens


@lru_cache(maxsize=None)
def _bit_size(digits: int) -> int:
    """The bit size of a ``digits``-digit integer."""
    return (10**digits).bit_length()


def _coefficient_bits(value: GradedElement) -> int:
    """The largest numerator or denominator bit length among the coefficients."""
    return max((max(c.numerator.bit_length(), c.denominator.bit_length()) for c in value.terms.values()), default=0)


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

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str):
        raise ExprError(message, self.peek()[2], self.src)

    def _guard(self, bound: int, where: int) -> int:
        if bound > self.cap:
            raise ExprError(f"expression weight bound {bound} exceeds the cap {self.cap}", where, self.src)
        return bound

    def _size_guard(self, bits: int, where: int):
        if bits > self.max_bits:
            raise ExprError(
                f"a coefficient of about {bits} bits exceeds the {self.max_bits}-bit limit", where, self.src
            )

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
        value, bound = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.advance()[1]
            rhs, rbound = self.term()
            value = value + rhs if op == "+" else value - rhs
            bound = max(bound, rbound)
        return value, bound

    def term(self):
        value, bound = self.unary()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            _, op, where = self.advance()
            rhs, rbound = self.unary()
            if op == "*":
                bound = self._guard(bound + rbound, where)
                value = value * rhs
                self._size_guard(_coefficient_bits(value), where)
            else:
                # exact: a bound <= T means nothing of the divisor was truncated
                const = rhs.constant_term()
                if rbound > self.spec.truncation or const == 0 or rhs != self.spec.constant(const):
                    raise ExprError(
                        "division is only defined by nonzero rational constants",
                        where,
                        self.src,
                    )
                value = value / const
        return value, bound

    def unary(self):
        if self.peek()[:2] == ("op", "-"):
            self.advance()
            value, bound = self.unary()
            return -value, bound
        if self.peek()[:2] == ("op", "+"):
            self.advance()
            return self.unary()
        return self.power()

    def power(self):
        value, bound = self.atom()
        if self.peek()[:2] == ("op", "^"):
            _, _, where = self.advance()
            kind, text, _ = self.peek()
            if kind != "int":
                raise ExprError("exponent must be a nonnegative integer", where, self.src)
            self.advance()
            k = int(text)
            bound = self._guard(bound * k, where)
            self._size_guard(k * _coefficient_bits(value), where)
            return value**k, bound
        return value, bound

    def atom(self):
        kind, text, where = self.peek()
        if kind == "int":
            self.advance()
            return self.spec.constant(int(text)), 0
        if kind == "name":
            self.advance()
            try:
                elt = self.spec.gen(text)
            except KeyError:
                raise ExprError(f"unknown generator {text!r}", where, self.src) from None
            return elt, self.spec.weights[self.spec.index(text)]
        if (kind, text) == ("op", "("):
            self.advance()
            value = self.expr()
            if self.peek()[:2] != ("op", ")"):
                self.fail("expected ')'")
            self.advance()
            return value
        self.fail(f"expected a value, found {text!r}" if text else "unexpected end of input")


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
