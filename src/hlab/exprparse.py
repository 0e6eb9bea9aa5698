"""Recursive-descent parser for ring-element expressions.

Grammar (usual precedence, ^ binds tightest and is right-associative):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('+' | '-') unary | power
    power  := atom ('^' unary)?
    atom   := INTEGER | NAME | '(' expr ')'

'/' divides by a nonzero rational constant (so literals like 1/2 work);
'^' takes a nonnegative integer exponent.  Unknown generator names and
syntax errors are reported with their character position.

Evaluation happens in an untruncated shadow of the target ring so that
terms exceeding the truncation weight can be reported: they are dropped
from the result with a warning, exactly once per parse.
"""

from __future__ import annotations

import re
import warnings
from fractions import Fraction

from .errors import ExprError
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
        if ch.isdigit():
            j = i
            while j < len(src) and src[j].isdigit():
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


class _Parser:
    """Evaluates in a shadow ring wide enough that nothing truncates,
    tracking a syntactic weight bound to keep the shadow safe."""

    def __init__(self, src: str, spec: RingSpec):
        self.src = src
        self.spec = spec
        if spec.truncation >= WEIGHT_CAP:
            self.shadow = spec
        else:
            self.shadow = RingSpec(spec.generators, WEIGHT_CAP)
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
        if bound > self.shadow.truncation:
            raise ExprError(
                f"expression weight bound {bound} exceeds the cap "
                f"{self.shadow.truncation}",
                where,
                self.src,
            )
        return bound

    def parse(self) -> GradedElement:
        value, _ = self.expr()
        if self.peek()[0] != "end":
            self.fail(f"unexpected trailing {self.peek()[1]!r}")
        trunc = self.spec.truncation
        dropped = sum(1 for e in value.terms if self.spec.weight_of(e) > trunc)
        if dropped:
            warnings.warn(
                f"{dropped} term(s) of weight above {trunc} truncated "
                f"in {self.src!r}",
                TruncationWarning,
                stacklevel=3,
            )
        return GradedElement(self.spec, value.terms)

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
            else:
                const = rhs.constant_term()
                if rhs != self.shadow.constant(const) or const == 0:
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
            return value**k, bound
        return value, bound

    def atom(self):
        kind, text, where = self.peek()
        if kind == "int":
            self.advance()
            return self.shadow.constant(Fraction(int(text))), 0
        if kind == "name":
            self.advance()
            try:
                elt = self.shadow.gen(text)
            except KeyError:
                raise ExprError(f"unknown generator {text!r}", where, self.src) from None
            return elt, self.shadow.weights[self.shadow.index(text)]
        if (kind, text) == ("op", "("):
            self.advance()
            value = self.expr()
            if self.peek()[:2] != ("op", ")"):
                self.fail("expected ')'")
            self.advance()
            return value
        self.fail(f"expected a value, found {text!r}" if text else "unexpected end of input")


def parse_expression(src: str, spec: RingSpec) -> GradedElement:
    """Parse an arithmetic expression over the ring's generators, exactly.

    Terms whose weight exceeds the ring truncation are dropped with a
    :class:`TruncationWarning`.
    """
    try:
        return _Parser(src, spec).parse()
    except RecursionError:
        raise ExprError("expression nested too deeply") from None


def parse_rational(text) -> Fraction:
    """Parse a JSON int or a string of the form ``-?[0-9]+(/[0-9]+)?``, exactly.
    Anything else (a float, a bool, '1e3', '1.5', padding) is an input error:
    an :class:`ExprError` naming the literal."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not (isinstance(text, str) and re.fullmatch(r"-?[0-9]+(/[0-9]+)?", text)):
        raise ExprError(f"bad rational literal {text!r}: expected an integer or 'p/q'")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:  # zero denominator, too many digits
        raise ExprError(f"bad rational literal {text!r}: {exc}") from None


def parse_monomial_key(key: str, spec: RingSpec) -> tuple[int, ...]:
    """Parse a canonical monomial string like 'h^2' or 'c1*c2' to exponents."""
    elt = parse_expression(key, spec)
    if len(elt.terms) != 1:
        raise ValueError(f"{key!r} is not a single monomial")
    (exps, coeff), = elt.terms.items()
    if coeff != 1:
        raise ValueError(f"{key!r} must have coefficient 1")
    return exps
