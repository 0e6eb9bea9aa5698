"""Differential test of the expression parser against a reference evaluator.

``hlab.exprparse`` evaluates in the target ring with its public arithmetic:
one ring operation per product, quotient, power and sign, and one
``ring.linear_combination`` per sum.  The reference below keeps the plain
semantics of the grammar: every literal is a ring constant, every name a
generator, and every operation, each addition included, is one
GradedElement operation, with the weight-bound, coefficient-size and
division checks made on the value each step produces.  On seeded random
expressions over small rings, both must give equal values, the same
TruncationWarning, and the same error message and position.
"""

import random
import sys
import warnings

from hlab.exprparse import WEIGHT_CAP, ExprError, TruncationWarning, parse_expression
from hlab.ring import RingSpec


def _tokens(src):
    """(kind, text, position) of each token: ASCII digit runs, names that
    start with a letter or "_", the operators, and an end marker."""
    out, i = [], 0
    while i < len(src):
        ch, j = src[i], i + 1
        if ch.isspace():
            i = j
            continue
        if ch in "+-*/^()":
            out.append(("op", ch, i))
        elif "0" <= ch <= "9":
            while j < len(src) and "0" <= src[j] <= "9":
                j += 1
            out.append(("int", src[i:j], i))
        elif ch.isalpha() or ch == "_":
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            out.append(("name", src[i:j], i))
        else:
            raise ExprError(f"unexpected character {ch!r}", i, src)
        i = j
    return out + [("end", "", len(src))]


class _Reference:
    """The grammar of ``hlab.exprparse``, evaluated by ring arithmetic alone."""

    def __init__(self, src, spec):
        self.src, self.spec, self.tokens, self.pos = src, spec, _tokens(src), 0
        self.cap = max(WEIGHT_CAP, spec.truncation)
        digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        self.max_bits = (10**digits).bit_length()

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        self.pos += 1
        return self.tokens[self.pos - 1]

    def error(self, message, where):
        raise ExprError(message, where, self.src)

    def check(self, where, bound, bits=0):
        if bound > self.cap:
            self.error(f"expression weight bound {bound} exceeds the cap {self.cap}", where)
        if bits > self.max_bits:
            self.error(f"a coefficient of about {bits} bits exceeds the {self.max_bits}-bit limit", where)

    @staticmethod
    def bits(value):
        return max((max(c.numerator.bit_length(), c.denominator.bit_length()) for c in value.terms.values()), default=0)

    def parse(self):
        try:
            value, bound = self.expr()
        except RecursionError:
            raise ExprError("expression nested too deeply") from None
        if self.peek()[0] != "end":
            self.error(f"unexpected trailing {self.peek()[1]!r}", self.peek()[2])
        return value, bound

    def expr(self):
        value, bound = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.take()[1]
            rhs, rbound = self.term()
            value, bound = value + rhs if op == "+" else value - rhs, max(bound, rbound)
        return value, bound

    def term(self):
        value, bound = self.unary()
        while self.peek()[1] in ("*", "/"):
            _, op, where = self.take()
            rhs, rbound = self.unary()
            if op == "*":
                bound += rbound
                self.check(where, bound)
                value = value * rhs
                self.check(where, 0, self.bits(value))
                continue
            const = rhs.constant_term()
            if rbound > self.spec.truncation or const == 0 or rhs != self.spec.constant(const):
                self.error("division is only defined by nonzero rational constants", where)
            value = value / const
        return value, bound

    def unary(self):
        if self.peek()[1] in ("+", "-"):
            sign = self.take()[1]
            value, bound = self.unary()
            return (-value if sign == "-" else value), bound
        value, bound = self.atom()
        if self.peek()[1] != "^":
            return value, bound
        where = self.take()[2]
        kind, text, _ = self.peek()
        if kind != "int":
            self.error("exponent must be a nonnegative integer", where)
        self.take()
        k = int(text)
        self.check(where, bound * k, k * self.bits(value))
        return value**k, bound * k

    def atom(self):
        kind, text, where = self.peek()
        if kind == "int":
            self.take()
            return self.spec.constant(int(text)), 0
        if kind == "name":
            self.take()
            if text not in self.spec.names:
                self.error(f"unknown generator {text!r}", where)
            return self.spec.gen(text), self.spec.weights[self.spec.index(text)]
        if text == "(":
            self.take()
            value = self.expr()
            if self.peek()[1] != ")":
                self.error("expected ')'", self.peek()[2])
            self.take()
            return value
        self.error(f"expected a value, found {text!r}" if text else "unexpected end of input", where)


def _reference_parse(src, spec):
    value, bound = _Reference(src, spec).parse()
    if bound > spec.truncation:
        warnings.warn(f"terms of weight above {spec.truncation} truncated in {src!r}", TruncationWarning)
    return value


def _outcome(parse, src, spec):
    """The value and warnings of one parse, or the error it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = parse(src, spec)
        except ExprError as exc:
            return "ExprError", str(exc), exc.position
        except ValueError as exc:  # int() of a literal past the interpreter's digit limit
            return "ValueError", str(exc)
    return value, [str(w.message) for w in caught if w.category is TruncationWarning]


def _ring(rng):
    names = rng.sample(["h", "c1", "c2", "x", "y_2"], rng.randint(1, 3))
    return RingSpec(tuple((name, rng.randint(1, 3)) for name in names), rng.randint(1, 6))


def _atom(rng, names):
    """A literal, a generator, or a power of either; now and then one whose
    exponent or coefficient is over the caps, or a name the ring lacks."""
    roll = rng.random()
    if roll < 0.03:
        return rng.choice([f"{rng.choice(names)}^{rng.choice([4097, 5000, 100000])}", "(h^65)^64", "3^10000",
                           f"{rng.randint(2, 9)}^{rng.choice([5000, 7000])}", "10^4000", "1" + "0" * 4400, "q"])
    base = str(rng.randint(0, 9)) if roll < 0.4 else rng.choice(names)
    return f"{base}^{rng.randint(0, 7)}" if rng.random() < 0.4 else base


def _monomial(rng, names):
    """A product of literals and generator powers, maybe over a constant."""
    factors = [_atom(rng, names) for _ in range(rng.randint(1, 4))]
    text = "*".join(factors)
    return f"{text}/{rng.randint(0, 6)}" if rng.random() < 0.3 else text


def _expression(rng, names, depth):
    """Sums of monomials, parenthesised sums and their powers, division by
    constants and by non-constants, nested unary minus, and high terms that
    cancel."""
    if depth == 0:
        return _monomial(rng, names)
    kind = rng.choice(["sum", "sum", "power", "divide", "minus", "cancel", "product"])
    if kind == "sum":
        terms = [_expression(rng, names, depth - 1) for _ in range(rng.randint(1, 4))]
        return "".join(rng.choice([" + ", " - ", "+", "-"]) + t if i else t for i, t in enumerate(terms))
    if kind == "power":
        return f"({_expression(rng, names, depth - 1)})^{rng.randint(0, 4)}"
    if kind == "divide":
        divisor = rng.choice([str(rng.randint(0, 5)), f"({rng.randint(1, 3)} + h - h)", rng.choice(names),
                              f"(1+{rng.choice(names)}^3-{rng.choice(names)}^3)", f"{rng.randint(1, 4)}^2", "-3"])
        return f"({_expression(rng, names, depth - 1)})/{divisor}"
    if kind == "minus":
        return "-" * rng.randint(1, 3) + rng.choice(["", "+"]) + f"({_expression(rng, names, depth - 1)})"
    if kind == "cancel":
        high = f"{rng.choice(names)}^{rng.randint(3, 9)}"
        return f"{_expression(rng, names, depth - 1)} + {high} - {high}"
    return f"({_expression(rng, names, depth - 1)})*({_expression(rng, names, depth - 1)})"


def _corrupted(rng, src):
    """The expression with one character inserted, deleted or replaced."""
    i = rng.randrange(len(src) + 1)
    junk = rng.choice("+-*/^() h1$.٣²")
    return rng.choice([src[:i] + junk + src[i:], src[:i] + src[i + 1 :], src[:i] + junk + src[i + 1 :]])


def test_parser_matches_the_ring_arithmetic_reference():
    rng = random.Random(3201)
    mismatches, seen = [], {"value": 0, "truncated": 0}
    for _ in range(2500):
        spec = _ring(rng)
        src = _expression(rng, spec.names, rng.randint(0, 3))
        if rng.random() < 0.2:
            src = _corrupted(rng, src)
        got, want = _outcome(parse_expression, src, spec), _outcome(_reference_parse, src, spec)
        if got != want:
            mismatches.append((src, spec, got, want))
        if isinstance(want[0], str):
            kind = want[1].split(" at position")[0].split(":")[0]
            seen[" ".join(kind.split()[:2])] = seen.get(" ".join(kind.split()[:2]), 0) + 1
        else:
            seen["value"] += 1
            seen["truncated"] += bool(want[1])
    assert not mismatches, mismatches[:5]
    # every path of the grammar and every refusal is exercised
    for kind in ("value", "truncated", "unexpected character", "unknown generator", "expression weight",
                 "a coefficient", "division is", "expected a", "unexpected trailing", "exponent must",
                 "expected ')'", "unexpected end", "Exceeds the"):
        assert seen.get(kind, 0) > 0, (kind, seen)
