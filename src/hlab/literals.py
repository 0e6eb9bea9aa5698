"""The literal rules shared by input documents and command-line flags.

An integer is a JSON int or a string that :func:`is_integer` admits, and a
rational a JSON int or a "p/q" string; no float or bool is ever accepted.
The text rules are str checks, not regular expressions, so no job compiles
a pattern for them.  A document's dimension, and the N of ``hlab fixture
cp N``, obey one rule (:func:`_dimension`).  ``digest`` names the inputs
of a report, and :func:`check_space` admits the exterior algebra of every
command.  ``cli`` imports this module alone for
its flags, so a command that reads no document loads no document reader
(``inputdoc``, ``exprparse``).  ``inputdoc`` re-exports ``digest``,
``exprparse`` ``parse_rational``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from fractions import Fraction
from reprlib import repr as _show
from typing import Any

from .errors import DocumentError, ExprError

try:  # lean, as in random: hashlib loads OpenSSL's _hashlib
    from _sha2 import sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # Python <= 3.11
    except ImportError:
        from hashlib import sha256

MAX_N = 6  # 4^n r grows fast; paper-scale checks never need more
MAX_DOC_DIMENSION = 12  # polynomial-degree guard rail for desk-scale inputs


def is_digits(text: str) -> bool:
    """One or more ASCII digits: ``str.isdigit`` alone admits "²" and "١"."""
    return text.isascii() and text.isdigit()


def is_integer(text: str) -> bool:
    """The one integer rule: an optional leading "-", then ASCII digits; no
    padding, no "+" or "_"."""
    return is_digits(text[1:] if text[:1] == "-" else text)


def check_space(n: int, r: int):
    """The one rule admitting Lambda^{*,*}(C^n) tensor C^r (ValueError if not)."""
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n = {n} is outside [1, {MAX_N}]")
    if r < 1:
        raise ValueError(f"the fiber rank r = {r} is below 1")
    if 4**n * r > 4**MAX_N:
        raise ValueError(f"the space has dimension 4^n r = {4**n * r} > 4^{MAX_N}")


def digest(tree: Any) -> str:
    return sha256(json.dumps(tree, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


@contextmanager
def _at(path: str):
    """A ValueError raised while ``path`` is read (an ExprError, or a check
    inside a constructor) becomes a DocumentError naming the path."""
    try:
        yield
    except DocumentError:
        raise
    except ValueError as exc:
        raise DocumentError(f"{path}: {exc}") from None


def _list(value, path: str) -> list:
    """A string is not a list of its characters: require a JSON list."""
    if not isinstance(value, list):
        raise DocumentError(f"{path} must be a JSON list, got {_show(value)}")
    return value


def parse_integer(value, path: str) -> int:
    """A JSON int or a string that :func:`is_integer` admits (a document's
    "2", a flag's text); never a bool or a float."""
    if isinstance(value, str):
        if not is_integer(value):
            raise DocumentError(f"{path}: {value!r} is not an integer")
        with _at(path):  # more digits than int() converts
            return int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise DocumentError(f"{path} must be a JSON int or a decimal string, got {_show(value)}")
    return value


def _dimension(value, path: str) -> int:
    """The dimension rule: ``ring.dimension``, ``bounds.n`` and the N of
    ``hlab fixture cp N`` are integers in [1, MAX_DOC_DIMENSION]."""
    n = parse_integer(value, path)
    if not 1 <= n <= MAX_DOC_DIMENSION:
        raise DocumentError(f"{path}: dimension {n} is outside the guard rail [1, {MAX_DOC_DIMENSION}]")
    return n


def parse_rational(text) -> Fraction:
    """Parse a JSON int or a string "p" or "p/q", exactly: p an integer
    (:func:`is_integer`), q ASCII digits.  Anything else (a float, a bool,
    '1e3', '1.5', padding) is an input error: an :class:`ExprError` naming
    the literal."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    num, slash, den = text.partition("/") if isinstance(text, str) else ("", "", "")
    if not (is_integer(num) and (not slash or is_digits(den))):
        raise ExprError(f"bad rational literal {text!r}: expected an integer or 'p/q'")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:  # zero denominator, too many digits
        raise ExprError(f"bad rational literal {text!r}: {exc}") from None


def _rational(value, path: str) -> Fraction:
    with _at(path):
        return parse_rational(value)


def _rationals(value, path: str) -> tuple[Fraction, ...]:
    return tuple(_rational(v, f"{path}[{i}]") for i, v in enumerate(_list(value, path)))
