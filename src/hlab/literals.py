"""The literal rules shared by input documents and command-line flags.

An integer is a JSON int or a string matching :data:`INTEGER`, a rational a
JSON int or a "p/q" string, and diagonal curvature a list of rationals; no
float or bool is ever accepted.  ``digest`` names the inputs of a report,
and :func:`check_space` admits the exterior algebra of every command.
``cli`` imports this module alone for its flags, so a command that reads no
document loads no document reader (``inputdoc``, ``exprparse``).
``inputdoc`` re-exports ``digest``, ``exprparse`` ``parse_rational``.
"""

from __future__ import annotations

import json
import re
from contextlib import contextmanager
from fractions import Fraction
from reprlib import repr as _show
from typing import TYPE_CHECKING, Any

from .errors import DocumentError, ExprError

try:  # lean, as in random: hashlib loads OpenSSL's _hashlib
    from _sha2 import sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # Python <= 3.11
    except ImportError:
        from hashlib import sha256

if TYPE_CHECKING:
    from .diagonal import DiagonalCurvature

INTEGER = re.compile(r"-?[0-9]+")  # the one integer rule: ASCII digits, no padding, no "+" or "_"
MAX_N = 6  # 4^n r grows fast; paper-scale checks never need more


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
    """A JSON int or a string matching :data:`INTEGER` (a document's "2", a
    flag's text); never a bool or a float."""
    if isinstance(value, str):
        if not INTEGER.fullmatch(value):
            raise DocumentError(f"{path}: {value!r} is not an integer")
        with _at(path):  # more digits than int() converts
            return int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise DocumentError(f"{path} must be a JSON int or a decimal string, got {_show(value)}")
    return value


def in_range(value: int, n: int, path: str) -> int:
    """A form degree (``--p``, ``--j``, ``bounds.p``) of an n-fold: in [0, n]."""
    if not 0 <= value <= n:
        raise DocumentError(f"{path} = {value} is outside [0, {n}]")
    return value


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


def _rational(value, path: str) -> Fraction:
    with _at(path):
        return parse_rational(value)


def _rationals(value, path: str) -> tuple[Fraction, ...]:
    return tuple(_rational(v, f"{path}[{i}]") for i, v in enumerate(_list(value, path)))


def parse_gammas(values, path: str) -> DiagonalCurvature:
    """Diagonal curvature from a list of rational literals: ``curvature.gammas``
    in a document, or the ``--gammas`` flag split at its commas."""
    from .diagonal import DiagonalCurvature

    gammas = _rationals(values, path)
    with _at(path):
        return DiagonalCurvature(gammas)
