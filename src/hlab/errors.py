"""The exceptions that ``hlab.cli.main`` maps to exit codes.

They live apart from the engines that raise them, so the command line can
map every failure kind without importing an engine it does not run:

    DocumentError, ExprError               -> 2 (usage or input error)
    IntegralityError, MissingChernNumber   -> 1 (a violated hypothesis)
    CertificateError                       -> 3 (an internal certificate failed)

The package exports them from here, so ``from hlab import CertificateError``
loads no engine.  Each engine module imports its own classes from here, so
the old paths (``hlab.inputdoc.DocumentError``,
``hlab.genus.IntegralityError``, ...) name the same classes.
"""

from __future__ import annotations


class DocumentError(ValueError):
    """Malformed input document; the message names the JSON path at fault."""


class ExprError(ValueError):
    """Syntax or name error in an input expression (with its position), or a
    malformed rational literal (position None)."""

    def __init__(self, message: str, position: int | None = None, src: str = ""):
        if position is not None:
            message = f"{message} at position {position}: {src!r}"
        super().__init__(message)
        self.position = position


class IntegralityError(ValueError):
    """A holomorphic Euler characteristic came out non-integral.

    This always signals inconsistent input Chern data, never a rounding
    issue: all arithmetic is exact.
    """


class MissingChernNumber(KeyError):
    """The fundamental-class table lacks an assignment for a top monomial."""

    def __init__(self, monomial: str):
        super().__init__(monomial)
        self.monomial = monomial

    def __str__(self):
        return f"no Chern-number assignment for top monomial {self.monomial}"


class CertificateError(AssertionError):
    """An exact internal certificate failed: a bug in hlab, never bad input."""
