"""Command-line frontend.

    hlab <subcommand> [--input FILE] [--output text|machine] [flags]

One command table (``build_parser``) gives each subcommand its handler,
help line, typed flags and positionals.  A flag is spelled in full, at most
once, as ``--flag value`` or ``--flag=value``; ``--help`` lists them.

Every command with ``--output`` reports through one path: its handler
returns its inputs and an ordered dict of results, and ``_run`` runs it under
one warning capture and builds the :class:`Reporter`.  A report holds the
command (with the ``--which`` choice of ``bounds``), the sha256 of its
inputs, the results and every Python warning the command raised, in the
order raised.  ``verify`` and ``fixture`` print their own output.

Exit codes: 0 on success, 1 when the data violate a hypothesis, 2 on a
usage error or a malformed input document, 3 when an internal certificate
fails (a bug), 4 when any other exception escapes ``main`` (a crash, also
a bug: the process entry ``hlab.__main__.run`` prints its traceback), 141
when stdout closes early (``| head``); ``main`` maps the exception classes
of ``hlab.errors`` to them.  All numeric output is exact rational text
except the explicitly marked enclosures.

This module is the dispatcher alone: the command table, the flag rules,
the report and the exit codes.  It holds no handler.  The table names the
module that handles each command, and ``_run`` imports that module and
calls its ``run_command(args)``: ``genus`` for ``genus``, ``kcoeffs``,
``hilbert`` and ``ineq``, which share one handler, ``bounds``, ``diagonal``
for ``commutator``, ``sl2`` for ``lefschetz-check``, ``selfcheck`` for
``verify`` and ``fixturedoc`` for ``fixture``.  The help texts live in
``helptext``, imported only for ``--help`` and for the usage error of a
missing subcommand.  So importing this module loads the literal rules of
the flags only (``literals``, ``errors``), and a job compiles no other
command's code; ``record`` loads with the engines that build records.  The space of ``lefschetz-check`` is a flag rule
(``literals.check_space``), so a refused space loads no engine.
"""

from __future__ import annotations

import json
import os
import sys
import warnings
from fractions import Fraction
from importlib import import_module
from types import SimpleNamespace

from .errors import CertificateError, DocumentError, ExprError, IntegralityError, MissingChernNumber
from .literals import _at, check_space, digest, is_integer, parse_integer

ENGINE_ERROR = 1
USAGE_ERROR = 2
CERTIFICATE_ERROR = 3
CLOSED_OUTPUT = 141  # 128 + SIGPIPE


class Reporter:
    """A command's results and warnings, rendered as text or machine output."""

    def __init__(self, command: str, inputs, output: str, warnings):
        self.command = command
        self.inputs_digest = digest(inputs)
        self.output = output
        self.results = {}
        self.warnings = list(warnings)

    def add(self, key: str, value):
        try:
            self.results[key] = _plain(value)
        except ValueError:  # str() of an integer longer than the interpreter's limit
            raise DocumentError(
                f"result {key!r} holds a number of more than {sys.get_int_max_str_digits()} digits, "
                "too long to print: the document's coefficients are too large"
            ) from None

    def emit(self):
        if self.output == "machine":
            report = {
                "command": self.command,
                "inputs_digest": self.inputs_digest,
                "results": self.results,
                "warnings": self.warnings,
            }
            print(json.dumps(report, sort_keys=True, indent=2))
            return
        print(f"# {self.command}")
        print(f"# inputs sha256: {self.inputs_digest}")
        for message in self.warnings:
            print(f"warning: {message}")
        for key, value in self.results.items():  # a value, or a table of flat rows
            if isinstance(value, list) and value and isinstance(value[0], dict):
                print(f"{key}:")
                for row in value:
                    print("  " + "  ".join(f"{k}={_flat_str(v)}" for k, v in row.items()))
            else:
                print(f"{key} = {_flat_str(value)}")


def _plain(value):
    """Make values JSON-representable without floats: rationals as strings."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        str(value)  # the check: raises ValueError past the digit limit
        return value
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    from .record import Interval  # loaded by every engine that builds one

    if isinstance(value, Interval):
        return str(value.lo) if value.lo == value.hi else [str(value.lo), str(value.hi)]
    return str(value)


def _flat_str(value):
    if isinstance(value, list):
        return "[" + ", ".join(map(str, value)) + "]"
    return str(value)


# -- dispatcher ---------------------------------------------------------------


OUTPUT = {"--output": (("text", "machine"), "text")}
DOCUMENT = {"--input": (str, None), **OUTPUT}


def build_parser() -> dict:
    """The command table: subcommand -> (home, help, flags, positionals).

    ``home`` is the hlab module whose ``run_command(args)`` handles it;
    ``flags`` maps each flag to (type, default), where the type is ``int``,
    ``str`` or a tuple of choices and a default of ``...`` makes the flag
    required; ``positionals`` lists (name, type) pairs in order.
    """
    return {
        "genus": ("genus", "Todd class, Chern character, chi_y, chi^p", DOCUMENT, ()),
        "kcoeffs": ("genus", "Taylor coefficients of chi_y at y = -1", DOCUMENT, ()),
        "hilbert": ("genus", "p-Hilbert polynomial of the line bundle", {**DOCUMENT, "--p": (int, 0)}, ()),
        "ineq": ("genus", "Chern number inequality checker", {**DOCUMENT, "--j": (int, None)}, ()),
        "commutator": (
            "diagonal", "C = |[Lambda, iTheta]| and C_pq table", {**DOCUMENT, "--gammas": (str, None)}, ()
        ),
        "lefschetz-check": (
            "sl2", "sl2 / star / injectivity / power scans", {**OUTPUT, "--n": (int, ...), "--r": (int, 1)}, (),
        ),
        "bounds": (
            "bounds", "Euler-characteristic bound evaluators",
            {**DOCUMENT, "--which": (("t2", "t4", "t5", "c1", "etheta", "t4chain"), ...)}, (),
        ),
        "verify": ("selfcheck", "run the built-in property suites", {}, ()),
        "fixture": ("fixturedoc", "emit a builtin input document", {"--out": (str, None)}, (("KIND", ("cp",)), ("N", int))),
    }


def _value(name: str, kind, text: str):
    if kind is int:
        return parse_integer(text, name)
    if isinstance(kind, tuple) and text not in kind:
        raise DocumentError(f"{name}: {text!r} is not one of {', '.join(kind)}")
    return text


def _parse(table: dict, argv: list):
    """The namespace the handlers read, or the help text asked for."""
    if not argv:
        raise DocumentError("give a subcommand\n" + _help(table))
    name, tokens = argv[0], iter(argv[1:])
    if name in ("-h", "--help"):
        return _help(table)
    if name not in table:
        raise DocumentError(f"{name!r} is not a subcommand: give one of {', '.join(table)}")
    home, _, flags, positionals = table[name]
    values, words = {}, []
    for token in tokens:
        if token in ("-h", "--help"):
            return _help(table, name)
        if not token.startswith("-") or is_integer(token):
            words.append(token)
            continue
        flag, eq, text = token.partition("=")
        if flag not in flags:
            raise DocumentError(f"{flag} is not a flag of {name}: its flags are {', '.join(flags) or 'none'}")
        if flag in values:
            raise DocumentError(f"{flag} is given twice")
        if not eq and (text := next(tokens, None)) is None:
            raise DocumentError(f"{flag} needs a value")
        values[flag] = _value(flag, flags[flag][0], text)
    for flag, (_, default) in flags.items():
        if default is ... and flag not in values:
            raise DocumentError(f"{flag} is required")
        values.setdefault(flag, default)
    usage = " ".join(["usage is hlab", name, *(pos for pos, _ in positionals)])
    if len(words) > len(positionals):
        raise DocumentError(f"{words[len(positionals)]!r} is an extra argument: {usage}")
    if len(words) < len(positionals):
        raise DocumentError(f"{positionals[len(words)][0]} is missing: {usage}")
    for (pos, kind), word in zip(positionals, words):
        values[pos] = _value(pos, kind, word)
    if "--r" in flags:  # the space of lefschetz-check, refused before its engine loads
        with _at(f"--n {values['--n']} --r {values['--r']}"):
            check_space(values["--n"], values["--r"])
    return SimpleNamespace(home=home, command=name, **{key.lstrip("-").lower(): v for key, v in values.items()})


def _help(table: dict, name=None) -> str:
    from .helptext import help_text

    return help_text(table, name)


def _run(argv: list) -> int:
    args = _parse(build_parser(), argv)
    if isinstance(args, str):  # the help text
        print(args)
        return 0
    run_command = import_module(f"hlab.{args.home}").run_command
    if "output" not in vars(args):  # verify and fixture print their own output
        return run_command(args) or 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        inputs, results = run_command(args)
    command = f"bounds {args.which}" if args.command == "bounds" else args.command
    rep = Reporter(command, inputs, args.output, [str(w.message) for w in caught])
    for key, value in results.items():
        rep.add(key, value)
    rep.emit()
    return 0


def main(argv=None) -> int:
    try:
        code = _run(sys.argv[1:] if argv is None else list(argv))
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        with open(os.devnull, "w") as null:  # so the flush at exit goes to devnull
            os.dup2(null.fileno(), sys.stdout.fileno())
        return CLOSED_OUTPUT
    except (DocumentError, ExprError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except CertificateError as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return CERTIFICATE_ERROR
    except (IntegralityError, MissingChernNumber, ValueError) as exc:  # a violated hypothesis
        print(f"engine error: {exc}", file=sys.stderr)
        return ENGINE_ERROR
