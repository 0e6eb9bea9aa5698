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
fails (a bug), 141 when stdout closes early (``| head``); ``main`` maps
the exception classes of ``hlab.errors`` to them.  All numeric output is
exact rational text except the explicitly marked enclosures.

Importing this module loads the literal rules of the flags only
(``literals``, ``errors``, ``record``); each handler imports what it runs.
"""

from __future__ import annotations

import json
import os
import sys
import warnings
from fractions import Fraction
from types import SimpleNamespace

from .errors import CertificateError, DocumentError, ExprError, IntegralityError, MissingChernNumber
from .literals import INTEGER, check_space, digest, in_range, parse_gammas, parse_integer
from .record import Interval

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
    if isinstance(value, Interval):
        return str(value.lo) if value.lo == value.hi else [str(value.lo), str(value.hi)]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        str(value)  # the check: raises ValueError past the digit limit
        return value
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return str(value)


def _flat_str(value):
    if isinstance(value, list):
        return "[" + ", ".join(map(str, value)) + "]"
    return str(value)


def _doc_from_args(args):
    from .inputdoc import load_document, load_file

    return load_file(args.input) if args.input else load_document({})


# -- subcommands --------------------------------------------------------------
# A reporting handler returns (inputs, results); _run builds the report.


def cmd_genus(args):
    from . import genus

    doc = _doc_from_args(args)
    x = doc.require("manifold")
    e = doc.bundle or genus.BundleData.trivial()
    return doc.raw, {
        "td": genus.todd_class(x),
        "ch": genus.chern_character(e, x.spec, x.n),
        "chi_p": list((chi := genus.chi_y(x, e)).padded(x.n + 1)),
        "chi_y": chi,
        "euler_characteristic": chi(-1),
    }


def cmd_kcoeffs(args):
    from . import genus

    doc = _doc_from_args(args)
    x = doc.require("manifold")
    e = doc.bundle or genus.BundleData.trivial()
    ks = genus.k_coefficients(genus.chi_y(x, e), upto=x.n)
    results = {"K": ks, "k1_closed_form_matches": genus.k1_formula_check(x, e, ks)}
    if x.n == 2:
        results["k2_surface_form_matches"] = genus.k2_surface_formula_check(x, e, ks)
    return doc.raw, results


def cmd_hilbert(args):
    from . import genus

    doc = _doc_from_args(args)
    x = doc.require("manifold")
    line = doc.require("line_bundle")
    P = genus.hilbert_polynomial(x, line, in_range(args.p, x.n, "--p"))
    return doc.raw, {"p": args.p, "polynomial": P, "coefficients": list(P.padded(x.n + 1))}


def cmd_ineq(args):
    from . import genus

    doc = _doc_from_args(args)
    x = doc.require("manifold")
    e = doc.bundle or genus.BundleData.trivial()
    js = [in_range(args.j, x.n, "--j")] if args.j is not None else list(range(x.n + 1))
    ks = genus.k_coefficients(genus.chi_y(x, e), upto=x.n)
    rows = []
    for j in js:
        holds, lhs, rhs = genus.chern_inequality_check(ks, j)
        rows.append({"j": j, "lhs": lhs, "rhs": rhs, "holds": holds})
    return doc.raw, {"inequalities": rows}


def cmd_commutator(args):
    from .diagonal import DiagonalCurvature, commutator_norm, flatness_test

    if args.gammas is not None:
        if args.input:
            raise DocumentError("--gammas and --input both give a curvature: give one")
        inputs, spec = {"gammas": args.gammas}, parse_gammas(args.gammas.split(","), "--gammas")
    else:
        doc = _doc_from_args(args)
        inputs, spec = doc.raw, doc.require("curvature")
    norm = commutator_norm(spec)
    table = [{"p": p, "q": q, "value": v} for (p, q), v in sorted(norm.table.items())]
    results = {"C": norm.value, "exact": norm.exact, "C_pq": table}
    if isinstance(spec, DiagonalCurvature):
        results["flat"] = flatness_test(spec)
    return inputs, results


def cmd_lefschetz_check(args):
    n, r = args.n, args.r
    try:
        check_space(n, r)
    except ValueError as exc:
        raise DocumentError(f"--n {n} --r {r}: {exc}") from None
    from . import sl2

    results = {"sl2_commutator": sl2.sl2_commutator_check(n, r)}
    if n <= 3:
        results["star_unitary"], results["star_conjugation_gives_lambda"] = sl2.star_identities(n, r)
    else:
        warnings.warn("star identity check skipped for n > 3 (cost)")
    scan = sorted(sl2.injectivity_scan(n, r).items())
    results["injectivity"] = [{"p": p, "q": q, "injective": ok} for (p, q), ok in scan]
    powers = [sl2.lefschetz_power(n, r, k) for k in range(n + 1)]
    keys = ("k", "bijective", "sigma_min", "sigma_max")
    results["lefschetz_powers"] = [{key: getattr(lp, key) for key in keys} for lp in powers]
    return {"n": n, "r": r}, results


def cmd_bounds(args):
    """The hypotheses on n, K, C and c_n are checked first, then bounds.p,
    then the data of X and L that the chosen bound reads."""
    from .bounds import bound_C1, bound_T2, bound_T4, bound_T5, e_theta_interval, root_report, t4_chain

    doc = _doc_from_args(args)
    which, b, p = args.which, doc.bounds_input(), doc.bounds_p
    if which == "t4":
        results = {"bound_T4": bound_T4(b)}
    elif which == "t2":
        c1sq = doc.bound("c1sq_L")
        results = {"c1sq_L": c1sq, "bound_T2": bound_T2(b, c1sq)}
    elif which in ("t5", "c1"):
        a_n, chi_p = doc.bound("a_n"), doc.bound("chi_p")
        rr = root_report(doc.bound("hilbert"), chi_p[p])
        if which == "t5":
            results = {"m_p": rr.m_p, "bound_T5": bound_T5(b, a_n, rr.m_p)}
        else:
            plus, minus = bound_C1(b, a_n, rr.c_plus), bound_C1(b, a_n, rr.c_minus)
            results = {"C_plus": rr.c_plus, "C_minus": rr.c_minus, "bound_C1_plus": plus, "bound_C1_minus": minus}
    elif which == "etheta":
        chi = Fraction(doc.bound("chi"))
        lower, upper = e_theta_interval(b, int(chi))
        results = {"chi": chi, "E_theta_lower_enclosure": lower, "E_theta_upper_enclosure": upper}
    else:  # t4chain
        chi_p = doc.bound("chi_p")
        report = t4_chain(b, doc.bound("hilbert"), chi_p[p], p)
        results = {key: getattr(report, key) for key in ("p", "N", "m_tilde", "delta", "branch", "bound")}
    return doc.raw, results


def cmd_verify(args):
    from . import selfcheck

    results = selfcheck.run_all()
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else ""))
    passed = sum(ok for _, ok, _ in results)
    print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1


def cmd_fixture(args):
    from .inputdoc import cp_fixture

    text = json.dumps(cp_fixture(args.n), indent=2, sort_keys=True)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise DocumentError(f"--out: cannot write {args.out}: {exc}") from None
        print(f"wrote {args.out}")
    else:
        print(text)


# -- dispatcher ---------------------------------------------------------------


OUTPUT = {"--output": (("text", "machine"), "text")}
DOCUMENT = {"--input": (str, None), **OUTPUT}


def build_parser() -> dict:
    """The command table: subcommand -> (handler, help, flags, positionals).

    ``flags`` maps each flag to (type, default), where the type is ``int``,
    ``str`` or a tuple of choices and a default of ``...`` makes the flag
    required; ``positionals`` lists (name, type) pairs in order.
    """
    return {
        "genus": (cmd_genus, "Todd class, Chern character, chi_y, chi^p", DOCUMENT, ()),
        "kcoeffs": (cmd_kcoeffs, "Taylor coefficients of chi_y at y = -1", DOCUMENT, ()),
        "hilbert": (cmd_hilbert, "p-Hilbert polynomial of the line bundle", {**DOCUMENT, "--p": (int, 0)}, ()),
        "ineq": (cmd_ineq, "Chern number inequality checker", {**DOCUMENT, "--j": (int, None)}, ()),
        "commutator": (
            cmd_commutator, "C = |[Lambda, iTheta]| and C_pq table", {**DOCUMENT, "--gammas": (str, None)}, ()
        ),
        "lefschetz-check": (
            cmd_lefschetz_check, "sl2 / star / injectivity / power scans",
            {**OUTPUT, "--n": (int, ...), "--r": (int, 1)}, (),
        ),
        "bounds": (
            cmd_bounds, "Euler-characteristic bound evaluators",
            {**DOCUMENT, "--which": (("t2", "t4", "t5", "c1", "etheta", "t4chain"), ...)}, (),
        ),
        "verify": (cmd_verify, "run the built-in property suites", {}, ()),
        "fixture": (cmd_fixture, "emit a builtin input document", {"--out": (str, None)}, (("KIND", ("cp",)), ("N", int))),
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
    fn, _, flags, positionals = table[name]
    values, words = {}, []
    for token in tokens:
        if token in ("-h", "--help"):
            return _help(table, name)
        if not token.startswith("-") or INTEGER.fullmatch(token):
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
    return SimpleNamespace(fn=fn, command=name, **{key.lstrip("-").lower(): v for key, v in values.items()})


def _help(table: dict, name=None) -> str:
    """The list of subcommands, or the positionals and flags of one."""
    if name is None:
        rows = [f"  {key:<16} {entry[1]}" for key, entry in table.items()]
        return "\n".join(["usage: hlab <subcommand> [flags]; hlab <subcommand> --help lists its flags", *rows])
    _, text, flags, positionals = table[name]
    rows = [(key, kind, ...) for key, kind in positionals] + [(flag, *spec) for flag, spec in flags.items()]
    lines = [f"usage: hlab {' '.join([name, *(pos for pos, _ in positionals)])} [flags]", text]
    for key, kind, default in rows:
        meta = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else "INT" if kind is int else "TEXT"
        note = "required" if default is ... else "optional" if default is None else f"default {default}"
        lines.append(f"  {key:<10} {meta} ({note})")
    return "\n".join(lines)


def _run(argv: list) -> int:
    args = _parse(build_parser(), argv)
    if isinstance(args, str):  # the help text
        print(args)
        return 0
    if "output" not in vars(args):  # verify and fixture print their own output
        return args.fn(args) or 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        inputs, results = args.fn(args)
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


if __name__ == "__main__":
    sys.exit(main())
