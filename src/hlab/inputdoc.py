"""Structured input documents: JSON trees describing rings, Chern data,
curvature and bound parameters.

This module reads the JSON tree; the one part it hands on is the theta
array of Hermitian curvature, which ``hlab.hermitian.read_theta`` reads next
to the record it feeds, so a document without one compiles no reader for
it.  Every section is parsed once, at load time, so a malformed section is
an input error for every command: a :class:`DocumentError` naming the JSON
path at fault.  A rational is a JSON
int or a "p/q" string and an integer field a JSON int or a decimal string,
so no float ever enters the pipeline.  Those literal rules live in
``hlab.literals``, shared with the command-line flags; the expression parser
(``exprparse``) and each section's engine load only where a section needs
them.  ``hlab.bounds.bound_input`` alone decides where each bound input
comes from.  An expression truncated at the ring's dimension emits the
parser's ``TruncationWarning`` to the caller as an ordinary Python warning;
the command line records it in the report.
"""

from __future__ import annotations

import json
import re
from math import comb
from reprlib import repr as _show
from typing import TYPE_CHECKING, Any, Optional

from .errors import DocumentError
from .literals import _at, _list, _rational, _rationals, in_range, parse_gammas, parse_integer, parse_rational
from .literals import digest  # noqa: F401 - re-exported: its home is literals

if TYPE_CHECKING:  # each section's reader imports its engine when called
    from .bounds import BoundsInput
    from .genus import BundleData, ManifoldData
    from .hermitian import CurvatureSpec
    from .qpoly import QPoly
    from .ring import RingSpec

MAX_DOC_DIMENSION = 12  # polynomial-degree guard rail for desk-scale inputs


# -- the reader: type checks ---------------------------------------------------


def _object(value, path: str, fields=None) -> dict:
    """A JSON object; given its ``fields``, one with no other key, so a
    misspelt field is refused rather than read as absent."""
    if not isinstance(value, dict):
        raise DocumentError(f"{path} must be a JSON object, got {_show(value)}")
    if fields is not None and (unknown := [key for key in value if key not in fields]):
        raise DocumentError(f"{path} has no field {_show(unknown[0])}: its fields are {', '.join(fields)}")
    return value


def _dimension(value, path: str) -> int:
    n = parse_integer(value, path)
    if not 1 <= n <= MAX_DOC_DIMENSION:
        raise DocumentError(f"{path}: dimension {n} is outside the guard rail [1, {MAX_DOC_DIMENSION}]")
    return n


def _integers(value, path: str) -> tuple[int, ...]:
    return tuple(parse_integer(v, f"{path}[{i}]") for i, v in enumerate(_list(value, path)))


def _chern_classes(node, spec: RingSpec, count: int, path: str, length: int = 0) -> list:
    """[c_1, c_2, ...] from {"c<i>": expression}, 1 <= i <= count, through the
    highest nonzero class given and at least ``length`` long; omitted classes are 0."""
    from .exprparse import parse_expression

    given = {}
    for key, value in _object(node, path).items():
        match = re.fullmatch(r"c([1-9][0-9]{0,3})", key)
        if not match or int(match[1]) > count:
            raise DocumentError(f"{path}.{key} is not a Chern-class key c1..c{count}")
        if not isinstance(value, str):
            raise DocumentError(f"{path}.{key} must be an expression string, got {_show(value)}")
        with _at(f"{path}.{key}"):
            given[int(match[1])] = parse_expression(value, spec)
    top = max([length, *(i for i, c in given.items() if not c.is_zero())])
    return [given.get(i, spec.zero()) for i in range(1, top + 1)]


# -- the document ---------------------------------------------------------------


def _hilbert(node, path: str) -> dict[int, QPoly]:
    from .qpoly import QPoly

    polys = _object(node, path).items()
    return {parse_integer(p, f"{path}.{p}"): QPoly(_rationals(cs, f"{path}.{p}")) for p, cs in polys}


# The top-level fields of a document.
_SECTIONS = ("ring", "fundamental_class", "manifold", "bundle", "line_bundle", "curvature", "bounds")

# The bounds section, field by field with its reader; InputDocument.bounds maps
# each field the document gives to its parsed value.
_BOUNDS_READERS = {
    "n": _dimension, "p": parse_integer, "chi": parse_integer, "chi_p": _integers, "hilbert": _hilbert,
    **dict.fromkeys(("K", "C", "c_n", "a_n", "c1sq_L"), _rational),
}


class InputDocument:
    """Parsed engine inputs plus the raw tree they came from."""

    def __init__(self, raw: dict):
        self.raw = raw
        self.spec: Optional[RingSpec] = None
        self.manifold: Optional[ManifoldData] = None
        self.bundle: Optional[BundleData] = None
        self.line_bundle: Optional[BundleData] = None
        self.curvature: Optional[CurvatureSpec] = None
        self.bounds: Optional[dict[str, Any]] = None

    def require(self, name: str):
        value = getattr(self, name)
        if value is None:
            raise DocumentError(f"this command needs a {name!r} section in the input")
        return value

    def bounds_input(self) -> BoundsInput:
        """The hypotheses n, K, C and c_n, checked by BoundsInput; the data of
        X and L that a bound reads are got by :func:`hlab.bounds.bound_input`."""
        from .bounds import BoundsInput, bound_input

        section = self.require("bounds")
        if missing := [k for k in ("K", "C", "c_n") if k not in section]:
            raise DocumentError(f"bounds section is missing {missing}")
        return BoundsInput(bound_input(self, "n"), section["K"], section["C"], section["c_n"])

    @property
    def bounds_p(self) -> int:
        from .bounds import bound_input

        return in_range(self.require("bounds").get("p", 0), bound_input(self, "n"), "bounds.p")


def load_document(tree: dict) -> InputDocument:
    doc = InputDocument(raw=_object(tree, "the input document", _SECTIONS))
    for key in ("fundamental_class", "manifold", "bundle", "line_bundle"):
        if key in tree and "ring" not in tree:
            raise DocumentError(f"{key} needs a ring section")
    if "manifold" in tree and "fundamental_class" not in tree:
        raise DocumentError("a manifold needs a fundamental_class table")
    if "ring" in tree:  # every section read below until curvature needs the ring
        from .genus import BundleData, FundamentalClass, ManifoldData

        doc.spec = spec = _ring(_object(tree["ring"], "ring", ("generators", "dimension")))
    if "fundamental_class" in tree:
        from .exprparse import parse_monomial_key

        table = {}
        for key, value in _object(tree["fundamental_class"], "fundamental_class").items():
            with _at(f"fundamental_class.{key}"):
                exps = parse_monomial_key(key, spec)
                if exps in table:
                    raise DocumentError(f"fundamental_class.{key} repeats the monomial of another key")
                table[exps] = parse_rational(value)
        with _at("fundamental_class"):
            fclass = FundamentalClass(spec, table)
    if "manifold" in tree:
        node = _object(tree["manifold"], "manifold", ("chern",)).get("chern", {})
        chern = _chern_classes(node, spec, spec.truncation, "manifold.chern", spec.truncation)
        with _at("manifold.chern"):
            doc.manifold = ManifoldData(spec.truncation, tuple(chern), fclass)
    if "bundle" in tree:
        node = _object(tree["bundle"], "bundle", ("rank", "chern"))
        rank = parse_integer(node.get("rank", 1), "bundle.rank")
        chern = _chern_classes(node.get("chern", {}), spec, rank, "bundle.chern")
        with _at("bundle"):
            doc.bundle = BundleData(rank, tuple(chern))
    if "line_bundle" in tree:
        c1 = _object(tree["line_bundle"], "line_bundle", ("c1",)).get("c1", "0")
        with _at("line_bundle"):
            doc.line_bundle = BundleData(1, tuple(_chern_classes({"c1": c1}, spec, 1, "line_bundle")))
    if "curvature" in tree:
        doc.curvature = _curvature(_object(tree["curvature"], "curvature", ("gammas", "hermitian")))
    if "bounds" in tree:
        node = _object(tree["bounds"], "bounds", tuple(_BOUNDS_READERS))
        doc.bounds = {key: read(node[key], f"bounds.{key}") for key, read in _BOUNDS_READERS.items() if key in node}
    return doc


def _ring(node: dict) -> RingSpec:
    from .ring import RingSpec

    gens = []
    for i, gen in enumerate(_list(node.get("generators"), "ring.generators")):
        gen = _object(gen, f"ring.generators[{i}]", ("name", "weight"))
        if not isinstance(gen.get("name"), str):
            raise DocumentError(f"ring.generators[{i}].name must be a string")
        gens.append((gen["name"], parse_integer(gen.get("weight"), f"ring.generators[{i}].weight")))
    dim = _dimension(node.get("dimension"), "ring.dimension")
    with _at("ring.generators"):
        return RingSpec(tuple(gens), dim)


def _curvature(node: dict) -> CurvatureSpec:
    if ("gammas" in node) == ("hermitian" in node):
        raise DocumentError("curvature needs one of 'gammas' and 'hermitian', not both or neither")
    if "gammas" in node:
        return parse_gammas(node["gammas"], "curvature.gammas")
    from .hermitian import HermitianCurvature, read_theta

    herm = _object(node["hermitian"], "curvature.hermitian", ("theta",))
    theta = read_theta(herm.get("theta"), "curvature.hermitian.theta")
    with _at("curvature.hermitian.theta"):
        return HermitianCurvature(theta)


def load_file(path: str) -> InputDocument:
    try:
        with open(path) as fh:
            tree = json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
        raise DocumentError(f"{path} is not valid JSON: {exc}") from None
    return load_document(tree)


# -- builtin fixtures -----------------------------------------------------------


def cp_fixture(n: int) -> dict:
    """The complex projective space document: c(TX) = (1+h)^{n+1}, int h^n = 1."""
    _dimension(n, "cp fixture n")
    chern = {}
    for i in range(1, n + 1):
        coeff = comb(n + 1, i)
        mono = "h" if i == 1 else f"h^{i}"
        chern[f"c{i}"] = mono if coeff == 1 else f"{coeff}*{mono}"
    return {
        "ring": {"generators": [{"name": "h", "weight": 1}], "dimension": n},
        "manifold": {"chern": chern},
        "bundle": {"rank": 1, "chern": {}},
        "fundamental_class": {("h" if n == 1 else f"h^{n}"): "1"},
        "line_bundle": {"c1": "h"},
    }


def write_fixture(n: int, out: str | None):
    """``hlab fixture cp N``: the CP^n document, printed or written to ``out``."""
    text = json.dumps(cp_fixture(n), indent=2, sort_keys=True)
    if not out:
        print(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise DocumentError(f"--out: cannot write {out}: {exc}") from None
    print(f"wrote {out}")
