"""Structured input documents: JSON trees describing rings, Chern data,
curvature and bound parameters.

This module reads the JSON tree and its ``bounds`` section.  Each other
section is read next to the records it feeds, and that reader loads only
with its section: the ring-side sections (``ring``, ``fundamental_class``,
``manifold``, ``bundle``, ``line_bundle``) by ``genus.read_ring_sections``,
``curvature`` by ``diagonal.read_curvature``, its Hermitian part by
``hermitian.read_hermitian``.  So a document without a ring compiles no
ring-side reader, and one without curvature no curvature reader.  Every
section is parsed once, at load time, so a malformed section is an input
error for every command: a :class:`DocumentError` naming the JSON path at
fault.  A rational is a JSON int or a "p/q" string and an integer field a
JSON int or a decimal string, so no float ever enters the pipeline.  Those
literal rules live in ``hlab.literals``, shared with the command-line
flags.  Each section's engine loads only where a section needs it, and the
expression parser (``exprparse``) only for an expression or a
``fundamental_class`` key outside the form the ring prints, which the
ring's own readers (``RingSpec.read_element``, ``RingSpec.read_monomial``)
take without it.  The ``bounds`` section is parsed here, field by field,
and read nowhere else here: ``hlab.bounds.bound_input`` alone decides where
each bound input (n, p, K, C, c_n and the data of X and L) comes from and
how it is checked.  An expression truncated at the ring's
dimension emits the parser's ``TruncationWarning`` to the caller as an
ordinary Python warning; the command line records it in the report.
"""

from __future__ import annotations

import json
from reprlib import repr as _show
from typing import TYPE_CHECKING, Any, Optional

from .errors import DocumentError
from .literals import _dimension, _list, _rational, _rationals, parse_integer
from .literals import digest  # noqa: F401 - re-exported: its home is literals

if TYPE_CHECKING:  # each section's reader imports its engine when called
    from .bounds import BoundsInput
    from .genus import BundleData, ManifoldData
    from .hermitian import CurvatureSpec
    from .qpoly import QPoly
    from .ring import RingSpec


# -- the reader: type checks ---------------------------------------------------


def _object(value, path: str, fields=None) -> dict:
    """A JSON object; given its ``fields``, one with no other key, so a
    misspelt field is refused rather than read as absent."""
    if not isinstance(value, dict):
        raise DocumentError(f"{path} must be a JSON object, got {_show(value)}")
    if fields is not None and (unknown := [key for key in value if key not in fields]):
        raise DocumentError(f"{path} has no field {_show(unknown[0])}: its fields are {', '.join(fields)}")
    return value


def in_range(value: int, n: int, path: str) -> int:
    """A form degree (``--p``, ``--j``, ``bounds.p``) of an n-fold: in [0, n]."""
    if not 0 <= value <= n:
        raise DocumentError(f"{path} = {value} is outside [0, {n}]")
    return value


# -- the bounds section -----------------------------------------------------------


def _integers(value, path: str) -> tuple[int, ...]:
    return tuple(parse_integer(v, f"{path}[{i}]") for i, v in enumerate(_list(value, path)))


def _hilbert(node, path: str) -> dict[int, QPoly]:
    from .qpoly import QPoly

    polys = _object(node, path).items()
    return {parse_integer(p, f"{path}.{p}"): QPoly(_rationals(cs, f"{path}.{p}")) for p, cs in polys}


# -- the document ---------------------------------------------------------------

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
        """The hypotheses n, K, C and c_n, each got in that order by
        :func:`hlab.bounds.bound_input` and then checked by BoundsInput."""
        from .bounds import BoundsInput, bound_input

        return BoundsInput(*(bound_input(self, k) for k in ("n", "K", "C", "c_n")))


def load_document(tree: dict) -> InputDocument:
    doc = InputDocument(raw=_object(tree, "the input document", _SECTIONS))
    for key in ("fundamental_class", "manifold", "bundle", "line_bundle"):
        if key in tree and "ring" not in tree:
            raise DocumentError(f"{key} needs a ring section")
    if "ring" in tree:  # every section read there needs the ring
        from .genus import read_ring_sections

        read_ring_sections(tree, doc)
    if "curvature" in tree:
        from .diagonal import read_curvature

        doc.curvature = read_curvature(tree["curvature"])
    if "bounds" in tree:
        node = _object(tree["bounds"], "bounds", tuple(_BOUNDS_READERS))
        doc.bounds = {key: read(node[key], f"bounds.{key}") for key, read in _BOUNDS_READERS.items() if key in node}
    return doc


def load_file(path: str) -> InputDocument:
    try:
        with open(path) as fh:
            tree = json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
        raise DocumentError(f"{path} is not valid JSON: {exc}") from None
    return load_document(tree)


def load_input(path: str | None) -> InputDocument:
    """The document of ``--input``, or the empty document when none is given."""
    return load_file(path) if path else load_document({})
