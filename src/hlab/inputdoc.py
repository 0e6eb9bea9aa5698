"""Structured input documents: JSON trees describing rings, Chern data,
curvature and bound parameters.

Rationals always travel as strings ("3/4" or "2") so no float ever enters
the pipeline; expressions are parsed over the declared generators.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass, field
from math import comb
from typing import Any, Optional

from .bounds import BoundsInput
from .exprparse import parse_expression, parse_monomial_key, parse_rational
from .genus import BundleData, FundamentalClass, ManifoldData
from .lefschetz import CQ, CurvatureSpec, DiagonalCurvature, HermitianCurvature
from .qpoly import QPoly
from .ring import GradedElement, RingSpec

MAX_DOC_DIMENSION = 12  # polynomial-degree guard rail for desk-scale inputs


class DocumentError(ValueError):
    """Malformed input document."""


def canonical_json(tree: Any) -> str:
    return json.dumps(tree, sort_keys=True, separators=(",", ":"))


def digest(tree: Any) -> str:
    return hashlib.sha256(canonical_json(tree).encode()).hexdigest()


@dataclass
class InputDocument:
    """Parsed engine inputs plus the raw tree they came from."""

    raw: dict
    spec: Optional[RingSpec] = None
    manifold: Optional[ManifoldData] = None
    bundle: Optional[BundleData] = None
    line_bundle: Optional[BundleData] = None
    curvature: Optional[CurvatureSpec] = None
    bounds_raw: Optional[dict] = None
    load_warnings: list[str] = field(default_factory=list)

    @property
    def digest(self) -> str:
        return digest(self.raw)

    def require(self, name: str):
        value = getattr(self, name)
        if value is None:
            raise DocumentError(f"this command needs a {name!r} section in the input")
        return value

    def bounds_input(self, **computed) -> BoundsInput:
        """Assemble a BoundsInput from the document, allowing computed fields
        (a_n, chi_p) to be supplied by the caller unless the document
        overrides them."""
        raw = self.require("bounds_raw")
        n = self.spec.truncation if self.spec else raw.get("n")
        if "n" in raw:
            n = int(raw["n"])
        if n is None:
            raise DocumentError("bounds need a dimension (ring section or bounds.n)")
        if n > MAX_DOC_DIMENSION:
            raise DocumentError(
                f"dimension {n} exceeds the guard rail {MAX_DOC_DIMENSION}"
            )
        fields = dict(computed)
        for key in ("K", "C", "c_n", "a_n"):
            if key in raw:
                fields[key] = parse_rational(raw[key])
        if "chi_p" in raw:
            chi_p = _json_list(raw["chi_p"], "bounds.chi_p")
            fields["chi_p"] = tuple(parse_rational(v) for v in chi_p)
        if "hilbert" in raw:
            if not isinstance(raw["hilbert"], dict):
                raise DocumentError("bounds.hilbert must be a JSON object of coefficient lists")
            fields["hilbert"] = {
                int(p): QPoly(
                    [parse_rational(c) for c in _json_list(coeffs, f"bounds.hilbert.{p}")]
                )
                for p, coeffs in raw["hilbert"].items()
            }
        missing = [k for k in ("K", "C", "c_n") if k not in fields]
        if missing:
            raise DocumentError(f"bounds section is missing {missing}")
        return BoundsInput(n=n, **fields)

    @property
    def bounds_p(self) -> int:
        raw = self.require("bounds_raw")
        return int(raw.get("p", 0))


def _json_list(value, path: str) -> list:
    """A string is not a list of its characters: require a JSON list."""
    if not isinstance(value, list):
        raise DocumentError(f"{path} must be a JSON list, got {value!r}")
    return value


def _parse_ring(tree: dict) -> RingSpec:
    try:
        gens = tuple((g["name"], int(g["weight"])) for g in tree["generators"])
        dim = int(tree["dimension"])
    except (KeyError, TypeError) as exc:
        raise DocumentError(f"bad ring section: {exc}") from None
    if dim > MAX_DOC_DIMENSION:
        raise DocumentError(f"dimension {dim} exceeds the guard rail {MAX_DOC_DIMENSION}")
    return RingSpec(gens, dim)


def _parse_class_map(tree: dict, spec: RingSpec, prefix: str, count: int) -> list[GradedElement]:
    out = []
    for i in range(1, count + 1):
        key = f"{prefix}{i}"
        if key in tree:
            out.append(parse_expression(str(tree[key]), spec))
        else:
            out.append(spec.zero())
    unknown = set(tree) - {f"{prefix}{i}" for i in range(1, count + 1)}
    if unknown:
        raise DocumentError(f"unknown Chern-class keys {sorted(unknown)}")
    return out


def load_document(tree: dict) -> InputDocument:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        doc = _load_document(tree)
    doc.load_warnings = [str(w.message) for w in caught]
    return doc


def _load_document(tree: dict) -> InputDocument:
    if not isinstance(tree, dict):
        raise DocumentError("input document must be a JSON object")
    doc = InputDocument(raw=tree)
    if "ring" in tree:
        doc.spec = _parse_ring(tree["ring"])
    if "fundamental_class" in tree:
        if doc.spec is None:
            raise DocumentError("fundamental_class needs a ring section")
        table = {}
        for key, value in tree["fundamental_class"].items():
            try:
                table[parse_monomial_key(key, doc.spec)] = parse_rational(value)
            except ValueError as exc:  # ExprError included
                raise DocumentError(f"fundamental_class[{key!r}]: {exc}") from None
        fclass = FundamentalClass(doc.spec, table)
        if "manifold" in tree:
            chern = _parse_class_map(
                tree["manifold"].get("chern", {}), doc.spec, "c", doc.spec.truncation
            )
            doc.manifold = ManifoldData(doc.spec.truncation, tuple(chern), fclass)
    elif "manifold" in tree:
        raise DocumentError("a manifold needs a fundamental_class table")
    if "bundle" in tree:
        if doc.spec is None:
            raise DocumentError("bundle needs a ring section")
        rank = int(tree["bundle"].get("rank", 1))
        chern = _parse_class_map(tree["bundle"].get("chern", {}), doc.spec, "c", rank)
        while chern and chern[-1].is_zero():
            chern.pop()
        doc.bundle = BundleData(rank, tuple(chern))
    if "line_bundle" in tree:
        if doc.spec is None:
            raise DocumentError("line_bundle needs a ring section")
        c1 = parse_expression(str(tree["line_bundle"].get("c1", "0")), doc.spec)
        doc.line_bundle = BundleData(1, (c1,) if not c1.is_zero() else ())
    if "curvature" in tree:
        doc.curvature = _parse_curvature(tree["curvature"])
    if "bounds" in tree:
        doc.bounds_raw = dict(tree["bounds"])
    return doc


def _parse_curvature(tree) -> CurvatureSpec:
    if not isinstance(tree, dict):
        raise DocumentError("curvature must be a JSON object")
    if "gammas" in tree:
        gammas = _json_list(tree["gammas"], "curvature.gammas")
        try:
            return DiagonalCurvature(tuple(parse_rational(g) for g in gammas))
        except ValueError as exc:
            raise DocumentError(f"curvature.gammas: {exc}") from None
    if "hermitian" in tree:
        herm = tree["hermitian"]
        theta = herm.get("theta") if isinstance(herm, dict) else None
        try:
            return HermitianCurvature(_nested_lists(theta, 3))
        except ValueError as exc:  # DocumentError included: its message has no path
            raise DocumentError(f"curvature.hermitian.theta: {exc}") from None
    raise DocumentError("curvature needs either 'gammas' or 'hermitian'")


def _nested_lists(node, depth: int):
    """Nested tuples of complex entries; every level above the entries must
    be a JSON list (theta[j][k][a][b] has depth 3 above its entries)."""
    if not isinstance(node, list):
        raise DocumentError("must be an n x n array of r x r matrices (nested JSON lists)")
    if depth == 0:
        return tuple(_parse_cq(x) for x in node)
    return tuple(_nested_lists(x, depth - 1) for x in node)


def _parse_cq(entry) -> CQ:
    if isinstance(entry, (list, tuple)):
        if len(entry) != 2:
            raise DocumentError(f"complex entry {entry!r} must be [re, im]")
        return CQ(parse_rational(entry[0]), parse_rational(entry[1]))
    return CQ(parse_rational(entry))


def load_file(path: str) -> InputDocument:
    try:
        with open(path) as fh:
            tree = json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path} is not valid JSON: {exc}") from None
    return load_document(tree)


# -- builtin fixtures -----------------------------------------------------------


def cp_fixture(n: int) -> dict:
    """The complex projective space document: c(TX) = (1+h)^{n+1}, int h^n = 1."""
    if n < 1:
        raise DocumentError("projective space needs n >= 1")
    if n > MAX_DOC_DIMENSION:
        raise DocumentError(f"dimension {n} exceeds the guard rail {MAX_DOC_DIMENSION}")
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
