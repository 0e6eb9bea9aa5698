"""Hirzebruch-Riemann-Roch engine over formal Chern data.

A "manifold" here is a dimension, a list of Chern classes in a truncated
graded ring, and a table of Chern numbers (the fundamental-class
functional).  No geometry is verified: consistency of the table is the
caller's burden and the only sanity check is that every holomorphic Euler
characteristic comes out an integer.

The ring-side sections of an input document (``ring``,
``fundamental_class``, ``manifold``, ``bundle``, ``line_bundle``) are read
here, next to the records they feed (:func:`read_ring_sections`), so a
document without a ring compiles no reader for them.  ``hlab genus``,
``kcoeffs``, ``hilbert`` and ``ineq`` share one handler
(:func:`run_command`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import comb, factorial
from operator import add
from reprlib import repr as _show
from typing import TYPE_CHECKING, Mapping, Sequence, Union

from .errors import DocumentError, IntegralityError, MissingChernNumber
from .literals import _at, _dimension, _list, is_digits, parse_integer, parse_rational
from .qpoly import QPoly, is_integer_valued
from .record import Record
from .ring import (
    GradedElement,
    RingSpec,
    genus_product,
    linear_combination,
    newton_rung,
    power_sums_from_elementary,
    todd_log,
)

if TYPE_CHECKING:
    from .inputdoc import InputDocument

Scalar = Union[int, Fraction]


class FundamentalClass(Record):
    """Linear functional on top-weight monomials: the integral over X."""

    spec: RingSpec
    assignments: Mapping[tuple[int, ...], Fraction]

    def __post_init__(self):
        table = {}
        n = self.spec.truncation
        for exps, value in self.assignments.items():
            exps = tuple(exps)
            if self.spec.weight_of(exps) != n:
                raise ValueError(
                    f"monomial {self.spec.monomial_name(exps)} has weight "
                    f"{self.spec.weight_of(exps)}, expected {n}"
                )
            table[exps] = Fraction(value)
        object.__setattr__(self, "assignments", table)


def _check_rings(fclass: FundamentalClass, *elements: GradedElement):
    if any(x.spec != fclass.spec for x in elements):
        raise ValueError("element and fundamental class use different rings")


def _pair_top(top: Mapping[tuple[int, ...], int], den: int, fclass: FundamentalClass) -> Fraction:
    """Apply the Chern-number table to top-weight numerators over ``den``.

    Only nonzero coefficients are looked up, so a monomial that cancelled
    needs no table entry; a missing one is an error naming the first such
    monomial in graded-lexicographic order.
    """
    total = Fraction(0)
    missing = []
    for exps, coeff in top.items():
        if not coeff:
            continue
        value = fclass.assignments.get(exps)
        if value is None:
            missing.append(exps)
        else:
            total += coeff * value
    if missing:
        raise MissingChernNumber(fclass.spec.monomial_name(max(missing)))
    return total / den


def integrate(x: GradedElement, fclass: FundamentalClass) -> Fraction:
    """Apply the fundamental class to the top-weight part of ``x``.

    Terms of weight below the truncation are ignored; a top-weight monomial
    with no table entry is an error naming the offending monomial.
    """
    _check_rings(fclass, x)
    return _pair_top(x.parts.get(x.spec.truncation, {}), x.den, fclass)


def integrate_product(a: GradedElement, b: GradedElement, fclass: FundamentalClass) -> Fraction:
    """The integral of ``a * b`` without forming the product.

    Only the weight-w part of ``a`` meets the weight-(n - w) part of ``b``;
    each top monomial's coefficient is summed before the table is consulted,
    so this raises :class:`MissingChernNumber` exactly when
    ``integrate(a * b, fclass)`` does.
    """
    _check_rings(fclass, a, b)
    n = fclass.spec.truncation
    top: dict[tuple[int, ...], int] = {}
    for w, part in a.parts.items():
        for e1, n1 in part.items():
            for e2, n2 in b.parts.get(n - w, {}).items():
                e = tuple(map(add, e1, e2))
                top[e] = top.get(e, 0) + n1 * n2
    return _pair_top(top, a.den * b.den, fclass)


class ManifoldData(Record):
    """Complex dimension, Chern classes c_1..c_n of TX, and the integral."""

    n: int
    chern: tuple[GradedElement, ...]
    fclass: FundamentalClass

    def __post_init__(self):
        object.__setattr__(self, "chern", tuple(self.chern))
        if self.n < 1:
            raise ValueError("dimension must be positive")
        if len(self.chern) != self.n:
            raise ValueError(f"need c_1..c_{self.n}, got {len(self.chern)} classes")
        for i, c in enumerate(self.chern, start=1):
            if not c.is_homogeneous(i):
                raise ValueError(f"c_{i}(X) is not homogeneous of weight {i}")
        if self.fclass.spec.truncation != self.n:
            raise ValueError("fundamental class truncation disagrees with n")

    @property
    def spec(self) -> RingSpec:
        return self.fclass.spec

    # The cached properties below are computed once per manifold and shared
    # by every invariant taken on it; they live in the instance __dict__, so
    # equality and hashing still see only the three fields.

    @cached_property
    def _power_sums(self) -> tuple[GradedElement, ...]:
        return tuple(power_sums_from_elementary(list(self.chern), self.n))

    @cached_property
    def td(self) -> GradedElement:
        """td(X): the Todd genus product over the Chern roots of TX."""
        return genus_product(todd_log(self.n), self._power_sums)

    @cached_property
    def _ladder(self) -> tuple[list, list]:
        """The Hodge ladder as far as :meth:`hodge_class` has built it: the
        power sums [P_1, ...] of u and [e_0(u) = 1, e_1(u), ...]."""
        return [], [self.spec.one()]

    def hodge_class(self, p: int) -> GradedElement:
        """ch Omega^p, the p-th exterior power of the cotangent bundle.

        ch Omega^p = e_p(1 + u) = sum_{m <= p} C(n - m, p - m) e_m(u), with
        u_i = e^{-gamma_i} - 1.  As (e^x - 1)^k / k! = sum_j S(j, k) x^j / j!
        (S: Stirling numbers of the second kind), the power sums of u are
        P_k = sum_{j >= k} (-1)^j k! S(j, k) p_j / j!, where
        k! S(j, k) = sum_i (-1)^{k-i} C(k, i) i^j (inclusion-exclusion), and
        the inverse-Newton ladder yields e_m(u) from P_1..P_m.  The ladder is
        built once per manifold, one rung at a time and only as far as the
        highest p asked for: ch Omega^0 takes no rung, ch Omega^1 one, and
        :attr:`hodge` every one.  e_m(u) has weight >= m, so the ladder
        multiplies small nilpotent elements.
        """
        spec, n, (P, e) = self.spec, self.n, self._ladder
        while len(e) <= p:
            k, terms = len(e), []
            for j in range(k, n + 1):
                onto = sum((-1) ** (k - i) * comb(k, i) * i**j for i in range(k + 1))
                terms.append((self._power_sums[j - 1], Fraction((-1) ** j * onto, factorial(j))))
            P.append(linear_combination(spec, terms))
            e.append(newton_rung(e, P))
        return linear_combination(spec, [(e[m], comb(n - m, p - m)) for m in range(p + 1)])

    @cached_property
    def hodge(self) -> tuple[GradedElement, ...]:
        """(ch Omega^0, ..., ch Omega^n), the ladder built to its top."""
        return tuple(map(self.hodge_class, range(self.n + 1)))


class BundleData(Record):
    """Rank and Chern classes c_1..c_r of a holomorphic bundle."""

    rank: int
    chern: tuple[GradedElement, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "chern", tuple(self.chern))
        if self.rank < 1:
            raise ValueError("rank must be positive")
        if len(self.chern) > self.rank:
            raise ValueError("more Chern classes than the rank allows")
        for i, c in enumerate(self.chern, start=1):
            if not c.is_homogeneous(i):
                raise ValueError(f"c_{i}(E) is not homogeneous of weight {i}")

    @staticmethod
    def trivial(rank: int = 1) -> "BundleData":
        return BundleData(rank, ())


def bundle_power(line: BundleData, m: Scalar) -> BundleData:
    """L^{tensor m} of a line bundle: c_1 scales by m (m may be rational)."""
    if line.rank != 1:
        raise ValueError("tensor powers here are for line bundles only")
    if not line.chern:
        return line
    return BundleData(1, (line.chern[0] * Fraction(m),))


def todd_class(x: ManifoldData) -> GradedElement:
    """td(X): the Todd genus product over the Chern roots of TX."""
    return x.td


def chern_character(e: BundleData, spec: RingSpec, n: int) -> GradedElement:
    """ch(E) = rank + sum_k p_k(E)/k! truncated at weight n; the power sums
    come from E's own classes, so a bundle without classes has ch = rank."""
    p = power_sums_from_elementary(e.chern[:n], n) if e.chern else ()
    terms = [(pk, Fraction(1, factorial(k))) for k, pk in enumerate(p, 1)]
    return linear_combination(spec, [(spec.one(), e.rank), *terms])


def ch_hodge_sheaf(x: ManifoldData, p: int) -> GradedElement:
    """ch of the p-th exterior power of the cotangent bundle, the manifold's
    ladder built only as far as e_p(u) (:meth:`ManifoldData.hodge_class`)."""
    if not 0 <= p <= x.n:
        raise ValueError(f"p = {p} outside [0, {x.n}]")
    return x.hodge_class(p)


def _integral_chi(p: int, value: Fraction) -> Fraction:
    if value.denominator != 1:
        raise IntegralityError(
            f"chi^{p} = {value} is not an integer; the Chern data is inconsistent"
        )
    return value


def chi_p(x: ManifoldData, e: BundleData, p: int) -> Fraction:
    """chi^p(X, E) = integral of td(X) ch(Omega^{p,0}) ch(E); must be integral."""
    td_ch = x.td * chern_character(e, x.spec, x.n)
    return _integral_chi(p, integrate_product(td_ch, ch_hodge_sheaf(x, p), x.fclass))


def chi_y(x: ManifoldData, e: BundleData) -> QPoly:
    """The chi_y genus: sum_p chi^p(X, E) y^p."""
    td_ch = x.td * chern_character(e, x.spec, x.n)
    coeffs = [
        _integral_chi(p, integrate_product(td_ch, hodge, x.fclass))
        for p, hodge in enumerate(x.hodge)
    ]
    return QPoly(coeffs, var="y")


def k_coefficients(chi: QPoly, upto: int | None = None) -> list[Fraction]:
    """Re-expand chi_y about y = -1: chi_y = sum_j K_j (y+1)^j, exactly.

    K_j = sum_{p >= j} chi^p C(p, j) (-1)^{p-j}, the coefficients of chi(y - 1).
    """
    n = chi.degree if upto is None else upto
    return chi.shift(-1).padded(n + 1)


def k1_formula_check(x: ManifoldData, e: BundleData, ks: Sequence[Fraction]) -> bool:
    """K_1 of :func:`k_coefficients` (ks = K_0..K_n of chi_y(X, E)) against
    its closed form -(rank/2) n c_n[X] + <c_{n-1}(X)c_1(E), X>."""
    spec = x.spec
    c_n_top = integrate(x.chern[x.n - 1], x.fclass)
    c1e = e.chern[0] if e.chern else spec.zero()
    cn1 = x.chern[x.n - 2] if x.n >= 2 else spec.one()
    closed = -Fraction(e.rank, 2) * x.n * c_n_top + integrate_product(cn1, c1e, x.fclass)
    return ks[1] == closed


def k2_surface_formula_check(x: ManifoldData, e: BundleData, ks: Sequence[Fraction]) -> bool:
    """K_2 of :func:`k_coefficients` (ks = K_0..K_2 of chi_y(X, E)) against
    its surface-only closed form; requires n = 2.

    K_2(X, E) = rank K_2(X) - <c_1(X)c_1(E), X>/2 + <c_1(E)^2 - 2c_2(E), X>/2,
    with K_2(X) = chi^2(X) = <(c_1^2 + c_2)(X), X>/12 (HRR for Omega^2 = K_X,
    where ch(K_X) = 1 - c_1 + c_1^2/2 cancels all but the Todd term).
    """
    if x.n != 2:
        raise ValueError("the K_2 closed form is specific to surfaces")
    spec = x.spec
    c1, c2 = x.chern[0], x.chern[1]
    c1e = e.chern[0] if e.chern else spec.zero()
    c2e = e.chern[1] if len(e.chern) >= 2 else spec.zero()
    closed = (
        e.rank * integrate(c1 * c1 + c2, x.fclass) / 12
        - integrate_product(c1, c1e, x.fclass) / 2
        + integrate(c1e * c1e - 2 * c2e, x.fclass) / 2
    )
    return ks[2] == closed


def hilbert_polynomial(x: ManifoldData, line: BundleData, p: int) -> QPoly:
    """The p-Hilbert polynomial of a line bundle: m -> chi^p(X, L^{tensor m}).

    Coefficient a_i is the integral of td(X) ch(Omega^{p,0}) against the
    weight-i class c_1(L)^i / i!, so only its weight-(n-i) part is paired.
    The result is checked to be integer-valued (exact forward differences
    at 0).
    """
    if line.rank != 1:
        raise ValueError("Hilbert polynomials are defined for line bundles")
    spec = x.spec
    base = x.td * ch_hodge_sheaf(x, p)
    c1 = line.chern[0] if line.chern else spec.zero()
    coeffs = []
    c1_pow = spec.one()
    for i in range(x.n + 1):
        coeffs.append(integrate_product(base, c1_pow, x.fclass) / factorial(i))
        c1_pow = c1_pow * c1
    poly = QPoly(coeffs, var="m")
    if not is_integer_valued(poly):
        raise IntegralityError(
            f"p-Hilbert polynomial for p={p} is not integer-valued: {poly}"
        )
    return poly


def chern_inequality_check(ks: Sequence[Fraction], j: int) -> tuple[bool, Fraction, Fraction]:
    """Evaluate (-1)^{n+j} K_j(X, E) >= sum_{p=j..n} C(p, j) from the
    coefficients K_0..K_n of :func:`k_coefficients`, with n = len(ks) - 1.

    Pure arithmetic on the given Chern data; no curvature hypothesis is or
    can be verified here.
    """
    n = len(ks) - 1
    if not 0 <= j <= n:
        raise ValueError(f"j = {j} outside [0, {n}]")
    lhs = Fraction((-1) ** (n + j)) * ks[j]
    rhs = Fraction(sum(comb(p, j) for p in range(j, n + 1)))
    return lhs >= rhs, lhs, rhs


# -- the ring-side sections of a document ---------------------------------------


def read_ring_sections(tree: dict, doc: InputDocument):
    """Read the ring of a document that has one into ``doc.spec``, and with
    it the fundamental class, ``doc.manifold``, ``doc.bundle`` and
    ``doc.line_bundle`` that the document gives.  A key or a Chern class in
    the form the ring prints is read by the ring (``read_monomial``,
    ``read_element``); only other text loads and runs the expression
    parser, so its errors and warnings are unchanged."""
    from .inputdoc import _object

    if "manifold" in tree and "fundamental_class" not in tree:
        raise DocumentError("a manifold needs a fundamental_class table")
    node = _object(tree["ring"], "ring", ("generators", "dimension"))
    gens = []
    for i, gen in enumerate(_list(node.get("generators"), "ring.generators")):
        gen = _object(gen, f"ring.generators[{i}]", ("name", "weight"))
        if not isinstance(gen.get("name"), str):
            raise DocumentError(f"ring.generators[{i}].name must be a string")
        gens.append((gen["name"], parse_integer(gen.get("weight"), f"ring.generators[{i}].weight")))
    dim = _dimension(node.get("dimension"), "ring.dimension")
    with _at("ring.generators"):
        doc.spec = spec = RingSpec(tuple(gens), dim)
    if "fundamental_class" in tree:
        table = {}
        for key, value in _object(tree["fundamental_class"], "fundamental_class").items():
            with _at(f"fundamental_class.{key}"):
                if (exps := spec.read_monomial(key)) is None:
                    from .exprparse import parse_monomial_key

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


def _chern_index(key: str) -> int:
    """i for a Chern-class key "c<i>", i of one to four ASCII digits with no
    leading 0; 0 for any other key."""
    index = key[1:]
    return int(index) if key[:1] == "c" and len(index) <= 4 and is_digits(index) and index[0] != "0" else 0


def _chern_classes(node, spec: RingSpec, count: int, path: str, length: int = 0) -> list:
    """[c_1, c_2, ...] from {"c<i>": expression}, 1 <= i <= count, through the
    highest nonzero class given and at least ``length`` long; omitted classes are 0."""
    from .inputdoc import _object

    given = {}
    for key, value in _object(node, path).items():
        if not 0 < (i := _chern_index(key)) <= count:
            raise DocumentError(f"{path}.{key} is not a Chern-class key c1..c{count}")
        if not isinstance(value, str):
            raise DocumentError(f"{path}.{key} must be an expression string, got {_show(value)}")
        with _at(f"{path}.{key}"):
            if (c := spec.read_element(value)) is None:
                from .exprparse import parse_expression

                c = parse_expression(value, spec)
            given[i] = c
    top = max([length, *(i for i, c in given.items() if not c.is_zero())])
    return [given.get(i, spec.zero()) for i in range(1, top + 1)]


# -- the HRR commands ---------------------------------------------------------------


def run_command(args) -> tuple[dict, dict]:
    """``hlab genus``, ``kcoeffs``, ``hilbert --p P`` and ``ineq [--j J]``:
    the document's tree, and the results on its X, E and L; E is the
    trivial line bundle when the document has none."""
    from .inputdoc import in_range, load_input

    doc = load_input(args.input)
    x, command, index = doc.require("manifold"), args.command, getattr(args, "p", getattr(args, "j", None))
    if command == "hilbert":
        P = hilbert_polynomial(x, doc.require("line_bundle"), in_range(index, x.n, "--p"))
        return doc.raw, {"p": index, "polynomial": P, "coefficients": list(P.padded(x.n + 1))}
    e = doc.bundle or BundleData.trivial()
    js = range(x.n + 1) if index is None else [in_range(index, x.n, "--j")]  # ineq's, checked before chi_y runs
    chi = chi_y(x, e)
    if command == "genus":
        return doc.raw, {
            "td": todd_class(x),
            "ch": chern_character(e, x.spec, x.n),
            "chi_p": list(chi.padded(x.n + 1)),
            "chi_y": chi,
            "euler_characteristic": chi(-1),
        }
    ks = k_coefficients(chi, upto=x.n)
    if command == "ineq":
        rows = [(j, *chern_inequality_check(ks, j)) for j in js]
        return doc.raw, {"inequalities": [{"j": j, "lhs": lhs, "rhs": rhs, "holds": holds} for j, holds, lhs, rhs in rows]}
    results = {"K": ks, "k1_closed_form_matches": k1_formula_check(x, e, ks)}
    if x.n == 2:
        results["k2_surface_form_matches"] = k2_surface_formula_check(x, e, ks)
    return doc.raw, results


# -- builtin fixture ---------------------------------------------------------


def projective_space(n: int) -> tuple[ManifoldData, BundleData]:
    """Complex projective space with its hyperplane bundle O(1), read from
    the document ``hlab fixture cp n`` prints (:func:`hlab.fixturedoc.cp_fixture`),
    so n outside the document guard rail [1, 12] is a ``DocumentError``."""
    from .fixturedoc import cp_fixture
    from .inputdoc import load_document

    doc = load_document(cp_fixture(n))
    return doc.manifold, doc.line_bundle
