"""Pointwise model of the Hermitian exterior algebra Lambda^{p,q}(C^n) x C^r.

Basis monomials xi_J ^ xibar_K (J, K subsets of {1..n}) tensored with a
fiber index are declared orthonormal; all operators are sparse matrices
with exact complex-rational entries, the Gaussian rationals ``CQ`` of the
scalars section below.  L wedges with the standard Kahler form
omega = i sum_j xi_j ^ xibar_j, Lambda is its basis adjoint, and the
Hodge star follows the convention  alpha ^ conj(star beta) = <alpha, beta> vol
with vol = omega^n / n!.  The identity Lambda = star^{-1} L star is then a
theorem about the convention, checked by the tests rather than assumed.
A basis index is the integer key of ``hlab.monomials``, which holds the
basis order and every sign and phase under wedge and star, for
``hlab.sl2`` and the Hermitian blocks too.

No command runs this engine, ``hlab verify`` included, and the package
exports none of its names: only the tests (and the benchmark tracer) run
it, from ``hlab.lefschetz``, and the tests hold the faster certificates
against it.  ``lefschetz-check`` certifies sl(2), the star identities,
hard Lefschetz and injectivity from integer tables in ``hlab.sl2``.  The
bidegree blocks of [Lambda, iTheta(E)] are read from theta in
``hlab.blocks``.  The space rule :func:`check_space` lives in
``hlab.literals``, and the diagonal curvature record, its closed-form norm
and ``commutator_norm``, which chooses the certificate of each curvature,
in ``hlab.diagonal``.  This module re-exports the three sl2 certificates,
``commutator_norm`` and ``flatness_test``, which the tracer wraps here;
every other name lives at its home alone.  The Hermitian curvature
record, the one curvature that :func:`curvature_operator` takes, lives in
``hlab.hermitian`` and holds theta as Gaussian integers over one scale,
which :func:`curvature_operator` turns into ``CQ``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import TYPE_CHECKING, Mapping, Sequence

from .diagonal import commutator_norm, flatness_test  # noqa: F401 - re-exported: their home is diagonal
from .literals import check_space
from .monomials import basis_keys, bidegree, star_key, wedge_sign
from .sl2 import injectivity_scan, lefschetz_power, sl2_commutator_check  # noqa: F401 - re-exported: their home is sl2

if TYPE_CHECKING:
    from .diagonal import DiagonalCurvature
    from .hermitian import HermitianCurvature


# -- scalars -------------------------------------------------------------------


class CQ:
    """Exact complex rational (a + b i) / d over the Gaussian integers.

    a, b, d are ints with d > 0 and gcd(a, b, d) = 1, a canonical form, so
    equality compares fields.  Arithmetic takes a gcd only when d != 1; the
    entries of L, Lambda and star and all their products have d = 1.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
        else:
            re, im = Fraction(re), Fraction(im)
            # with d the lcm of the reduced denominators, gcd(a, b, d) = 1
            d = self.d = lcm(re.denominator, im.denominator)
            self.a = re.numerator * (d // re.denominator)
            self.b = im.numerator * (d // im.denominator)

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __add__(self, other):
        o = _as_cq(other)
        if self.d == 1 == o.d:
            return _cq(self.a + o.a, self.b + o.b, 1)
        return _reduced(self.a * o.d + o.a * self.d, self.b * o.d + o.b * self.d, self.d * o.d)

    __radd__ = __add__

    def __neg__(self):
        return _cq(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + -_as_cq(other)

    def __rsub__(self, other):
        return _as_cq(other) - self

    def __mul__(self, other):
        o = _as_cq(other)
        a, b = self.a * o.a - self.b * o.b, self.a * o.b + self.b * o.a
        if self.d == 1 == o.d:
            return _cq(a, b, 1)
        return _reduced(a, b, self.d * o.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _as_cq(other)
        norm = o.a * o.a + o.b * o.b
        if not norm:
            raise ZeroDivisionError("complex division by zero")
        # (a + b i) o.d (o.a - o.b i) / (d |o.a + o.b i|^2)
        return _reduced(
            (self.a * o.a + self.b * o.b) * o.d, (self.b * o.a - self.a * o.b) * o.d, self.d * norm
        )

    def conj(self) -> "CQ":
        return _cq(self.a, -self.b, self.d)

    def abs2(self) -> Fraction:
        return Fraction(self.a * self.a + self.b * self.b, self.d * self.d)

    def __bool__(self):
        return bool(self.a or self.b)

    def __eq__(self, other):
        if isinstance(other, CQ):
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, (int, Fraction)):
            return not self.b and self.a == other.numerator and self.d == other.denominator
        return NotImplemented

    def __hash__(self):
        # a real value hashes like the int or Fraction it equals
        if not self.b:
            return hash(self.a if self.d == 1 else Fraction(self.a, self.d))
        return hash((self.a, self.b, self.d))

    def __repr__(self):
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{abs(im)}i"


def _as_cq(x) -> CQ:
    if isinstance(x, CQ):
        return x
    if isinstance(x, (int, Fraction)):
        return CQ(x)
    raise TypeError(f"cannot coerce {x!r} to a complex rational")


def _cq(a: int, b: int, d: int) -> CQ:
    """(a + b i) / d, already in canonical form."""
    z = object.__new__(CQ)
    z.a, z.b, z.d = a, b, d
    return z


def _reduced(a: int, b: int, d: int) -> CQ:
    """(a + b i) / d for d > 0, brought to canonical form."""
    g = gcd(a, b, d)
    return _cq(a // g, b // g, d // g)


CQ_ZERO = CQ(0)
CQ_ONE = CQ(1)
CQ_I = CQ(0, 1)


# -- the basis -----------------------------------------------------------------


class ExteriorBasis:
    """Orthonormal monomial basis of Lambda^{*,*}(C^n) tensor C^r.

    A basis index is the key J | K << n | s << 2n of ``hlab.monomials``, so
    dim = r 4^n and ``by_bidegree`` lists ``basis_keys``.  ``monomials[c]``
    and ``index`` view each key as its index tuples (J, K, s)."""

    def __init__(self, n: int, r: int):
        check_space(n, r)
        self.n = n
        self.r = r
        self.dim = r << 2 * n
        self.by_bidegree = {(p, q): basis_keys(n, r, p, q) for p in range(n + 1) for q in range(n + 1)}
        subsets = [tuple(j + 1 for j in range(n) if m >> j & 1) for m in range(1 << n)]
        full = (1 << n) - 1
        self.monomials = [(subsets[c & full], subsets[c >> n & full], c >> 2 * n) for c in range(self.dim)]
        self.index = {mon: c for c, mon in enumerate(self.monomials)}

    def bidegree_of(self, idx: int) -> tuple[int, int]:
        return bidegree(self.n, idx)

    def __eq__(self, other):
        return (
            isinstance(other, ExteriorBasis) and self.n == other.n and self.r == other.r
        )

    def __hash__(self):
        return hash((self.n, self.r))


@lru_cache(maxsize=None)
def get_basis(n: int, r: int) -> ExteriorBasis:
    return ExteriorBasis(n, r)


class FormVector:
    """Element of the exterior algebra with exact complex coefficients."""

    __slots__ = ("basis", "terms")

    def __init__(self, basis: ExteriorBasis, terms: Mapping[int, CQ]):
        self.basis = basis
        self.terms = {i: v for i, v in terms.items() if v}

    def inner(self, other: "FormVector") -> CQ:
        """<u, v>, conjugate-linear in the second slot."""
        if self.basis != other.basis:
            raise ValueError("vectors from different bases")
        acc = CQ_ZERO
        for i, a in self.terms.items():
            b = other.terms.get(i)
            if b is not None:
                acc = acc + a * b.conj()
        return acc

    def __add__(self, other):
        out = dict(self.terms)
        for i, v in other.terms.items():
            out[i] = out.get(i, CQ_ZERO) + v
        return FormVector(self.basis, out)

    def __eq__(self, other):
        return self.basis == other.basis and self.terms == other.terms


# -- sparse operators ---------------------------------------------------------


class Operator:
    """Sparse exact linear map on an :class:`ExteriorBasis`.

    Stored column-major: ``cols[c][r]`` is the coefficient of basis vector
    r in the image of basis vector c.
    """

    __slots__ = ("basis", "cols")

    def __init__(self, basis: ExteriorBasis, cols: Mapping[int, Mapping[int, CQ]]):
        self.basis = basis
        self.cols = {c: kept for c, col in cols.items() if (kept := {r: v for r, v in col.items() if v})}

    def _check(self, other: "Operator"):
        if self.basis != other.basis:
            raise ValueError("operators on different bases")

    def entry(self, row: int, col: int) -> CQ:
        return self.cols.get(col, {}).get(row, CQ_ZERO)

    def apply(self, vec: FormVector) -> FormVector:
        out: dict[int, CQ] = {}
        for c, a in vec.terms.items():
            for r, v in self.cols.get(c, {}).items():
                out[r] = out.get(r, CQ_ZERO) + v * a
        return FormVector(self.basis, out)

    def compose(self, other: "Operator") -> "Operator":
        """self after other (matrix product self @ other)."""
        self._check(other)
        cols: dict[int, dict[int, CQ]] = {}
        for c, col in other.cols.items():
            acc = cols[c] = {}
            for mid, v in col.items():
                for r, w in self.cols.get(mid, {}).items():
                    acc[r] = acc.get(r, CQ_ZERO) + w * v
        return Operator(self.basis, cols)

    def __add__(self, other):
        self._check(other)
        cols = {c: dict(col) for c, col in self.cols.items()}
        for c, col in other.cols.items():
            acc = cols.setdefault(c, {})
            for r, v in col.items():
                acc[r] = acc.get(r, CQ_ZERO) + v
        return Operator(self.basis, cols)

    def __sub__(self, other):
        return self + other.scale(CQ(-1))

    def scale(self, factor) -> "Operator":
        f = _as_cq(factor)
        if not f:
            return Operator(self.basis, {})
        return Operator(
            self.basis,
            {c: {r: v * f for r, v in col.items()} for c, col in self.cols.items()},
        )

    def adjoint(self) -> "Operator":
        cols: dict[int, dict[int, CQ]] = {}
        for c, col in self.cols.items():
            for r, v in col.items():
                cols.setdefault(r, {})[c] = v.conj()
        return Operator(self.basis, cols)

    def commutator(self, other: "Operator") -> "Operator":
        return self.compose(other) - other.compose(self)

    def power(self, k: int) -> "Operator":
        out = identity_operator(self.basis)
        for _ in range(k):
            out = self.compose(out)
        return out

    def is_zero(self) -> bool:
        return not self.cols

    def __eq__(self, other):
        return (
            isinstance(other, Operator)
            and self.basis == other.basis
            and self.cols == other.cols
        )

    def is_diagonal(self) -> bool:
        return all(set(col) <= {c} for c, col in self.cols.items())

    def block(self, rows: Sequence[int], cols: Sequence[int]) -> list[list[CQ]]:
        """Dense submatrix (row-major) with the given index sets."""
        pos = {r: i for i, r in enumerate(rows)}
        out = [[CQ_ZERO] * len(cols) for _ in rows]
        for j, c in enumerate(cols):
            for r, v in self.cols.get(c, {}).items():
                if r in pos:
                    out[pos[r]][j] = v
        return out


def identity_operator(basis: ExteriorBasis) -> Operator:
    return Operator(basis, {i: {i: CQ_ONE} for i in range(basis.dim)})


# -- the Kahler package -------------------------------------------------------


def _wedge_operator(n: int, r: int, blocks) -> Operator:
    """Matrix of alpha -> i sum mat xi_j ^ xibar_k ^ alpha over the
    (j, k, r x r fiber matrix) blocks, j and k bit indices, with exact
    reordering signs."""
    basis, full = get_basis(n, r), (1 << n) - 1
    cols: dict[int, dict[int, CQ]] = {}
    for c in range(basis.dim):
        J, K, s = c & full, c >> n & full, c >> 2 * n
        col = cols[c] = {}
        for j, k, mat in blocks:
            sign = wedge_sign(1 << j, 1 << k, J, K)
            if not sign:
                continue
            phase = CQ_I * sign
            base = J | 1 << j | (K | 1 << k) << n
            for s2 in range(r):
                v = mat[s2][s]
                if v:
                    tgt = base | s2 << 2 * n
                    col[tgt] = col.get(tgt, CQ_ZERO) + phase * v
    return Operator(basis, cols)


@lru_cache(maxsize=None)
def op_L(n: int, r: int = 1) -> Operator:
    """Wedge with omega = i sum_j xi_j ^ xibar_j, with exact reordering signs."""
    eye = tuple(tuple(CQ_ONE if a == b else CQ_ZERO for b in range(r)) for a in range(r))
    return _wedge_operator(n, r, [(j, j, eye) for j in range(n)])


@lru_cache(maxsize=None)
def op_Lambda(n: int, r: int = 1) -> Operator:
    """The adjoint of L in the orthonormal monomial basis (its definition)."""
    return op_L(n, r).adjoint()


def i_power(k: int) -> CQ:
    """i^k, the phase of the star's exponent k."""
    return (CQ_ONE, CQ_I, CQ(-1), CQ(0, -1))[k % 4]


@lru_cache(maxsize=None)
def op_star(n: int, r: int = 1) -> Operator:
    """Hodge star fixed by  u ^ conj(star u) = <u, u> vol  on monomials:
    c -> i^e sigma(c) of ``hlab.monomials.star_key``."""
    basis, cols = get_basis(n, r), {}
    for c in range(basis.dim):
        t, e = star_key(n, c)
        cols[c] = {t: i_power(e)}
    return Operator(basis, cols)


# -- curvature ---------------------------------------------------------------


def curvature_operator(spec: HermitianCurvature) -> Operator:
    """Matrix of alpha -> iTheta(E) ^ alpha with the fiber matrix action,
    each theta entry (x + i y) / scale as a ``CQ``.  A diagonal curvature
    enters as ``hlab.fixtures.as_hermitian(spec)``."""
    s = spec.scale
    blocks = [
        (j, k, [[CQ(Fraction(x, s), Fraction(y, s)) for x, y in row] for row in mat])
        for j, line in enumerate(spec.theta)
        for k, mat in enumerate(line)
        if any(x or y for row in mat for x, y in row)
    ]
    return _wedge_operator(spec.n, spec.r, blocks)


def diagonal_commutator_eigenvalues(
    spec: DiagonalCurvature,
) -> dict[tuple[tuple[int, ...], tuple[int, ...]], Fraction]:
    """Eigenvalue of [iTheta(L), Lambda] on xi_J ^ xibar_K, for every (J, K).

    The closed form is gamma_J + gamma_K - sum_j gamma_j.
    """
    n = spec.n
    total = sum(spec.gammas, Fraction(0))
    out = {}
    full = tuple(range(1, n + 1))
    for p in range(n + 1):
        for J in itertools.combinations(full, p):
            gJ = sum((spec.gammas[j - 1] for j in J), Fraction(0))
            for q in range(n + 1):
                for K in itertools.combinations(full, q):
                    gK = sum((spec.gammas[k - 1] for k in K), Fraction(0))
                    out[(J, K)] = gJ + gK - total
    return out


# -- exact linear algebra ------------------------------------------------------


def cq_rank(rows: list[list[CQ]]) -> int:
    """Rank over Q(i) by Gaussian elimination with exact division."""
    mat = [row[:] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = next((i for i in range(row, nrows) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        pv = mat[row][col]
        for i in range(row + 1, nrows):
            if mat[i][col]:
                f = mat[i][col] / pv
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[row])]
        row += 1
        rank += 1
        if row == nrows:
            break
    return rank


def int_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix (fraction-free Bareiss elimination)."""
    mat = [row[:] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    rank = 0
    row = 0
    prev = 1
    for col in range(ncols):
        pivot = next((i for i in range(row, nrows) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        pv = mat[row][col]
        for i in range(row + 1, nrows):
            mat[i] = [
                (pv * mat[i][j] - mat[i][col] * mat[row][j]) // prev
                for j in range(ncols)
            ]
        prev = pv
        row += 1
        rank += 1
        if row == nrows:
            break
    return rank
