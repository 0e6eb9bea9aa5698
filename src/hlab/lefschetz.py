"""Pointwise model of the Hermitian exterior algebra Lambda^{p,q}(C^n) x C^r.

Basis monomials xi_J ^ xibar_K (J, K subsets of {1..n}) tensored with a
fiber index are declared orthonormal; all operators are sparse matrices
with exact complex-rational entries.  L wedges with the standard Kahler
form omega = i sum_j xi_j ^ xibar_j, Lambda is its basis adjoint, and the
Hodge star follows the convention  alpha ^ conj(star beta) = <alpha, beta> vol
with vol = omega^n / n!.  The identity Lambda = star^{-1} L star is then a
theorem about the convention, checked by the tests rather than assumed.

One rule, :func:`check_space`, admits the space for every way in: the basis,
both curvature records and the ``lefschetz-check`` flags.  It lives in
``hlab.diagonal`` with the diagonal curvature record and its closed-form
norm, which load without this engine; they are re-exported here.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, copysign, factorial, gcd, isfinite, lcm, nan, sqrt
from typing import Mapping, Sequence, Union

from .errors import CertificateError
from .diagonal import CommutatorNorm, DiagonalCurvature, check_space, diagonal_norm
from .diagonal import flatness_test  # noqa: F401 - re-exported: its home is diagonal
from .record import Interval, Record

HERMITIAN_WIDTH = Fraction(1, 10**12)  # of each Hermitian C_pq enclosure
MAX_HERMITIAN_BLOCK = 100  # Bareiss cost grows as the cube; n = 5, r = 1 takes minutes

Scalar = Union[int, Fraction]


class CQ:
    """Exact complex rational (a + b i) / d over the Gaussian integers.

    a, b, d are ints with d > 0 and gcd(a, b, d) = 1, a canonical form, so
    equality compares fields.  Arithmetic takes a gcd only when d != 1; the
    entries of L, Lambda and star and all their products have d = 1.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re: Scalar = 0, im: Scalar = 0):
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


def i_power(k: int) -> CQ:
    return (CQ_ONE, CQ_I, CQ(-1), CQ(0, -1))[k % 4]


# -- monomial combinatorics ---------------------------------------------------


def _merge_sign(a: tuple[int, ...], b: tuple[int, ...]) -> int | None:
    """Sign of sorting the concatenation of two sorted disjoint tuples.

    Returns None when the tuples intersect (the wedge vanishes).
    """
    if set(a) & set(b):
        return None
    inversions = sum(1 for x in a for y in b if x > y)
    return -1 if inversions % 2 else 1


def _merge(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(a + b))


def wedge_monomials(
    J1: tuple[int, ...], K1: tuple[int, ...], J2: tuple[int, ...], K2: tuple[int, ...]
):
    """(xi_J1 ^ xibar_K1) ^ (xi_J2 ^ xibar_K2) -> (sign, J, K) or None."""
    s1 = _merge_sign(J1, J2)
    s2 = _merge_sign(K1, K2)
    if s1 is None or s2 is None:
        return None
    sign = s1 * s2 * (-1 if (len(K1) * len(J2)) % 2 else 1)
    return sign, _merge(J1, J2), _merge(K1, K2)


def conj_monomial(J: tuple[int, ...], K: tuple[int, ...]):
    """conj(xi_J ^ xibar_K) = (-1)^{|J||K|} xi_K ^ xibar_J."""
    sign = -1 if (len(J) * len(K)) % 2 else 1
    return sign, K, J


class ExteriorBasis:
    """Orthonormal monomial basis of Lambda^{*,*}(C^n) tensor C^r."""

    def __init__(self, n: int, r: int):
        check_space(n, r)
        self.n = n
        self.r = r
        self.monomials: list[tuple[tuple[int, ...], tuple[int, ...], int]] = []
        self.by_bidegree: dict[tuple[int, int], list[int]] = {}
        full = tuple(range(1, n + 1))
        for p in range(n + 1):
            for q in range(n + 1):
                block = []
                for J in itertools.combinations(full, p):
                    for K in itertools.combinations(full, q):
                        for s in range(r):
                            block.append(len(self.monomials))
                            self.monomials.append((J, K, s))
                self.by_bidegree[(p, q)] = block
        self.index = {mon: i for i, mon in enumerate(self.monomials)}
        self.dim = len(self.monomials)

    def bidegree_of(self, idx: int) -> tuple[int, int]:
        J, K, _ = self.monomials[idx]
        return len(J), len(K)

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
            s = out.get(i, CQ_ZERO) + v
            if s:
                out[i] = s
            else:
                out.pop(i, None)
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
                s = out.get(r, CQ_ZERO) + v * a
                if s:
                    out[r] = s
                else:
                    out.pop(r, None)
        return FormVector(self.basis, out)

    def compose(self, other: "Operator") -> "Operator":
        """self after other (matrix product self @ other)."""
        self._check(other)
        cols: dict[int, dict[int, CQ]] = {}
        for c, col in other.cols.items():
            acc: dict[int, CQ] = {}
            for mid, v in col.items():
                for r, w in self.cols.get(mid, {}).items():
                    s = acc.get(r, CQ_ZERO) + w * v
                    if s:
                        acc[r] = s
                    else:
                        acc.pop(r, None)
            if acc:
                cols[c] = acc
        return Operator(self.basis, cols)

    def __add__(self, other):
        self._check(other)
        cols = {c: dict(col) for c, col in self.cols.items()}
        for c, col in other.cols.items():
            acc = cols.setdefault(c, {})
            for r, v in col.items():
                s = acc.get(r, CQ_ZERO) + v
                if s:
                    acc[r] = s
                else:
                    acc.pop(r, None)
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
    (j, k, r x r fiber matrix) blocks, with exact reordering signs."""
    basis = get_basis(n, r)
    cols: dict[int, dict[int, CQ]] = {}
    for c, (J, K, s) in enumerate(basis.monomials):
        col: dict[int, CQ] = {}
        for j, k, mat in blocks:
            w = wedge_monomials((j,), (k,), J, K)
            if w is None:
                continue
            sign, J2, K2 = w
            phase = CQ_I * sign
            for s2 in range(r):
                v = mat[s2][s]
                if not v:
                    continue
                tgt = basis.index[(J2, K2, s2)]
                acc = col.get(tgt, CQ_ZERO) + phase * v
                if acc:
                    col[tgt] = acc
                else:
                    col.pop(tgt, None)
        if col:
            cols[c] = col
    return Operator(basis, cols)


@lru_cache(maxsize=None)
def op_L(n: int, r: int = 1) -> Operator:
    """Wedge with omega = i sum_j xi_j ^ xibar_j, with exact reordering signs."""
    eye = tuple(tuple(CQ_ONE if a == b else CQ_ZERO for b in range(r)) for a in range(r))
    return _wedge_operator(n, r, [(j, j, eye) for j in range(1, n + 1)])


@lru_cache(maxsize=None)
def op_Lambda(n: int, r: int = 1) -> Operator:
    """The adjoint of L in the orthonormal monomial basis (its definition)."""
    return op_L(n, r).adjoint()


def volume_phase(n: int) -> CQ:
    """vol = omega^n/n! = i^n (-1)^{n(n-1)/2} xi_1..xi_n ^ xibar_1..xibar_n."""
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return i_power(n) * sign


@lru_cache(maxsize=None)
def op_star(n: int, r: int = 1) -> Operator:
    """Hodge star fixed by  u ^ conj(star u) = <u, u> vol  on monomials."""
    basis = get_basis(n, r)
    full = set(range(1, n + 1))
    lam = volume_phase(n)
    cols: dict[int, dict[int, CQ]] = {}
    for c, (J, K, s) in enumerate(basis.monomials):
        Jc = tuple(sorted(full - set(J)))
        Kc = tuple(sorted(full - set(K)))
        # target monomial (Kc, Jc); conj then wedge against (J, K) gives the top cell
        csign, wJ, wK = conj_monomial(Kc, Jc)
        w = wedge_monomials(J, K, wJ, wK)
        if w is None:
            raise CertificateError("complement wedge cannot vanish")
        sigma = csign * w[0]
        coeff = (lam / CQ(sigma)).conj()
        cols[c] = {basis.index[(Kc, Jc, s)]: coeff}
    return Operator(basis, cols)


def star_identities(n: int, r: int = 1) -> tuple[bool, bool]:
    """(star is unitary, star^{-1} L star == Lambda), both checked exactly."""
    star = op_star(n, r)
    inv = star.adjoint()
    unitary = inv.compose(star) == identity_operator(get_basis(n, r))
    return unitary, inv.compose(op_L(n, r)).compose(star) == op_Lambda(n, r)


@lru_cache(maxsize=None)
def sl2_commutator_check(n: int, r: int = 1) -> bool:
    """True iff L maps Lambda^{p,q} into Lambda^{p+1,q+1} and [Lambda, L]
    acts as (n-k) id on every k-form, exactly.

    Cached per (n, r), like the operators; :func:`injectivity_scan` and
    :func:`lefschetz_power` rest on it.
    """
    basis, L = get_basis(n, r), op_L(n, r)
    for c, col in L.cols.items():
        p, q = basis.bidegree_of(c)
        if any(basis.bidegree_of(row) != (p + 1, q + 1) for row in col):
            return False
    H = op_Lambda(n, r).commutator(L)
    for idx in range(basis.dim):
        m = n - sum(basis.bidegree_of(idx))
        if H.cols.get(idx, {}) != ({idx: CQ(m)} if m else {}):
            return False
    return True


# -- curvature ---------------------------------------------------------------


class HermitianCurvature(Record):
    """iTheta(E) = i sum_{j,k} theta[j][k] xi_j ^ xibar_k, theta[j][k] r x r.

    Hermitian symmetry theta[j][k] = theta[k][j]^dagger is validated.
    """

    theta: tuple[tuple[tuple[tuple[CQ, ...], ...], ...], ...]

    def __post_init__(self):
        theta = tuple(
            tuple(
                tuple(tuple(_as_cq(x) for x in row) for row in mat) for mat in line
            )
            for line in self.theta
        )
        object.__setattr__(self, "theta", theta)
        n = len(theta)
        r = len(theta[0][0]) if n and theta[0] else 0
        check_space(n, r)
        if (block := r * comb(n, n // 2) ** 2) > MAX_HERMITIAN_BLOCK:
            raise ValueError(
                f"the largest bidegree block has dimension {r} C({n}, {n // 2})^2 = {block} > {MAX_HERMITIAN_BLOCK}"
            )
        if any(len(line) != n for line in theta) or any(
            len(mat) != r or any(len(row) != r for row in mat) for line in theta for mat in line
        ):
            raise ValueError("theta must be an n x n array of r x r fiber matrices")
        for j in range(n):
            for k in range(n):
                mat = theta[j][k]
                for a in range(r):
                    for b in range(r):
                        if mat[a][b] != theta[k][j][b][a].conj():
                            raise ValueError(
                                f"theta[{j}][{k}] is not the adjoint of theta[{k}][{j}]"
                            )

    @property
    def n(self) -> int:
        return len(self.theta)

    @property
    def r(self) -> int:
        return len(self.theta[0][0])


CurvatureSpec = Union[DiagonalCurvature, HermitianCurvature]


def curvature_operator(spec: CurvatureSpec) -> Operator:
    """Matrix of alpha -> iTheta(E) ^ alpha with the fiber matrix action."""
    blocks = [
        (j, k, mat)
        for j, line in enumerate(spec.theta, 1)
        for k, mat in enumerate(line, 1)
        if any(any(row) for row in mat)
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


def commutator_norm(spec: CurvatureSpec) -> CommutatorNorm:
    """Operator norm of [Lambda, iTheta(E)] and the C_{p,q} table.

    Diagonal specs are handled exactly through the closed form of the
    eigenvalues (:func:`hlab.diagonal.diagonal_norm`).
    Hermitian specs get a certified rational enclosure of width at most
    HERMITIAN_WIDTH on each bidegree block T: ||T|| < h holds exactly when
    h I - T and h I + T are both positive definite, which Sylvester's
    criterion decides from the leading principal minors (fraction-free
    Bareiss elimination over the Gaussian integers).  A float eigenvalue guess only proposes
    the two ends; exact bisection takes over where a proposal is refuted.
    """
    if isinstance(spec, DiagonalCurvature):
        return diagonal_norm(spec)

    n, r = spec.n, spec.r
    basis = get_basis(n, r)
    T = op_Lambda(n, r).commutator(curvature_operator(spec))
    if T.adjoint() != T:
        raise CertificateError("[Lambda, iTheta] must be self-adjoint; convention bug")
    table2: dict[tuple[int, int], Interval] = {}
    for (p, q), idxs in basis.by_bidegree.items():
        block = T.block(idxs, idxs)
        table2[(p, q)] = _hermitian_norm_enclosure(block, HERMITIAN_WIDTH)
    worst = max(table2.values(), key=lambda iv: iv.hi)
    return CommutatorNorm(worst, table2, exact=False)


def _hermitian_norm_enclosure(block: list[list[CQ]], tol: Fraction) -> Interval:
    """Certified enclosure of the operator norm of a self-adjoint block, width <= tol.

    The bracket starts at [0, max row sum], which holds for any matrix.  A
    float guess proposes an upper and a lower end tol/2 away from it, and
    exact bisection closes whatever is left; every end is proved or refuted
    by an exact definiteness test, and a refuted end still narrows
    the bracket from the other side.
    """
    if all(not v for row in block for v in row):
        return Interval(Fraction(0), Fraction(0))
    # T = (re + i im) / scale with Gaussian-integer entries
    scale = lcm(*(v.d for row in block for v in row))
    re = [[v.a * (scale // v.d) for v in row] for row in block]
    im = [[v.b * (scale // v.d) for v in row] for row in block]
    lo = Fraction(0)
    hi = Fraction(max(sum(map(abs, r)) + sum(map(abs, i)) for r, i in zip(re, im)), scale)
    guess = _float_extreme_eigenvalue(block)
    # the extreme eigenvalue's sign says which of h I -/+ T fails first
    signs = (-1, 1) if guess < 0 else (1, -1)

    def below(h: Fraction) -> bool:
        """Exactly whether ||T|| < h, i.e. h I - s T is positive definite
        for s = +1 and s = -1, each tested as the Gaussian-integer matrix
        den(h) scale (h I - s T); stops at the first sign that fails."""
        a, b = h.numerator * scale, h.denominator
        return all(
            _positive_definite(
                [
                    [(a if i == j else 0) - s * b * x for j, x in enumerate(row)]
                    for i, row in enumerate(re)
                ],
                [[-s * b * x for x in row] for row in im],
            )
            for s in signs
        )

    if isfinite(guess):
        step = tol / 4
        center = round(Fraction(abs(guess)) / step) * step
        for h in (center + 2 * step, center - 2 * step):
            if lo < h < hi:
                if below(h):
                    hi = h
                else:
                    lo = h
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if below(mid):
            hi = mid
        else:
            lo = mid
    return Interval(lo, hi)


def _positive_definite(re: list[list[int]], im: list[list[int]]) -> bool:
    """Sylvester's criterion for the Hermitian Gaussian-integer matrix re + i im.

    Fraction-free Bareiss elimination without pivoting: the k-th pivot is the
    k-th leading principal minor, a real integer, and the matrix is positive
    definite iff every pivot is > 0.  Each Schur complement stays Hermitian,
    so only the upper triangle is updated.  The arguments are overwritten.
    """
    d = len(re)
    prev = 1
    for k in range(d):
        pivot = re[k][k]
        if im[k][k]:
            raise CertificateError("leading principal minor is not real; block is not Hermitian")
        if pivot <= 0:
            return False
        rk, ik = re[k], im[k]
        for i in range(k + 1, d):
            a, b = rk[i], -ik[i]  # entry (i, k) = conj(entry (k, i))
            ri, ii = re[i], im[i]
            for j in range(i, d):
                c, e = rk[j], ik[j]
                x, x_rem = divmod(pivot * ri[j] - a * c + b * e, prev)
                y, y_rem = divmod(pivot * ii[j] - a * e - b * c, prev)
                if x_rem or y_rem:
                    raise CertificateError("Bareiss division is not exact")
                ri[j], ii[j] = x, y
        prev = pivot
    return True


def _float_extreme_eigenvalue(block: list[list[CQ]]) -> float:
    """Eigenvalue of largest modulus of a Hermitian block, by cyclic complex
    Jacobi in floats.  Only a proposal: the caller certifies it exactly,
    and bisects when the proposal is refuted or not finite."""
    try:
        A = [[complex(v.a / v.d, v.b / v.d) for v in row] for row in block]
    except OverflowError:
        return nan
    d = len(A)
    for _ in range(50):
        off = sum(abs(A[i][j]) ** 2 for i in range(d) for j in range(i + 1, d))
        if off <= 1e-32 * sum(abs(x) ** 2 for row in A for x in row):
            break
        for p in range(d):
            for q in range(p + 1, d):
                g = A[p][q]
                mag = abs(g)
                if not mag:
                    continue
                # a phase on basis vector q makes the entry real, then a real rotation
                phase = g.conjugate() / mag
                app, aqq = A[p][p].real, A[q][q].real
                theta = (aqq - app) / (2 * mag)
                t = copysign(1.0, theta) / (abs(theta) + sqrt(theta * theta + 1))
                c = 1 / sqrt(t * t + 1)
                s = t * c
                for r in range(d):
                    if r != p and r != q:
                        arp, arq = A[r][p], A[r][q] * phase
                        A[r][p] = nrp = c * arp - s * arq
                        A[r][q] = nrq = s * arp + c * arq
                        A[p][r], A[q][r] = nrp.conjugate(), nrq.conjugate()
                A[p][p], A[q][q] = complex(app - t * mag), complex(aqq + t * mag)
                A[p][q] = A[q][p] = 0j
    return max((A[i][i].real for i in range(d)), key=abs)


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


class LefschetzPower(Record):
    """Result of analysing L^{n-k} from k-forms to (2n-k)-forms."""

    k: int
    bijective: bool
    sigma_min: Interval
    sigma_max: Interval
    sigma_values: tuple[Fraction, ...]


def lefschetz_power(n: int, r: int, k: int) -> LefschetzPower:
    """Bijectivity and the singular values of L^{n-k} from k-forms to
    (2n-k)-forms: s_j = (n-k+j)!/j! for 0 <= j <= k/2, exactly.

    A certificate from the sl(2) identity, no matrix.
    :func:`sl2_commutator_check` proves in this process that L maps
    Lambda^{p,q} into Lambda^{p+1,q+1} and that [Lambda, L] = (n-m) id on
    m-forms, else CertificateError.  So L, Lambda = L* and H = [L, Lambda]
    span a representation of sl(2) closed under adjoints; it splits into
    orthogonal irreducibles, each generated by a primitive form v
    (Lambda v = 0) of degree m <= n, with
    Lambda L^j v = j(n-m-j+1) L^{j-1} v and hence
    |L^j v|^2 = j! (n-m)!/(n-m-j)! |v|^2.  For w = L^j v of degree
    k = m + 2j this gives |L^{n-k} w| = s_j |w|, and the spaces L^j P^{k-2j}
    are orthogonal (they lie in distinct irreducible types) and span the
    k-forms.  Primitive m-forms are the orthogonal complement of
    L Lambda^{m-2}, and dim Lambda^{m-2} < dim Lambda^m for m <= n, so every
    s_j occurs.  Each s_j >= 1 and both degrees have dimension
    C(2n, k) r, so L^{n-k} is bijective.  The enclosures are exact.
    """
    if not 0 <= k <= n:
        raise ValueError(f"k = {k} outside [0, {n}]")
    if not sl2_commutator_check(n, r):
        raise CertificateError("[Lambda, L] is not (n-k) id; no hard Lefschetz certificate")
    sigmas = sorted({Fraction(factorial(n - k + j), factorial(j)) for j in range(k // 2 + 1)})
    lo, hi = Interval(sigmas[0], sigmas[0]), Interval(sigmas[-1], sigmas[-1])
    return LefschetzPower(k, True, lo, hi, tuple(sigmas))


def injectivity_scan(n: int, r: int = 1) -> dict[tuple[int, int], bool]:
    """Whether L: Lambda^{p,q} -> Lambda^{p+1,q+1} is injective, for every (p,q).

    A certificate from the sl(2) identity, no rank.  Lambda = L* by
    definition (:func:`op_Lambda`), and :func:`sl2_commutator_check` proves
    [Lambda, L] = (n-p-q) id on Lambda^{p,q} exactly; it must hold in this
    process, else CertificateError.  If Lv = 0 then
    0 = <[Lambda, L] v, v> + |Lambda v|^2 = (n-p-q)|v|^2 + |Lambda v|^2,
    so v = 0 whenever p+q < n.  When p+q >= n, either p = n or q = n and
    the target is 0, or dim Lambda^{p+1,q+1} / dim Lambda^{p,q} =
    (n-p)(n-q) / ((p+1)(q+1)) <= pq / ((p+1)(q+1)) < 1.  So L is injective
    on (p,q) exactly when p+q < n.
    """
    if not sl2_commutator_check(n, r):
        raise CertificateError("[Lambda, L] is not (n-k) id; no injectivity certificate")
    return {(p, q): p + q < n for p, q in get_basis(n, r).by_bidegree}
