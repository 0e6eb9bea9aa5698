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
``hlab.diagonal`` with the diagonal curvature record, its closed-form norm
and ``commutator_norm``, which chooses the certificate of each curvature;
they load without this engine and are re-exported here.  The scalars are
the Gaussian rationals of ``hlab.gaussian``.  The Hermitian curvature record
lives in ``hlab.hermitian``, and the certificate of rank r >= 2 here is
:func:`block_commutator_norm`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial, isfinite, lcm
from typing import TYPE_CHECKING, Mapping, Sequence

from .errors import CertificateError
from .diagonal import CommutatorNorm, DiagonalCurvature, check_space
from .diagonal import commutator_norm, diagonal_norm, flatness_test  # noqa: F401 - re-exported: their home is diagonal
from .gaussian import CQ, CQ_I, CQ_ONE, CQ_ZERO, _as_cq
from .record import Interval, Record

if TYPE_CHECKING:
    from .hermitian import CurvatureSpec, HermitianCurvature


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
    (j, k, r x r fiber matrix) blocks, with exact reordering signs."""
    basis = get_basis(n, r)
    cols: dict[int, dict[int, CQ]] = {}
    for c, (J, K, s) in enumerate(basis.monomials):
        col = cols[c] = {}
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
                col[tgt] = col.get(tgt, CQ_ZERO) + phase * v
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


def block_commutator_norm(spec: HermitianCurvature) -> CommutatorNorm:
    """C and the C_{p,q} table of a Hermitian curvature of any rank, from
    the bidegree blocks T of [Lambda, iTheta(E)].

    Each ||T|| gets a certified rational enclosure of width at most
    HERMITIAN_WIDTH: ||T|| < h holds exactly when h I - T and h I + T are
    both positive definite, which Sylvester's criterion decides from the
    leading principal minors (fraction-free Bareiss elimination over the
    Gaussian integers).  A float eigenvalue guess only proposes the two
    ends; exact bisection takes over where a proposal is refuted
    (:func:`_hermitian_norm_enclosure`).
    """
    from .hermitian import HERMITIAN_WIDTH

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
    return CommutatorNorm(worst, table2)


def _hermitian_norm_enclosure(block: list[list[CQ]], tol: Fraction) -> Interval:
    """Certified enclosure of the operator norm of a self-adjoint block, width <= tol.

    The bracket starts at [0, max row sum], which holds for any matrix.  A
    float guess proposes an upper and a lower end tol/2 away from it, and
    exact bisection closes whatever is left; every end is proved or refuted
    by an exact definiteness test, and a refuted end still narrows
    the bracket from the other side.
    """
    from .hermitian import _float_eigenvalues

    if all(not v for row in block for v in row):
        return Interval(Fraction(0), Fraction(0))
    # T = (re + i im) / scale with Gaussian-integer entries
    scale = lcm(*(v.d for row in block for v in row))
    re = [[v.a * (scale // v.d) for v in row] for row in block]
    im = [[v.b * (scale // v.d) for v in row] for row in block]
    lo = Fraction(0)
    hi = Fraction(max(sum(map(abs, r)) + sum(map(abs, i)) for r, i in zip(re, im)), scale)
    guess = max(_float_eigenvalues(block), key=abs)
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
