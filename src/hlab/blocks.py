"""The commutator norm of a Hermitian curvature of any rank from the bidegree
blocks of T = [Lambda, iTheta(E)], each read from theta.

T maps Lambda^{p,q} x C^r into itself.  On u = xi_J ^ xibar_K (x) e_s,

    T u = sum_j theta_jj u - sum_{j,k} theta_jk (eps xi_{J:k->j} ^ xibar_K
                                                + eps' xi_J ^ xibar_{K:j->k}),

with each r x r fiber matrix theta_jk acting on e_s.  J:k->j removes k from
J and inserts j; the term is zero when k is not in J, or when j != k is.
With R = J minus k, eps = wedge_sign(k, R) wedge_sign(j, R): the sign that
takes xi_k out of xi_J times the one that puts xi_j into xi_R.  eps' is the
same within K alone: there is no sign across J and K.  So the block
T_{p,q}, of dimension r C(n,p) C(n,q) in the basis order of
``hlab.monomials.basis_keys``, is built entry by entry
(:func:`commutator_block`) and no 4^n r-dimensional operator is.
``hlab verify`` holds every block against the operator engine's.

The Hodge star maps Lambda^{p,q} onto Lambda^{n-q,n-p} by the monomial
unitary S: c -> i^e sigma(c) of ``hlab.monomials.star_key``, and
star^{-1} T star = -T, so T_{n-q,n-p} = -S T_{p,q} S* and the two blocks
have the same norm.  Every run builds both blocks of a pair and checks that
identity exactly, then certifies one norm for both; a block with p + q = n
is its own partner, so its spectrum is symmetric.
``hlab.diagonal.commutator_norm`` sends a Hermitian curvature of rank
r >= 2 here, and loads no operator engine for it.
"""

from __future__ import annotations

from fractions import Fraction
from math import isfinite, lcm
from typing import TYPE_CHECKING

from . import hermitian
from .diagonal import CommutatorNorm
from .errors import CertificateError
from .gaussian import CQ, CQ_ZERO
from .monomials import basis_keys, i_power, star_key, wedge_sign
from .record import Interval

if TYPE_CHECKING:
    from .hermitian import HermitianCurvature


def block_commutator_norm(spec: HermitianCurvature) -> CommutatorNorm:
    """C and the C_{p,q} table of a Hermitian curvature of any rank, from
    the bidegree blocks T of [Lambda, iTheta(E)].

    Each ||T|| gets a certified rational enclosure of width at most
    HERMITIAN_WIDTH: ||T|| < h holds exactly when h I - T and h I + T are
    both positive definite, which Sylvester's criterion decides from the
    leading principal minors (fraction-free Bareiss elimination over the
    Gaussian integers).  A float eigenvalue guess only proposes the two
    ends; exact bisection takes over where a proposal is refuted
    (:func:`_hermitian_norm_enclosure`).  The star pairs blocks (module
    docstring): one enclosure serves both blocks of a pair.
    """
    n = spec.n
    found: dict[tuple[int, int], Interval] = {}
    for p in range(n + 1):
        for q in range(n + 1):
            if (p, q) in found:
                continue
            pair = (n - q, n - p)
            block = commutator_block(spec, p, q)
            partner = block if pair == (p, q) else commutator_block(spec, *pair)
            _check_star_pair(spec, p, q, block, partner)
            found[(p, q)] = found[pair] = _hermitian_norm_enclosure(
                block, hermitian.HERMITIAN_WIDTH, symmetric=pair == (p, q)
            )
    table = {key: found[key] for key in sorted(found)}
    return CommutatorNorm(max(table.values(), key=lambda iv: iv.hi), table)


def commutator_block(spec: HermitianCurvature, p: int, q: int) -> list[list[CQ]]:
    """The block T_{p,q} of [Lambda, iTheta(E)], row-major in the basis order
    of ``basis_keys``, from theta by the formula of the module docstring.  It
    must be Hermitian, else CertificateError."""
    n, r, theta = spec.n, spec.r, spec.theta
    keys = basis_keys(n, r, p, q)
    rows = {c: i for i, c in enumerate(keys)}
    size, full = len(keys), (1 << n) - 1
    block = [[CQ_ZERO] * size for _ in range(size)]

    def add(c, col, mat, sign):
        """Add sign mat[s'][s] at row (key c) + s', column col + s."""
        row = rows[c]
        for a in range(r):
            line = block[row + a]
            for s, v in enumerate(mat[a]):
                if v:
                    line[col + s] = line[col + s] + v if sign > 0 else line[col + s] - v

    for col in range(0, size, r):
        c = keys[col]
        for j in range(n):
            add(c, col, theta[j][j], 1)
        # xi_{J:k->j} at shift 0, with theta_jk; xibar_{K:k->j} at shift n, with theta_kj
        for shift in (0, n):
            part = c >> shift & full
            for k in range(n):
                if part >> k & 1:
                    rest = part ^ 1 << k
                    for j in range(n):
                        if not rest >> j & 1:
                            sign = wedge_sign(1 << k, 0, rest, 0) * wedge_sign(1 << j, 0, rest, 0)
                            add(c ^ (1 << k ^ 1 << j) << shift, col, theta[j][k] if shift == 0 else theta[k][j], -sign)
    for i, line in enumerate(block):
        if any(line[j] != block[j][i].conj() for j in range(i, size)):
            raise CertificateError("[Lambda, iTheta] must be self-adjoint; convention bug")
    return block


def _check_star_pair(spec: HermitianCurvature, p: int, q: int, block, partner):
    """T_{n-q,n-p} = -S T_{p,q} S* exactly for the star's monomial unitary S
    (module docstring), else CertificateError."""
    n, r = spec.n, spec.r
    targets = {c: i for i, c in enumerate(basis_keys(n, r, n - q, n - p))}
    # S sends index a of T_{p,q} to index image[a] of T_{n-q,n-p}, times phase[a]
    image, phase = [], []
    for c in basis_keys(n, r, p, q):
        t, e = star_key(n, c)
        image.append(targets[t])
        phase.append(i_power(e))
    for a, line in enumerate(block):
        target = partner[image[a]]
        for b, v in enumerate(line):
            if target[image[b]] != -(phase[a] * v * phase[b].conj()):
                raise CertificateError(f"star does not pair the blocks ({p}, {q}) and ({n - q}, {n - p}) of T")


def _hermitian_norm_enclosure(block: list[list[CQ]], tol: Fraction, symmetric: bool = False) -> Interval:
    """Certified enclosure of the operator norm of a self-adjoint block, width <= tol.

    The bracket starts at [0, max row sum], which holds for any matrix.  A
    float guess proposes an upper and a lower end tol/2 away from it, and
    exact bisection closes whatever is left; every end is proved or refuted
    by an exact definiteness test, and a refuted end still narrows
    the bracket from the other side.  A caller that has proved the spectrum
    ``symmetric`` (-T similar to T) gets one definiteness test per end.
    """
    if all(not v for row in block for v in row):
        return Interval(Fraction(0), Fraction(0))
    # T = (re + i im) / scale with Gaussian-integer entries
    scale = lcm(*(v.d for row in block for v in row))
    re = [[v.a * (scale // v.d) for v in row] for row in block]
    im = [[v.b * (scale // v.d) for v in row] for row in block]
    lo = Fraction(0)
    hi = Fraction(max(sum(map(abs, r)) + sum(map(abs, i)) for r, i in zip(re, im)), scale)
    guess = max(hermitian._float_eigenvalues(block), key=abs)
    # the extreme eigenvalue's sign says which of h I -/+ T fails first; with
    # a symmetric spectrum h I - T is positive definite iff h I + T is
    signs = (1,) if symmetric else (-1, 1) if guess < 0 else (1, -1)

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
