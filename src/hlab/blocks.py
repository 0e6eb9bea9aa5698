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
(:func:`commutator_block`) and no 4^n r-dimensional operator is.  Its
entries are sums of theta's entries, so the block is Gaussian integers over
theta's scale, the (scale, re, im) matrix of ``hlab.hermitian``, and it is
built, paired and certified by integer arithmetic alone.  Both functions
take a ``HermitianCurvature`` only.  ``hlab verify`` holds the
blocks to closed forms in which no wedge sign enters (a diagonal curvature
converted by ``hlab.fixtures.as_hermitian``, and split bundles in rotated
frames); the tests hold every block against the operator engine's.

The Hodge star maps Lambda^{p,q} onto Lambda^{n-q,n-p} by the monomial
unitary S: c -> i^e sigma(c) of ``hlab.monomials.star_key``, and
star^{-1} T star = -T, so T_{n-q,n-p} = -S T_{p,q} S* and the two blocks
have the same norm: entry (a, b) of T_{p,q} times i^{e_a - e_b + 2} is
entry (sigma(a), sigma(b)) of its partner.  Every run builds both blocks of
a pair and checks that identity exactly, then certifies one norm for both;
a block with p + q = n is its own partner, so its spectrum is symmetric.
``hlab.diagonal.commutator_norm`` sends a Hermitian curvature of rank
r >= 2 here, and loads no operator engine for it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import TYPE_CHECKING

from . import hermitian
from .diagonal import CommutatorNorm
from .errors import CertificateError
from .monomials import basis_keys, star_key, wedge_sign
from .record import Interval

if TYPE_CHECKING:
    from .hermitian import HermitianCurvature


def block_commutator_norm(spec: HermitianCurvature) -> CommutatorNorm:
    """C and the C_{p,q} table of a Hermitian curvature of any rank, from
    the bidegree blocks T of [Lambda, iTheta(E)].

    Each ||T|| is enclosed to width HERMITIAN_WIDTH by
    :func:`_hermitian_norm_enclosure`.  The star pairs blocks (module
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
            found[(p, q)] = found[pair] = _hermitian_norm_enclosure(block, symmetric=pair == (p, q))
    return CommutatorNorm({key: found[key] for key in sorted(found)})


def commutator_block(spec: HermitianCurvature, p: int, q: int) -> tuple:
    """The block T_{p,q} of [Lambda, iTheta(E)] as the matrix (scale, re, im)
    over theta's scale, row-major in the basis order of ``basis_keys``, from
    theta by the formula of the module docstring."""
    n, r, theta = spec.n, spec.r, spec.theta
    keys = basis_keys(n, r, p, q)
    rows = {c: i for i, c in enumerate(keys)}
    size, full = len(keys), (1 << n) - 1
    re = [[0] * size for _ in range(size)]
    im = [[0] * size for _ in range(size)]

    def add(c, col, mat, sign):
        """Add sign mat[s'][s] at row (key c) + s', column col + s."""
        row = rows[c]
        for a in range(r):
            line_re, line_im = re[row + a], im[row + a]
            for s, (x, y) in enumerate(mat[a]):
                line_re[col + s] += sign * x
                line_im[col + s] += sign * y

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
    return spec.scale, re, im


def _check_star_pair(spec: HermitianCurvature, p: int, q: int, block, partner):
    """T_{n-q,n-p} = -S T_{p,q} S* exactly for the star's monomial unitary S
    (module docstring), else CertificateError."""
    n, r = spec.n, spec.r
    targets = {c: i for i, c in enumerate(basis_keys(n, r, n - q, n - p))}
    # S sends index a of T_{p,q} to index image[a] of T_{n-q,n-p}, times i^power[a]
    image, power = [], []
    for c in basis_keys(n, r, p, q):
        t, e = star_key(n, c)
        image.append(targets[t])
        power.append(e)
    _, re, im = block
    _, partner_re, partner_im = partner
    for a, b in product(range(len(re)), repeat=2):
        # -(i^e_a z conj(i^e_b)) = i^k z, turned a quarter k times
        z = re[a][b], im[a][b]
        for _ in range((power[a] - power[b] + 2) % 4):
            z = -z[1], z[0]
        if (partner_re[image[a]][image[b]], partner_im[image[a]][image[b]]) != z:
            raise CertificateError(f"star does not pair the blocks ({p}, {q}) and ({n - q}, {n - p}) of T")


def _hermitian_norm_enclosure(block: tuple, symmetric: bool = False) -> Interval:
    """Certified enclosure of the operator norm of a self-adjoint block
    (scale, re, im), width <= HERMITIAN_WIDTH.

    ||T|| lies in [0, max row sum], and ``hermitian.enclose`` searches the
    open (-1, 1 + max row sum) from a float guess, so either end can be hit:
    ||T|| > h when h I - T or h I + T has a negative eigenvalue, else
    ||T|| = h when one has a zero eigenvalue.  A caller that has proved the
    spectrum ``symmetric`` (-T similar to T) gets one inertia test per h.
    """
    *_, radius = parts = hermitian.integer_parts(block)  # certifies T Hermitian
    guess = max(hermitian._float_eigenvalues(parts), key=abs)
    # the extreme eigenvalue's sign says which of h I -/+ T fails first
    signs = (1,) if symmetric else (-1, 1) if guess < 0 else (1, -1)

    def compare(h):
        """sign(||T|| - h)"""
        zero = False
        for s in signs:
            for sign in hermitian.inertia_signs(parts, h, s):
                if sign < 0:
                    return 1
                zero = zero or not sign
        return 0 if zero else -1

    return Interval(*hermitian.enclose(compare, abs(guess), Fraction(-1), 1 + radius, hermitian.HERMITIAN_WIDTH))
