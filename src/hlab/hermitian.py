"""Hermitian curvature iTheta(E): the record, the exact inertia kernel of
its spectra, the search that encloses a value from it, and the float
eigenvalues that propose where to look.

From the document to the certificate, theta and every matrix built from it
are Gaussian integers over one positive scale: a matrix is the triple
(scale, re, im) of (re + i im) / scale, with re and im integer matrices.

Both Hermitian norm certificates read it (``linebundle``, ``blocks``), and
``hlab.diagonal.commutator_norm`` chooses between them by rank; this module
chooses nothing.  Each C_{p,q} enclosure is at most HERMITIAN_WIDTH wide.
The ``curvature.hermitian`` section of a document is read here too
(:func:`read_hermitian`, :func:`read_theta`), next to the record it feeds.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice, product
from math import comb, copysign, isfinite, lcm, nan, sqrt
from typing import Iterator, Union

from .diagonal import DiagonalCurvature
from .errors import CertificateError, DocumentError
from .literals import _at, _rational, _rationals, check_space
from .record import Record

HERMITIAN_WIDTH = Fraction(1, 10**12)  # of each Hermitian C_pq enclosure
MAX_HERMITIAN_BLOCK = 100  # r >= 2: Bareiss (hlab.blocks) costs the cube of the largest block


def read_theta(node, path: str, depth: int = 3):
    """The theta array of an input document as nested tuples of exact
    (re, im) rational entries; every level above the entries must be a JSON
    list (theta[j][k][a][b] has depth 3 above its entries).  It lives next
    to the record it feeds, so a document without one compiles no reader."""
    if not isinstance(node, list):
        raise DocumentError(f"{path} must be an n x n array of r x r matrices (nested JSON lists)")
    if depth > 0:
        return tuple(read_theta(x, f"{path}[{i}]", depth - 1) for i, x in enumerate(node))
    if any(isinstance(x, list) and len(x) != 2 for x in node):
        raise DocumentError(f"{path}: a complex entry is a rational or [re, im]")
    return tuple(
        _rationals(x, f"{path}[{i}]") if isinstance(x, list) else (_rational(x, f"{path}[{i}]"), 0)
        for i, x in enumerate(node)
    )


def read_hermitian(node) -> HermitianCurvature:
    """The ``curvature.hermitian`` section of a document: its theta."""
    from .inputdoc import _object

    herm = _object(node, "curvature.hermitian", ("theta",))
    theta = read_theta(herm.get("theta"), "curvature.hermitian.theta")
    with _at("curvature.hermitian.theta"):
        return HermitianCurvature(theta)


class HermitianCurvature(Record):
    """iTheta(E) = i sum_{j,k} theta[j][k] xi_j ^ xibar_k, theta[j][k] r x r.

    Built from exact entries, each a rational or an (re, im) pair of
    rationals, all divided by ``scale`` (a nonzero rational, 1 by default),
    it holds them as Gaussian integers over their least common scale:
    theta[j][k][a][b] is the pair (x, y) of the entry (x + i y) / scale.
    Hermitian symmetry theta[j][k] = theta[k][j]^dagger is validated on
    those integers.  For r >= 2 the largest bidegree block, of dimension
    r C(n, n/2)^2, is at most MAX_HERMITIAN_BLOCK; a line bundle's norm
    builds no block.
    """

    theta: tuple[tuple[tuple[tuple[tuple[int, int], ...], ...], ...], ...]
    scale: int = 1

    def __post_init__(self):
        n = len(self.theta)
        r = len(self.theta[0][0]) if n and self.theta[0] else 0
        check_space(n, r)
        if r >= 2 and (block := r * comb(n, n // 2) ** 2) > MAX_HERMITIAN_BLOCK:
            raise ValueError(
                f"the largest bidegree block has dimension {r} C({n}, {n // 2})^2 = {block} > {MAX_HERMITIAN_BLOCK}"
            )
        if any(
            len(line) != n or any(len(mat) != r or any(len(row) != r for row in mat) for mat in line)
            for line in self.theta
        ):
            raise ValueError("theta must be an n x n array of r x r fiber matrices")
        try:  # Fraction(v, scale) refuses every v but an int or a Fraction
            parts = [
                Fraction(v, self.scale)
                for line in self.theta for mat in line for row in mat for x in row
                for v in (x if isinstance(x, (tuple, list)) and len(x) == 2 else (x, 0))
            ]
        except TypeError:
            raise TypeError("a theta entry is a rational or an (re, im) pair of rationals") from None
        scale = lcm(*(v.denominator for v in parts))
        whole = (v.numerator * (scale // v.denominator) for v in parts)
        pairs = zip(whole, whole)
        theta = tuple(tuple(tuple(tuple(islice(pairs, r)) for _ in range(r)) for _ in range(n)) for _ in range(n))
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "scale", scale)
        for j, k, a, b in product(range(n), range(n), range(r), range(r)):
            x, y = theta[j][k][a][b]
            if theta[k][j][b][a] != (x, -y):
                raise ValueError(f"theta[{j}][{k}] is not the adjoint of theta[{k}][{j}]")

    @property
    def n(self) -> int:
        return len(self.theta)

    @property
    def r(self) -> int:
        return len(self.theta[0][0])


CurvatureSpec = Union[DiagonalCurvature, HermitianCurvature]


def integer_parts(matrix: tuple) -> tuple:
    """(scale, re, im, radius) of the matrix (scale, re, im), certified
    Hermitian on its integers (re symmetric, im antisymmetric); radius is
    the largest row sum of |re| + |im| over scale, which bounds every
    eigenvalue's size.  The one Hermitian certificate of both paths."""
    scale, re, im = matrix
    for i, (row_re, row_im) in enumerate(zip(re, im)):
        for j in range(i, len(row_re)):
            if row_re[j] != re[j][i] or row_im[j] != -im[j][i]:
                raise CertificateError("matrix is not Hermitian; convention bug")
    return scale, re, im, Fraction(max(sum(map(abs, r)) + sum(map(abs, i)) for r, i in zip(re, im)), scale)


def inertia_signs(parts: tuple, h: Fraction, s: int = 1) -> Iterator[int]:
    """Lazily, the sign of each eigenvalue of den(h) scale (h I - s A),
    A = (re + i im) / scale: +1 per eigenvalue of s A below h, 0 per one at h.

    Sylvester's inertia from Bareiss pivots D_k: sign(D_k D_{k-1}).  A zero
    row is a zero eigenvalue; any other zero pivot takes the congruence
    e_k -> e_k + u e_t, u = +-1 or +-i, which keeps later divisions exact.
    """
    scale, re, im, _ = parts
    num, den = h.numerator * scale, h.denominator
    mr = [[(num if i == j else 0) - s * den * x for j, x in enumerate(row)] for i, row in enumerate(re)]
    mi = [[-s * den * x for x in row] for row in im]
    d, prev = len(mr), 1
    for k in range(d):
        rk, ik = mr[k], mi[k]
        if not rk[k]:
            if not (t := next((t for t in range(k + 1, d) if rk[t] or ik[t]), 0)):  # a zero row
                yield 0
                continue
            # u = +-1, else +-i; row k gains conj(u) row t, and the pivot
            # 2 Re(u M_kt) + M_tt takes the sign of u that makes it nonzero
            real, m = bool(rk[t]), mr[t][t]
            p = rk[t] if real else -ik[t]  # Re(M_kt), else Re(i M_kt)
            sign = 1 if 2 * p + m else -1
            for j in range(k + 1, d):
                c, e = (mr[t][j], mi[t][j]) if t <= j else (mr[j][t], -mi[j][t])
                rk[j], ik[j] = (rk[j] + sign * c, ik[j] + sign * e) if real else (rk[j] + sign * e, ik[j] - sign * c)
            rk[k] = 2 * sign * p + m
        pivot = rk[k]
        yield 1 if (pivot > 0) == (prev > 0) else -1
        for i in range(k + 1, d):
            a, b = rk[i], -ik[i]  # entry (i, k) = conj(entry (k, i))
            ri, ii = mr[i], mi[i]
            for j in range(i, d):
                c, e = rk[j], ik[j]
                x, x_rem = divmod(pivot * ri[j] - a * c + b * e, prev)
                y, y_rem = divmod(pivot * ii[j] - a * e - b * c, prev)
                if x_rem or y_rem:
                    raise CertificateError("Bareiss division is not exact")
                ri[j], ii[j] = x, y
        prev = pivot


def enclose(compare, guess: float, lo: Fraction, hi: Fraction, width: Fraction) -> tuple:
    """(lo, hi), at most width wide, around the x in [lo, hi] with
    compare(h) = sign(x - h) exactly; h stays inside the open bracket.

    A finite guess proposes the nearest c of the grid of step width/2, then
    c -/+ width/2 on the side compare(c) names; exact bisection does the rest.
    """
    step = width / 2

    def probe(h):
        nonlocal lo, hi
        if (side := compare(h)) >= 0:
            lo = h
        if side <= 0:
            hi = h
        return side

    if isfinite(guess) and lo < (c := round(Fraction(guess) / step) * step) < hi:
        if (side := probe(c)) and lo < c + side * step < hi:
            probe(c + side * step)
    while hi - lo > width:
        probe((lo + hi) / 2)
    return lo, hi


def _float_eigenvalues(parts: tuple) -> list[float]:
    """Eigenvalues of the Hermitian matrix of :func:`integer_parts`, by
    cyclic complex Jacobi in floats (nan when an entry overflows a float).
    Only guesses for :func:`enclose`.  Each entry is int / int, which is
    correctly rounded: the float of the exact rational entry."""
    scale, re, im, _ = parts
    try:
        A = [[complex(x / scale, y / scale) for x, y in zip(*rows)] for rows in zip(re, im)]
    except OverflowError:
        return [nan] * len(re)
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
    return [A[i][i].real for i in range(d)]
