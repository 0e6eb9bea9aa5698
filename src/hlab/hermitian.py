"""Hermitian curvature iTheta(E): the record, the exact inertia kernel of
its spectra, the search that encloses a value from it, and the float
eigenvalues that propose where to look.

Both Hermitian norm certificates read it (``linebundle``, ``blocks``);
:func:`hermitian_norm` chooses between them for
``hlab.diagonal.commutator_norm``.  Each C_{p,q} enclosure is at most
HERMITIAN_WIDTH wide.  The ``curvature.hermitian`` section of a document
is read here too (:func:`read_hermitian`, :func:`read_theta`), next to the
record it feeds.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, copysign, isfinite, lcm, nan, sqrt
from typing import Iterator, Union

from .diagonal import DiagonalCurvature
from .errors import CertificateError, DocumentError
from .gaussian import CQ, _as_cq
from .literals import _at, _rational, _rationals, check_space
from .record import Record

HERMITIAN_WIDTH = Fraction(1, 10**12)  # of each Hermitian C_pq enclosure
MAX_HERMITIAN_BLOCK = 100  # r >= 2: Bareiss (hlab.blocks) costs the cube of the largest block


def read_theta(node, path: str, depth: int = 3):
    """The theta array of an input document as nested tuples of complex
    entries; every level above the entries must be a JSON list
    (theta[j][k][a][b] has depth 3 above its entries).  It lives next to
    the record it feeds, so a document without one compiles no reader."""
    if not isinstance(node, list):
        raise DocumentError(f"{path} must be an n x n array of r x r matrices (nested JSON lists)")
    if depth > 0:
        return tuple(read_theta(x, f"{path}[{i}]", depth - 1) for i, x in enumerate(node))
    if any(isinstance(x, list) and len(x) != 2 for x in node):
        raise DocumentError(f"{path}: a complex entry is a rational or [re, im]")
    return tuple(
        CQ(*_rationals(x, f"{path}[{i}]")) if isinstance(x, list) else CQ(_rational(x, f"{path}[{i}]"))
        for i, x in enumerate(node)
    )


def read_hermitian(node) -> HermitianCurvature:
    """The ``curvature.hermitian`` section of a document: its theta."""
    from .inputdoc import _object

    herm = _object(node, "curvature.hermitian", ("theta",))
    theta = read_theta(herm.get("theta"), "curvature.hermitian.theta")
    with _at("curvature.hermitian.theta"):
        return HermitianCurvature(theta)


def hermitian_norm(spec: HermitianCurvature):
    """The CommutatorNorm of a Hermitian curvature: the eigenvalue path of a
    line bundle (``linebundle``), else the bidegree blocks (``blocks``)."""
    if spec.r == 1:
        from .linebundle import line_bundle_norm

        return line_bundle_norm(spec)
    from .blocks import block_commutator_norm

    return block_commutator_norm(spec)


class HermitianCurvature(Record):
    """iTheta(E) = i sum_{j,k} theta[j][k] xi_j ^ xibar_k, theta[j][k] r x r.

    Hermitian symmetry theta[j][k] = theta[k][j]^dagger is validated.  For
    r >= 2 the largest bidegree block, of dimension r C(n, n/2)^2, is at
    most MAX_HERMITIAN_BLOCK; a line bundle's norm builds no block.
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
        if r >= 2 and (block := r * comb(n, n // 2) ** 2) > MAX_HERMITIAN_BLOCK:
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


def integer_parts(matrix: list[list[CQ]]) -> tuple:
    """(scale, re, im, radius): integers with matrix = (re + i im) / scale,
    and the largest row sum of |re| + |im| over scale, which bounds every
    eigenvalue's size.  The one Hermitian certificate of both paths."""
    for i, row in enumerate(matrix):
        if any(row[j] != matrix[j][i].conj() for j in range(i, len(row))):
            raise CertificateError("matrix is not Hermitian; convention bug")
    scale = lcm(*(v.d for row in matrix for v in row))
    re = [[v.a * (scale // v.d) for v in row] for row in matrix]
    im = [[v.b * (scale // v.d) for v in row] for row in matrix]
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


def _float_eigenvalues(block: list[list[CQ]]) -> list[float]:
    """Eigenvalues of a Hermitian block, by cyclic complex Jacobi in floats
    (nan when an entry overflows a float).  Only guesses for :func:`enclose`."""
    try:
        A = [[complex(v.a / v.d, v.b / v.d) for v in row] for row in block]
    except OverflowError:
        return [nan] * len(block)
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
