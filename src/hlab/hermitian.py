"""Hermitian curvature iTheta(E): the record, and the float eigenvalues that
propose the ends of its certified norm enclosures.

Both Hermitian norm certificates read it (``linebundle``, ``blocks``);
``hlab.diagonal.commutator_norm`` chooses between them.  Each C_{p,q}
enclosure is at most HERMITIAN_WIDTH wide.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, copysign, nan, sqrt
from typing import Union

from .diagonal import DiagonalCurvature
from .gaussian import CQ, _as_cq
from .literals import check_space
from .record import Record

HERMITIAN_WIDTH = Fraction(1, 10**12)  # of each Hermitian C_pq enclosure
MAX_HERMITIAN_BLOCK = 100  # r >= 2: Bareiss (hlab.blocks) costs the cube of the largest block


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


def _float_eigenvalues(block: list[list[CQ]]) -> list[float]:
    """Eigenvalues of a Hermitian block, by cyclic complex Jacobi in floats
    (nan when an entry overflows a float).  Only proposals: the callers
    certify them exactly, and bisect where a proposal is refuted or not
    finite."""
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
