"""Diagonal line-bundle curvature and its commutator norm in closed form.

For iTheta(L) = i sum_j gamma_j xi_j ^ xibar_j the operator [iTheta(L), Lambda]
is diagonal on the monomial basis, with eigenvalue gamma_J + gamma_K - sum gamma
on xi_J ^ xibar_K, so C = |[Lambda, iTheta(L)]| and each C_{p,q} are exact
rationals got from sorted partial sums of the gammas, with no operator built.
This module holds that closed form and the space rule :func:`check_space`
that every way into the operator engine passes, so ``commutator --gammas``
and the ``lefschetz-check`` flag check load no operator engine;
``hlab.lefschetz`` re-exports all of them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Union

from .errors import CertificateError
from .record import Interval, Record

if TYPE_CHECKING:
    from .gaussian import CQ

MAX_N = 6  # 4^n r grows fast; paper-scale checks never need more


def check_space(n: int, r: int):
    """The one rule admitting Lambda^{*,*}(C^n) tensor C^r: 1 <= n <= MAX_N,
    r >= 1 and dimension 4^n r <= 4^MAX_N; ValueError otherwise."""
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n = {n} is outside [1, {MAX_N}]")
    if r < 1:
        raise ValueError(f"the fiber rank r = {r} is below 1")
    if 4**n * r > 4**MAX_N:
        raise ValueError(f"the space has dimension 4^n r = {4**n * r} > 4^{MAX_N}")


class DiagonalCurvature(Record):
    """iTheta(L) = i sum_j gamma_j xi_j ^ xibar_j for a line bundle (r = 1)."""

    gammas: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "gammas", tuple(Fraction(g) for g in self.gammas))
        check_space(self.n, 1)

    @property
    def n(self) -> int:
        return len(self.gammas)

    @property
    def r(self) -> int:
        return 1

    @property
    def theta(self) -> tuple[tuple[tuple[tuple[CQ, ...], ...], ...], ...]:
        """The :class:`HermitianCurvature` view: 1 x 1 blocks, gamma_j at (j, j)."""
        from .gaussian import CQ, CQ_ZERO  # only the operator engine reads theta

        zero = ((CQ_ZERO,),)
        return tuple(
            tuple(((CQ(g),),) if j == k else zero for k in range(self.n)) for j, g in enumerate(self.gammas)
        )

    def scaled(self, m: int | Fraction) -> "DiagonalCurvature":
        return DiagonalCurvature(tuple(g * Fraction(m) for g in self.gammas))


class CommutatorNorm(Record):
    """C = |[Lambda, iTheta(E)]| together with the per-bidegree table."""

    value: Union[Fraction, Interval]
    table: dict[tuple[int, int], Union[Fraction, Interval]]
    exact: bool


def _diagonal_table(spec: DiagonalCurvature) -> dict[tuple[int, int], Fraction]:
    """C_{p,q} = max |gamma_J + gamma_K - sum gamma| over |J| = p, |K| = q.

    The eigenvalue is a sum of a p-subset sum and a q-subset sum less a
    constant, so its extremes are the sums of the extremes: the p largest
    and the p smallest gammas give max and min S_p, and the largest |x|
    on [min, max] sits at an end.  No 4^n enumeration.
    """
    n, g = spec.n, sorted(spec.gammas)
    total = sum(g, Fraction(0))
    low = [sum(g[:p], Fraction(0)) for p in range(n + 1)]
    high = [sum(g[n - p :], Fraction(0)) for p in range(n + 1)]
    return {
        (p, q): max(abs(high[p] + high[q] - total), abs(low[p] + low[q] - total))
        for p in range(n + 1)
        for q in range(n + 1)
    }


def diagonal_norm(spec: DiagonalCurvature) -> CommutatorNorm:
    """The exact C and C_{p,q} table of a diagonal curvature (:func:`_diagonal_table`)."""
    table = _diagonal_table(spec)
    return CommutatorNorm(max(table.values()), table, exact=True)


def flatness_test(spec: DiagonalCurvature) -> bool:
    """C = 0 iff Theta(L) = 0; both sides are computed and cross-checked."""
    if not isinstance(spec, DiagonalCurvature):
        raise TypeError("flatness test applies to diagonal line-bundle curvature")
    c = diagonal_norm(spec).value
    flat = all(g == 0 for g in spec.gammas)
    if (c == 0) != flat:
        raise CertificateError("flatness lemma violated; closed-form C_pq table (_diagonal_table) bug")
    return c == 0
