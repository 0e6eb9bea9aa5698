"""The monomials xi_J ^ xibar_K of Lambda^{*,*}(C^n): their basis order, and
their signs and phases under wedge, conjugation and the Hodge star.

J and K are sorted tuples of indices in {1..n}.  The operator engine
(``hlab.lefschetz``) builds its basis, L and the star from these rules, and
the bidegree blocks of a Hermitian commutator norm (``hlab.blocks``) are
laid out and paired by the same ones, so neither loads the other.
"""

from __future__ import annotations

from itertools import combinations

from .errors import CertificateError
from .gaussian import CQ, CQ_I, CQ_ONE


def i_power(k: int) -> CQ:
    return (CQ_ONE, CQ_I, CQ(-1), CQ(0, -1))[k % 4]


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


def volume_phase(n: int) -> CQ:
    """vol = omega^n/n! = i^n (-1)^{n(n-1)/2} xi_1..xi_n ^ xibar_1..xibar_n."""
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return i_power(n) * sign


def bidegree_monomials(n: int, p: int, q: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The (J, K) of the monomials xi_J ^ xibar_K of bidegree (p, q), in the
    basis order: J, then K, each lexicographic."""
    full = range(1, n + 1)
    return [(J, K) for J in combinations(full, p) for K in combinations(full, q)]


def complement(n: int, J: tuple[int, ...]) -> tuple[int, ...]:
    """{1..n} minus J, sorted."""
    return tuple(j for j in range(1, n + 1) if j not in J)


def star_phase(n: int, J: tuple[int, ...], K: tuple[int, ...]) -> CQ:
    """The unit c with star(xi_J ^ xibar_K) = c xi_{K^c} ^ xibar_{J^c} for J, K
    in {1..n}, fixed by  u ^ conj(star u) = <u, u> vol  on monomials."""
    Jc, Kc = complement(n, J), complement(n, K)
    # conj of the target monomial (Kc, Jc), wedged against (J, K), gives the top cell
    csign, wJ, wK = conj_monomial(Kc, Jc)
    w = wedge_monomials(J, K, wJ, wK)
    if w is None:
        raise CertificateError("complement wedge cannot vanish")
    return (volume_phase(n) / CQ(csign * w[0])).conj()
