"""The monomials xi_J ^ xibar_K of Lambda^{*,*}(C^n): their basis order, and
their signs and phases under wedge and the Hodge star.

The rules are integer ones on bitmasks (index j is bit j - 1): the wedge
sign is +-1 and the star's phase an exponent of i.  ``hlab.sl2`` certifies
the Kahler identities from them alone.  The helpers on sorted index tuples
wrap them in Gaussian rationals for the operator engine (``hlab.lefschetz``)
and the Hermitian blocks (``hlab.blocks``); only they load ``hlab.gaussian``.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .gaussian import CQ


def mask(J: tuple[int, ...]) -> int:
    """The bitmask of an index tuple: bit j - 1 for each j in J."""
    return sum(1 << (j - 1) for j in J)


def _inversions(a: int, b: int) -> int:
    """The pairs x in a, y in b with x > y."""
    count = 0
    while b:
        low = b & -b
        count += (a & -(low << 1)).bit_count()
        b ^= low
    return count


def wedge_sign(J1: int, K1: int, J2: int, K2: int) -> int:
    """(xi_J1 ^ xibar_K1) ^ (xi_J2 ^ xibar_K2) = sign xi_{J1|J2} ^ xibar_{K1|K2}
    on bitmasks, sign = +-1; 0 when the wedge vanishes."""
    if J1 & J2 or K1 & K2:
        return 0
    odd = _inversions(J1, J2) + _inversions(K1, K2) + K1.bit_count() * J2.bit_count()
    return -1 if odd % 2 else 1


def star_exponent(n: int, J: int, K: int) -> int:
    """The e in 0..3 with star(xi_J ^ xibar_K) = i^e xi_{K^c} ^ xibar_{J^c}, on
    bitmasks, fixed by  u ^ conj(star u) = <u, u> vol  on monomials.

    vol = omega^n/n! = i^n (-1)^{n(n-1)/2} xi_1..xi_n ^ xibar_1..xibar_n, and
    conj(xi_{K^c} ^ xibar_{J^c}) = (-1)^{|J^c||K^c|} xi_{J^c} ^ xibar_{K^c},
    whose wedge with xi_J ^ xibar_K is a sign times the top cell: the phase
    is i^{-n} times the three signs.
    """
    Jc, Kc = J ^ ((1 << n) - 1), K ^ ((1 << n) - 1)
    odd = n * (n - 1) // 2 + Jc.bit_count() * Kc.bit_count() + (wedge_sign(J, K, Jc, Kc) < 0)
    return (2 * odd - n) % 4


def i_power(k: int) -> CQ:
    from .gaussian import CQ

    return CQ(*((1, 0), (0, 1), (-1, 0), (0, -1))[k % 4])


def wedge_monomials(
    J1: tuple[int, ...], K1: tuple[int, ...], J2: tuple[int, ...], K2: tuple[int, ...]
):
    """(xi_J1 ^ xibar_K1) ^ (xi_J2 ^ xibar_K2) -> (sign, J, K) or None."""
    sign = wedge_sign(mask(J1), mask(K1), mask(J2), mask(K2))
    if not sign:
        return None
    return sign, tuple(sorted(J1 + J2)), tuple(sorted(K1 + K2))


def bidegree_monomials(n: int, p: int, q: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The (J, K) of the monomials xi_J ^ xibar_K of bidegree (p, q), in the
    basis order: J, then K, each lexicographic."""
    full = range(1, n + 1)
    return [(J, K) for J in combinations(full, p) for K in combinations(full, q)]


def complement(n: int, J: tuple[int, ...]) -> tuple[int, ...]:
    """{1..n} minus J, sorted."""
    return tuple(j for j in range(1, n + 1) if j not in J)


def star_phase(n: int, J: tuple[int, ...], K: tuple[int, ...]) -> CQ:
    """The unit c with star(xi_J ^ xibar_K) = c xi_{K^c} ^ xibar_{J^c}: i to
    the :func:`star_exponent`."""
    return i_power(star_exponent(n, mask(J), mask(K)))
