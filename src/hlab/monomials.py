"""The basis of Lambda^{*,*}(C^n) x C^r as integer keys, and the signs and
phases of its monomials under wedge and the Hodge star.

A basis monomial xi_J ^ xibar_K (x) e_s is the key J | K << n | s << 2n,
with J and K bitmasks (index j is bit j - 1), so the keys below r 4^n are
the whole basis.  The wedge sign is +-1 and the star's phase an exponent of
i.  The certificates of ``hlab.sl2``, the Hermitian blocks (``hlab.blocks``)
and the operator engine (``hlab.lefschetz``) all index the basis by these
keys and take every sign and phase from here; only :func:`i_power` loads
``hlab.gaussian``.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .gaussian import CQ


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


def bidegree(n: int, c: int) -> tuple[int, int]:
    """The bidegree (|J|, |K|) of the basis key c."""
    full = (1 << n) - 1
    return (c & full).bit_count(), (c >> n & full).bit_count()


def basis_keys(n: int, r: int, p: int, q: int) -> list[int]:
    """The keys of bidegree (p, q), in the basis order: J, then K, each as a
    sorted index tuple in lexicographic order, then s."""
    masks = [[sum(1 << j for j in J) for J in combinations(range(n), k)] for k in (p, q)]
    return [J | K << n | s << 2 * n for J in masks[0] for K in masks[1] for s in range(r)]


def star_key(n: int, c: int) -> tuple[int, int]:
    """(sigma(c), e) with star c = i^e sigma(c): the star sends
    xi_J ^ xibar_K (x) e_s to i^e xi_{K^c} ^ xibar_{J^c} (x) e_s, with e in
    0..3 fixed by  u ^ conj(star u) = <u, u> vol  on monomials.

    vol = omega^n/n! = i^n (-1)^{n(n-1)/2} xi_1..xi_n ^ xibar_1..xibar_n, and
    conj(xi_{K^c} ^ xibar_{J^c}) = (-1)^{|J^c||K^c|} xi_{J^c} ^ xibar_{K^c},
    whose wedge with xi_J ^ xibar_K is a sign times the top cell: the phase
    is i^{-n} times the three signs.
    """
    full = (1 << n) - 1
    J, K = c & full, c >> n & full
    Jc, Kc = J ^ full, K ^ full
    odd = n * (n - 1) // 2 + Jc.bit_count() * Kc.bit_count() + (wedge_sign(J, K, Jc, Kc) < 0)
    return Kc | Jc << n | c >> 2 * n << 2 * n, (2 * odd - n) % 4


def i_power(k: int) -> CQ:
    from .gaussian import CQ

    return CQ(*((1, 0), (0, 1), (-1, 0), (0, -1))[k % 4])
