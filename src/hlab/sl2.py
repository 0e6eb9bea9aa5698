"""The pointwise Kahler identities of ``lefschetz-check``, over the integers.

The basis of Lambda^{*,*}(C^n) (x) C^r is indexed by the integer keys of
``hlab.monomials``.  L = iS for the integer sign table S of
:func:`sign_table`, so Lambda = L* = -i S^T and
[Lambda, L] = S^T S - S S^T, checked over Z.  The star is the permutation
sigma of :func:`star_table` with phases i^e, read off
``monomials.star_key``.  ``hlab verify`` holds S and the star phases to
a sign rule of its own, the parity of sorting the factors of a wedge.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .errors import CertificateError
from .literals import check_space
from .monomials import bidegree, star_key, wedge_sign
from .record import Record


def sign_table(n: int, r: int) -> dict[int, dict[int, int]]:
    """S with L = iS: each basis key c to {row key: +-1}, L c = i sum S[row, c] row."""
    check_space(n, r)
    full, table = (1 << n) - 1, {}
    for c in range(r << 2 * n):
        J, K = c & full, c >> n & full
        col = table[c] = {}
        for j in range(n):
            sign = wedge_sign(1 << j, 1 << j, J, K)
            if sign:
                col[c | 1 << j | 1 << n + j] = sign
    return table


def star_table(n: int, r: int) -> dict[int, tuple[int, int]]:
    """star c = i^e sigma(c): each basis key c to (sigma(c), e)."""
    check_space(n, r)
    return {c: star_key(n, c) for c in range(r << 2 * n)}


def _rows(S: dict[int, dict[int, int]]) -> dict[int, dict[int, int]]:
    """The rows of S: S^T."""
    rows: dict[int, dict[int, int]] = {}
    for c, col in S.items():
        for row, v in col.items():
            rows.setdefault(row, {})[c] = v
    return rows


def sl2_certificate(n: int, S: dict[int, dict[int, int]]) -> bool:
    """True iff L = iS maps Lambda^{p,q} into Lambda^{p+1,q+1} and
    [Lambda, L] = S^T S - S S^T is (n-k) id on every k-form, exactly, for a
    sign table S over the whole basis."""
    for c, col in S.items():
        p, q = bidegree(n, c)
        if any(bidegree(n, row) != (p + 1, q + 1) for row in col):
            return False
    rows = _rows(S)
    for c, col in S.items():
        acc: dict[int, int] = {}
        for row, v in col.items():
            for c2, w in rows[row].items():
                acc[c2] = acc.get(c2, 0) + v * w
        for c2, v in rows.get(c, {}).items():
            for row, w in S[c2].items():
                acc[row] = acc.get(row, 0) - v * w
        m = n - sum(bidegree(n, c))
        if {key: v for key, v in acc.items() if v} != ({c: m} if m else {}):
            return False
    return True


def star_certificate(S: dict[int, dict[int, int]], star: dict[int, tuple[int, int]]) -> tuple[bool, bool]:
    """(star is unitary, star^{-1} L star == Lambda), exactly, for L = iS and
    star c = i^e sigma(c) over the whole basis.

    Entry (c', c) of star* star is i^(e_c - e_c') when sigma(c') = sigma(c),
    so star* star = id iff sigma is one to one.  Row c' of star* sees only
    sigma(c'), so entry (c', c) of star* L star is the single term
    i^(e_c + 1 - e_c') S[sigma(c'), sigma(c)]; Lambda = -i S^T has
    i^3 S[c, c'] there.  Both are compared as exponents of i mod 4, with
    -1 = i^2.
    """
    preimage: dict[int, list[int]] = {}
    for c, (t, _) in star.items():
        preimage.setdefault(t, []).append(c)
    unitary = all(len(cs) == 1 for cs in preimage.values())
    rows = _rows(S)
    for c, (t, e) in star.items():
        got = {c2: (e + 1 - star[c2][1] + 2 * (v < 0)) % 4 for row, v in S[t].items() for c2 in preimage.get(row, ())}
        if got != {c2: (3 + 2 * (v < 0)) % 4 for c2, v in rows.get(c, {}).items()}:
            return unitary, False
    return unitary, True


def star_identities(n: int, r: int = 1) -> tuple[bool, bool]:
    """(star is unitary, star^{-1} L star == Lambda), both checked exactly."""
    return star_certificate(sign_table(n, r), star_table(n, r))


@lru_cache(maxsize=None)
def sl2_commutator_check(n: int, r: int = 1) -> bool:
    """True iff L maps Lambda^{p,q} into Lambda^{p+1,q+1} and [Lambda, L]
    acts as (n-k) id on every k-form, exactly.

    Cached per (n, r); :func:`injectivity_scan` and :func:`lefschetz_power`
    rest on it.
    """
    return sl2_certificate(n, sign_table(n, r))


class LefschetzPower(Record):
    """Result of analysing L^{n-k} from k-forms to (2n-k)-forms: its
    singular values are exact rationals, so the least and the largest are
    ``Fraction``s, not enclosures."""

    k: int
    bijective: bool
    sigma_min: Fraction
    sigma_max: Fraction
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
    C(2n, k) r, so L^{n-k} is bijective.
    """
    if not 0 <= k <= n:
        raise ValueError(f"k = {k} outside [0, {n}]")
    if not sl2_commutator_check(n, r):
        raise CertificateError("[Lambda, L] is not (n-k) id; no hard Lefschetz certificate")
    sigmas = sorted({Fraction(factorial(n - k + j), factorial(j)) for j in range(k // 2 + 1)})
    return LefschetzPower(k, True, sigmas[0], sigmas[-1], tuple(sigmas))


def injectivity_scan(n: int, r: int = 1) -> dict[tuple[int, int], bool]:
    """Whether L: Lambda^{p,q} -> Lambda^{p+1,q+1} is injective, for every (p,q).

    A certificate from the sl(2) identity, no rank.  Lambda = L* by
    definition, and :func:`sl2_commutator_check` proves
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
    return {(p, q): p + q < n for p in range(n + 1) for q in range(n + 1)}


def lefschetz_check_results(n: int, r: int) -> dict:
    """``hlab lefschetz-check``: the sl(2) and star identities, injectivity of
    L on every bidegree and the powers L^{n-k}, on Lambda^{*,*}(C^n) (x) C^r."""
    results = {"sl2_commutator": sl2_commutator_check(n, r)}
    if n <= 3:
        results["star_unitary"], results["star_conjugation_gives_lambda"] = star_identities(n, r)
    else:
        warnings.warn("star identity check skipped for n > 3 (cost)")
    scan = sorted(injectivity_scan(n, r).items())
    results["injectivity"] = [{"p": p, "q": q, "injective": ok} for (p, q), ok in scan]
    powers = [lefschetz_power(n, r, k) for k in range(n + 1)]
    results["lefschetz_powers"] = [
        {"k": lp.k, "bijective": lp.bijective, "sigma_min": lp.sigma_min, "sigma_max": lp.sigma_max} for lp in powers
    ]
    return results
