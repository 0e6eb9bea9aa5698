"""The basis keys and the star map of ``hlab.monomials`` on every admitted
space with n <= 6 and r <= 2, from integers alone: no operator is built, so
this covers n = 4..6, where the engine's star tests do not run.  The wedge
sign and the star phases also agree, case by case, with the sorting sign
that ``hlab verify`` holds the certificate tables to."""

import pytest

from hlab.literals import check_space
from hlab.monomials import basis_keys, bidegree, star_key, wedge_sign
from hlab.selfcheck import _factors, _sorting_sign, _star_by_sorting


def _admitted(n, r):
    try:
        check_space(n, r)
    except ValueError:
        return False
    return True


SPACES = [(n, r) for n in range(1, 7) for r in (1, 2) if _admitted(n, r)]


def _indices(m):
    """The index tuple of a bitmask: j for each bit j - 1."""
    return tuple(j + 1 for j in range(m.bit_length()) if m >> j & 1)


@pytest.mark.parametrize("n,r", SPACES, ids=[f"n{n}-r{r}" for n, r in SPACES])
def test_basis_keys_partition_the_basis_in_order(n, r):
    full, seen = (1 << n) - 1, []
    for p in range(n + 1):
        for q in range(n + 1):
            keys = basis_keys(n, r, p, q)
            assert all(bidegree(n, c) == (p, q) for c in keys)
            order = [(_indices(c & full), _indices(c >> n & full), c >> 2 * n) for c in keys]
            assert order == sorted(set(order))
            seen += keys
    assert sorted(seen) == list(range(r << 2 * n))


@pytest.mark.parametrize("n,r", SPACES, ids=[f"n{n}-r{r}" for n, r in SPACES])
def test_star_key_pairs_the_bidegrees_and_squares_to_the_sign(n, r):
    # star maps (p, q) one to one onto (n - q, n - p), and star star = (-1)^{p+q}
    for p in range(n + 1):
        for q in range(n + 1):
            keys = basis_keys(n, r, p, q)
            images = [star_key(n, c) for c in keys]
            assert sorted(t for t, _ in images) == sorted(basis_keys(n, r, n - q, n - p))
            for c, (t, e) in zip(keys, images):
                back, e2 = star_key(n, t)
                assert back == c
                assert (e + e2) % 4 == 2 * (p + q) % 4


@pytest.mark.parametrize("n", [1, 2, 3])
def test_wedge_sign_is_the_sorting_sign(n):
    # every (J1, K1, J2, K2): the sign of sorting the factors of both monomials
    masks = range(1 << n)
    for J1 in masks:
        for K1 in masks:
            for J2 in masks:
                for K2 in masks:
                    factors = _factors(n, J1 | K1 << n) + _factors(n, J2 | K2 << n)
                    assert _sorting_sign(factors) == wedge_sign(J1, K1, J2, K2), (J1, K1, J2, K2)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_star_key_is_fixed_by_the_volume_form_and_the_sorting_sign(n):
    # u ^ conj(star u) = vol on every basis key, the fiber index included
    assert [star_key(n, c) for c in range(2 << 2 * n)] == [_star_by_sorting(n, c) for c in range(2 << 2 * n)]
