"""Exterior algebra model: L, Lambda, star, curvature commutators."""

import math
import re
import random
import time
from fractions import Fraction
from math import gcd

import pytest
from conftest import gaussian_integers, gaussian_rationals, random_form

import hlab.hermitian as hermitian
import hlab.lefschetz as lefschetz
import hlab.linebundle as linebundle
import hlab.sl2 as sl2
from hlab.bounds import Interval, isolate_real_roots, sqrt_enclosure
from hlab.diagonal import DiagonalCurvature
from hlab.errors import CertificateError
from hlab.fixtures import (
    as_hermitian,
    cancelling_hermitian,
    gamma_draws,
    generic_curvature,
    generic_hermitian,
    imaginary_hermitian,
    rotated_split_curvature,
)
from hlab.hermitian import HERMITIAN_WIDTH, HermitianCurvature
from hlab.linebundle import line_bundle_norm
from hlab.literals import check_space
from hlab.monomials import wedge_sign
from hlab.selfcheck import injectivity_by_rank, lefschetz_power_by_rank
from hlab.lefschetz import (
    CQ,
    CQ_I,
    CQ_ONE,
    CQ_ZERO,
    FormVector,
    commutator_norm,
    curvature_operator,
    diagonal_commutator_eigenvalues,
    flatness_test,
    get_basis,
    i_power,
    identity_operator,
    op_L,
    op_Lambda,
    op_star,
)
from hlab.sl2 import injectivity_scan, lefschetz_power, sl2_commutator_check

F = Fraction


# -- CQ on the Gaussian integers ---------------------------------------------------


def _reference_repr(re, im):
    """The repr of the (re, im) Fraction pair CQ was stored as before."""
    if not im:
        return str(re)
    if not re:
        return f"{im}i"
    return f"{re}{'+' if im > 0 else '-'}{abs(im)}i"


def _same(z, re, im):
    """z equals the reference pair (re, im) and is stored in canonical form."""
    assert (z.re, z.im) == (re, im)
    assert z.d > 0 and gcd(z.a, z.b, z.d) == 1
    assert z == CQ(re, im) and hash(z) == hash(CQ(re, im))
    assert repr(z) == _reference_repr(re, im)
    assert bool(z) == bool(re or im)
    if not im:
        assert z == re and hash(z) == hash(re) and re == z
    else:
        assert z != re


def test_cq_arithmetic_matches_a_fraction_pair_reference():
    rng = random.Random(20261018)

    def draw():
        return tuple(F(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4, 6))) for _ in range(2))

    for _ in range(500):
        (xr, xi), (yr, yi) = draw(), draw()
        x, y = CQ(xr, xi), CQ(yr, yi)
        _same(x, xr, xi)
        _same(x + y, xr + yr, xi + yi)
        _same(x - y, xr - yr, xi - yi)
        _same(x * y, xr * yr - xi * yi, xr * yi + xi * yr)
        _same(-x, -xr, -xi)
        _same(x.conj(), xr, -xi)
        assert x.abs2() == xr * xr + xi * xi and type(x.abs2()) is F
        if yr or yi:
            den = yr * yr + yi * yi
            _same(x / y, (xr * yr + xi * yi) / den, (xi * yr - xr * yi) / den)
        else:
            with pytest.raises(ZeroDivisionError):
                x / y
        # mixed with int and Fraction operands, on either side
        _same(x + 1, xr + 1, xi)
        _same(1 - x, 1 - xr, -xi)
        _same(yr * x, yr * xr, yr * xi)
        _same(x - yr, xr - yr, xi)
        assert (x == y) == ((xr, xi) == (yr, yi))
    # non-unit denominators that cancel back to d = 1
    half = CQ(F(1, 2), F(1, 2))
    for z, want in ((half + half.conj(), CQ(1)), (half * 2, CQ(1, 1)), (half * half.conj(), CQ(F(1, 2))),
                    (CQ(F(3, 4), F(-5, 6)) * 12, CQ(9, -10)), (CQ(F(2, 3)) / CQ(F(2, 3)), CQ_ONE)):
        assert (z.a, z.b, z.d) == (want.a, want.b, want.d)
    assert (CQ(F(6, 4), F(1, 6)).a, CQ(F(6, 4), F(1, 6)).b, CQ(F(6, 4), F(1, 6)).d) == (9, 1, 6)


def test_real_cq_hashes_like_the_number_it_equals():
    assert CQ(1) == 1 and hash(CQ(1)) == hash(1)
    assert CQ(1) in {1} and 1 in {CQ(1)}
    assert CQ(F(3, 2)) in {F(3, 2)} and CQ(-7) in {-7: "x"}
    assert CQ(0, 1) not in {1, 0}


def test_cq_compares_unequal_to_a_non_number():
    assert CQ(1) in [None, 1]
    assert (CQ(1) == None) is False and CQ(1) != None  # noqa: E711
    assert CQ(1) != "1" and CQ(0) != 0.0j
    assert CQ(F(1, 2)).__eq__(object()) is NotImplemented


# -- L and Lambda ----------------------------------------------------------------


def test_L_on_scalar_n1():
    basis = get_basis(1, 1)
    col = op_L(1, 1).cols[basis.index[((), (), 0)]]
    assert col == {basis.index[((1,), (1,), 0)]: CQ_I}


def test_L_single_term_to_volume_n2():
    basis = get_basis(2, 1)
    src = basis.index[((1,), (1,), 0)]
    col = op_L(2, 1).cols[src]
    # only xi_2 ^ xibar_2 can be added; hand bookkeeping gives -i
    assert col == {basis.index[((1, 2), (1, 2), 0)]: CQ(0, -1)}


@pytest.mark.parametrize("n,r", [(1, 1), (2, 1), (2, 2), (3, 1)])
def test_L_raises_bidegree(n, r):
    basis = get_basis(n, r)
    L = op_L(n, r)
    for c, col in L.cols.items():
        p, q = basis.bidegree_of(c)
        for row in col:
            assert basis.bidegree_of(row) == (p + 1, q + 1)


def test_lambda_lowers_and_kills_scalars():
    basis = get_basis(2, 1)
    lam = op_Lambda(2, 1)
    assert basis.index[((), (), 0)] not in lam.cols
    vol = basis.index[((1,), (1,), 0)]
    assert all(basis.bidegree_of(r) == (0, 0) for r in lam.cols[vol])


def test_lambda_inverts_first_L_example():
    basis = get_basis(1, 1)
    lam = op_Lambda(1, 1)
    vec = FormVector(basis, {basis.index[((1,), (1,), 0)]: CQ_I})
    out = lam.apply(vec)
    assert out.terms == {basis.index[((), (), 0)]: CQ(1)}


@pytest.mark.parametrize("n,r", [(1, 1), (2, 1), (2, 2), (3, 1)])
def test_adjointness_random_vectors(n, r):
    rng = random.Random(31 * n + r)
    basis = get_basis(n, r)
    L, lam = op_L(n, r), op_Lambda(n, r)
    for _ in range(8):
        a, b = random_form(rng, basis), random_form(rng, basis)
        assert lam.apply(a).inner(b) == a.inner(L.apply(b))


# -- Hodge star -------------------------------------------------------------------


def mask(J):
    """The bitmask of an index tuple: bit j - 1 for each j in J."""
    return sum(1 << (j - 1) for j in J)


def volume_phase(n):
    """vol = omega^n/n! = i^n (-1)^{n(n-1)/2} xi_1..xi_n ^ xibar_1..xibar_n."""
    return i_power(n) * (-1) ** (n * (n - 1) // 2)


def test_star_of_one_is_volume():
    for n in (1, 2, 3):
        basis = get_basis(n, 1)
        col = op_star(n, 1).cols[basis.index[((), (), 0)]]
        ((row, coeff),) = col.items()
        full = tuple(range(1, n + 1))
        assert basis.monomials[row] == (full, full, 0)
        # star(1) is exactly the volume form omega^n / n!
        assert coeff == volume_phase(n)


@pytest.mark.parametrize("n,r", [(1, 1), (2, 1), (3, 1), (2, 2)])
def test_star_defining_convention(n, r):
    # u ^ conj(star u) = <u, u> vol on every basis monomial
    basis = get_basis(n, r)
    star = op_star(n, r)
    vol = volume_phase(n)
    for idx, (J, K, s) in enumerate(basis.monomials):
        ((row, coeff),) = star.cols[idx].items()
        tJ, tK, ts = basis.monomials[row]
        assert ts == s
        # conj(xi_tJ ^ xibar_tK) = (-1)^{|tJ||tK|} xi_tK ^ xibar_tJ
        csign = (-1) ** (len(tJ) * len(tK))
        sign = wedge_sign(mask(J), mask(K), mask(tK), mask(tJ))
        assert sign
        assert mask(J) | mask(tK) == mask(K) | mask(tJ) == (1 << n) - 1
        assert coeff.conj() * csign * sign == vol


@pytest.mark.parametrize("n,r", [(1, 1), (2, 1), (3, 1), (2, 2)])
def test_star_square_sign(n, r):
    basis = get_basis(n, r)
    ss = op_star(n, r).compose(op_star(n, r))
    for idx in range(basis.dim):
        p, q = basis.bidegree_of(idx)
        assert ss.cols.get(idx, {}) == {idx: CQ((-1) ** (p + q))}


@pytest.mark.parametrize("n,r", [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2)])
def test_star_conjugation_gives_lambda(n, r):
    star = op_star(n, r)
    star_inv = star.adjoint()
    assert star_inv.compose(star) == identity_operator(get_basis(n, r))
    assert star_inv.compose(op_L(n, r)).compose(star) == op_Lambda(n, r)


# -- sl2 --------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sl2_multipliers(n):
    assert sl2_commutator_check(n, 1)


def test_sl2_explicit_table():
    basis = get_basis(3, 1)
    H = op_Lambda(3, 1).commutator(op_L(3, 1))
    seen = {}
    for idx in range(basis.dim):
        k = sum(basis.bidegree_of(idx))
        seen.setdefault(k, H.entry(idx, idx))
        assert H.entry(idx, idx) == CQ(3 - k)
    assert sorted(v.re for v in seen.values()) == [-3, -2, -1, 0, 1, 2, 3]


# -- hard Lefschetz ----------------------------------------------------------------


def test_lefschetz_power_identity_case():
    lp = lefschetz_power(2, 1, 2)  # returns without CertificateError: bijective
    assert lp[0] == lp[-1] == 1


def test_lefschetz_power_n1():
    lp = lefschetz_power(1, 1, 0)  # returns without CertificateError: bijective
    assert lp == (F(1),)


def test_lefschetz_power_equal_dimensions():
    basis = get_basis(2, 1)
    degree = {k: sum(len(idxs) for (p, q), idxs in basis.by_bidegree.items() if p + q == k) for k in (1, 3)}
    assert degree[1] == degree[3] == 4
    lefschetz_power(2, 1, 1)  # returns without CertificateError: bijective


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("r", [1, 2])
def test_hard_lefschetz_bijective(n, r):
    for k in range(n + 1):
        lp = lefschetz_power(n, r, k)  # returns without CertificateError: bijective
        # sigma are exact integers (n-k+j)!/j!
        assert type(lp[0]) is F
        assert type(lp[-1]) is F


def test_lefschetz_power_sigma_closed_form():
    import math

    for n in (2, 3, 4):
        for k in range(n + 1):
            lp = lefschetz_power(n, 1, k)
            expected = tuple(
                F(math.factorial(n - k + j), math.factorial(j))
                for j in range(k // 2 + 1)
            )
            if k == n:
                assert lp == (F(1),)
            else:
                assert lp == tuple(sorted(expected))


def test_lefschetz_power_range_check():
    with pytest.raises(ValueError):
        lefschetz_power(2, 1, 3)


def test_lefschetz_power_guard_limit_spot():
    # the documented n = 6 region: spectral certificates instead of rank
    lp = lefschetz_power(5, 1, 2)  # returns without CertificateError: bijective
    assert lp == (F(6), F(24))


@pytest.mark.parametrize("n,r", [(n, r) for n in (1, 2, 3, 4) for r in (1, 2)])
def test_lefschetz_power_matches_exact_ranks(n, r):
    # the reference proves the spectrum of every M^T M block by exact nullities
    for k in range(n + 1):
        # returns without CertificateError, so bijective
        assert (True, lefschetz_power(n, r, k)) == lefschetz_power_by_rank(n, r, k), k


def test_lefschetz_power_builds_no_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("lefschetz_power built a matrix")

    monkeypatch.setattr(sl2, "sl2_commutator_check", lambda n, r=1: True)
    for name in ("sign_table", "star_table"):
        monkeypatch.setattr(sl2, name, refuse)
    assert lefschetz_power(6, 1, 2) == (F(24), F(120))


def _keys(n, r):
    """The sl2 key of each engine basis index."""
    return [mask(J) | mask(K) << n | s << 2 * n for J, K, s in get_basis(n, r).monomials]


def _engine_verdicts(n, L, star):
    """(sl(2), star conjugation) as the operator engine decides them for the
    operators L and star: the bidegree shift and [Lambda, L] = (n-k) id, and
    star* L star == L*."""
    basis = get_basis(n, 1)
    shifted = all(
        basis.bidegree_of(row) == tuple(d + 1 for d in basis.bidegree_of(c)) for c, col in L.cols.items() for row in col
    )
    H = L.adjoint().commutator(L)
    diagonal = all(
        H.cols.get(idx, {}) == ({idx: CQ(m)} if (m := n - sum(basis.bidegree_of(idx))) else {})
        for idx in range(basis.dim)
    )
    return shifted and diagonal, star.adjoint().compose(L).compose(star) == L.adjoint()


def test_sl2_check_refuses_an_entry_off_the_bidegree_shift():
    # both proofs need L to map (p, q) into (p+1, q+1).  Conjugating L by the
    # swap xi_j <-> xibar_j on 1-forms keeps the degree, so [Lambda, L] is
    # still (n-k) id, but L now maps (0, 1) into (2, 1).
    def swap(c):
        J, K = c & 3, c >> 2
        return K | J << 2 if (J | K << 2).bit_count() == 1 else c

    S = {swap(c): {swap(row): v for row, v in col.items()} for c, col in sl2.sign_table(2, 1).items()}
    assert not sl2.sl2_certificate(2, S)
    assert sl2.sl2_certificate(2, sl2.sign_table(2, 1))


def test_sign_flips_are_refused_as_the_engine_refuses_them():
    # flip each single sign of S at (3, 1) and the same entry of L = iS: the
    # integer certificates and the engine give the same verdicts.  36 of the
    # 48 flips break [Lambda, L] = (n-k) id; the other 12 are sign gauges
    n = 3
    index = {key: idx for idx, key in enumerate(_keys(n, 1))}
    table, star = sl2.sign_table(n, 1), op_star(n, 1)
    refused = 0
    for c, col in table.items():
        for row in col:
            S = {c2: dict(col2) for c2, col2 in table.items()}
            S[c][row] = -S[c][row]
            L = lefschetz.Operator(
                get_basis(n, 1), {index[c2]: {index[r2]: CQ_I * v for r2, v in col2.items()} for c2, col2 in S.items()}
            )
            verdicts = (sl2.sl2_certificate(n, S), sl2.star_certificate(S, sl2.star_table(n, 1))[1])
            assert verdicts == _engine_verdicts(n, L, star), (c, row)
            refused += not verdicts[0]
    assert refused == 36


def test_a_flipped_star_phase_fails_the_conjugation():
    # negate the phase of one basis monomial's star at (2, 1): the star stays
    # unitary, and star^{-1} L star == Lambda fails exactly when the engine
    # says so; it fails for the star of 1, which is the volume form
    n, keys = 2, _keys(2, 1)
    S, table = sl2.sign_table(n, 1), sl2.star_table(n, 1)
    assert sl2.star_certificate(S, table) == (True, True)
    verdicts = {}
    for idx, key in enumerate(keys):
        flipped = {**table, key: (table[key][0], (table[key][1] + 2) % 4)}
        star = op_star(n, 1)
        star = lefschetz.Operator(star.basis, {**star.cols, idx: {r: -v for r, v in star.cols[idx].items()}})
        unitary, conjugation = sl2.star_certificate(S, flipped)
        assert unitary
        assert conjugation == _engine_verdicts(n, op_L(n, 1), star)[1], key
        verdicts[key] = conjugation
    assert verdicts[0] is False


def test_a_star_that_is_not_one_to_one_is_not_unitary():
    # send the star of 1 to the image of the star of the volume form: the
    # star is no longer unitary, for the integer certificate and the engine
    n, keys = 2, _keys(2, 1)
    one, vol = 0, (1 << 2 * n) - 1  # the keys of 1 and of xi_1 ^ xi_2 ^ xibar_1 ^ xibar_2
    table = sl2.star_table(n, 1)
    table[one] = table[vol]
    star = op_star(n, 1)
    star = lefschetz.Operator(star.basis, {**star.cols, keys.index(one): star.cols[keys.index(vol)]})
    assert sl2.star_certificate(sl2.sign_table(n, 1), table)[0] is False
    assert star.adjoint().compose(star) != identity_operator(get_basis(n, 1))


# -- injectivity ------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_injectivity_truth_table(n):
    scan = injectivity_scan(n, 1)
    for (p, q), injective in scan.items():
        if p + q <= n - 1:
            assert injective, (p, q)
    # at p+q = n the target is strictly smaller wherever pq > 0
    assert scan[(n, 0)] is False or n == 0


def test_injectivity_n2_examples():
    scan = injectivity_scan(2, 1)
    assert scan[(0, 0)] and scan[(1, 0)]
    assert not scan[(1, 1)]


@pytest.mark.parametrize("n,r", [(n, r) for n in (1, 2, 3, 4) for r in (1, 2)])
def test_injectivity_certificate_matches_exact_ranks(n, r):
    # the reference counts the exact nullity of S^T S on every bidegree, L = iS
    assert injectivity_scan(n, r) == injectivity_by_rank(n, r)


def test_injectivity_certificate_needs_the_sl2_identity(monkeypatch):
    monkeypatch.setattr(sl2, "sl2_commutator_check", lambda n, r=1: False)
    with pytest.raises(CertificateError):
        injectivity_scan(2, 1)
    with pytest.raises(CertificateError):
        lefschetz_power(2, 1, 1)


# -- curvature --------------------------------------------------------------------


def test_zero_curvature_operator():
    spec = DiagonalCurvature((F(0), F(0)))
    assert curvature_operator(as_hermitian(spec)).is_zero()


def test_diagonal_curvature_is_weighted_wedges():
    spec = DiagonalCurvature((F(2),))
    basis = get_basis(1, 1)
    op = curvature_operator(as_hermitian(spec))
    col = op.cols[basis.index[((), (), 0)]]
    assert col == {basis.index[((1,), (1,), 0)]: CQ(0, 2)}


def test_tensor_power_scales_operator():
    spec = DiagonalCurvature((F(1), F(-3)))
    power = DiagonalCurvature(tuple(g * 4 for g in spec.gammas))
    assert curvature_operator(as_hermitian(power)) == curvature_operator(as_hermitian(spec)).scale(4)


def test_diagonal_curvature_is_hermitian_with_diagonal_theta():
    gammas = (F(1), F(0), F(-5, 2))
    spec = DiagonalCurvature(gammas)
    diagonal = [[[[CQ(g if j == k else 0)]] for k in range(3)] for j, g in enumerate(gammas)]
    assert as_hermitian(spec) == _herm(diagonal)
    assert curvature_operator(as_hermitian(spec)) == curvature_operator(_herm(diagonal))


def test_commutator_example_n2():
    cn = commutator_norm(DiagonalCurvature((F(1), F(2))))
    assert cn.value == 3
    assert cn.exact
    eigs = diagonal_commutator_eigenvalues(DiagonalCurvature((F(1), F(2))))
    assert eigs[((1, 2), (1, 2))] == 3


@pytest.mark.parametrize("n", [1, 2, 3])
def test_commutator_closed_form_vs_matrix(n):
    rng = random.Random(600 + n)
    basis = get_basis(n, 1)
    lam = op_Lambda(n, 1)
    for _ in range(6):
        gammas = tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n))
        spec = DiagonalCurvature(gammas)
        T = curvature_operator(as_hermitian(spec)).commutator(lam)  # [iTheta, Lambda]
        eigs = diagonal_commutator_eigenvalues(spec)
        assert T.is_diagonal()
        for (J, K), ev in eigs.items():
            idx = basis.index[(J, K, 0)]
            assert T.entry(idx, idx) == CQ(ev)
        norm = commutator_norm(spec)
        assert norm.value == max(abs(v) for v in eigs.values())
        # flatness-lemma lower bound and triangle upper bound
        assert max(abs(g) for g in gammas) <= norm.value
        assert norm.value <= sum(abs(g) for g in gammas)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_diagonal_table_closed_form_matches_enumeration(n):
    rng = random.Random(800 + n)
    for gammas in gamma_draws(rng, n):
        spec = DiagonalCurvature(gammas)
        want: dict = {}
        for (J, K), ev in diagonal_commutator_eigenvalues(spec).items():
            key = (len(J), len(K))
            want[key] = max(want.get(key, F(0)), abs(ev))
        norm = commutator_norm(spec)
        assert norm.table == want, gammas
        assert norm.value == max(want.values())
        assert all(type(v) is F for v in norm.table.values())


def test_commutator_norm_homogeneous():
    rng = random.Random(77)
    for _ in range(10):
        gammas = tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3))
        spec = DiagonalCurvature(gammas)
        m = rng.randint(-5, 5)
        power = DiagonalCurvature(tuple(g * m for g in spec.gammas))
        assert commutator_norm(power).value == abs(m) * commutator_norm(spec).value


def test_flatness():
    assert flatness_test(DiagonalCurvature((F(0), F(0), F(0))))
    assert not flatness_test(DiagonalCurvature((F(1), F(-1))))
    assert commutator_norm(DiagonalCurvature((F(1), F(-1)))).value >= 1


def test_tensor_power_norm_values():
    # the curvature of L^m is m iTheta(L), so its norm is |m| C
    spec = DiagonalCurvature((F(1), F(2)))
    powers = [DiagonalCurvature(tuple(g * m for g in spec.gammas)) for m in (0, 1, -3)]
    assert [commutator_norm(power).value for power in powers] == [0, 3, 9]


# -- Hermitian curvature -----------------------------------------------------------


def _herm(entries):
    # entries: n x n x r x r nested lists of CQ, read as (re, im) rationals
    return HermitianCurvature(
        tuple(tuple(tuple(tuple((v.re, v.im) for v in row) for row in mat) for mat in line) for line in entries)
    )


def test_hermitian_requires_symmetry():
    with pytest.raises(ValueError):
        _herm([[[[CQ(0)]], [[CQ(1)]]], [[[CQ(2)]], [[CQ(0)]]]])


def test_hermitian_matches_diagonal():
    for gammas in [(F(1), F(2)), (F(-1), F(3)), (F(0), F(0))]:
        exact_norm = commutator_norm(DiagonalCurvature(gammas))
        enclosed = commutator_norm(as_hermitian(DiagonalCurvature(gammas)))
        assert enclosed.value.lo <= exact_norm.value <= enclosed.value.hi
        assert enclosed.value.width <= F(1, 10**10)
        for key, iv in enclosed.table.items():
            assert iv.lo <= exact_norm.table[key] <= iv.hi


def test_hermitian_offdiagonal_norm():
    # theta = [[0, 1], [1, 0]] on the base indices: eigenvalues +-1, so the
    # commutator norm must match the diagonal spec (1, -1) after rotation
    theta = _herm([[[[CQ(0)]], [[CQ(1)]]], [[[CQ(1)]], [[CQ(0)]]]])
    got = commutator_norm(theta).value
    exact = commutator_norm(DiagonalCurvature((F(1), F(-1)))).value
    assert got.lo <= exact <= got.hi


def test_hermitian_unitary_invariance_random():
    # base matrices [[a, b], [b, a]] diagonalize over the rationals with
    # eigenvalues a +- b; the commutator norm is frame-invariant, so the
    # enclosure must pin the exact diagonal value
    rng = random.Random(88)
    for _ in range(5):
        a = F(rng.randint(-5, 5), rng.randint(1, 3))
        b = F(rng.randint(-5, 5), rng.randint(1, 3))
        theta = _herm([[[[CQ(a)]], [[CQ(b)]]], [[[CQ(b)]], [[CQ(a)]]]])
        got = commutator_norm(theta).value
        exact = commutator_norm(DiagonalCurvature((a + b, a - b))).value
        assert got.lo <= exact <= got.hi
        assert got.width <= F(1, 10**10)


@pytest.mark.parametrize("guess", [math.nan, 0.0, 1e6])
def test_hermitian_enclosure_survives_a_bad_guess(monkeypatch, guess):
    # r = 2 takes the block certificate: a refuted or non-finite float
    # proposal leaves the exact bisection of the open (-1, 1 + max row sum),
    # which must still pin the split-bundle value within tol
    monkeypatch.setattr(hermitian, "_float_eigenvalues", lambda parts: [guess] * len(parts[1]))
    spec, table = rotated_split_curvature(random.Random(88), 2, 2)
    got = commutator_norm(spec)
    assert set(got.table) == set(table)
    for key, iv in got.table.items():
        assert iv.lo <= table[key] <= iv.hi, key
        assert iv.width <= HERMITIAN_WIDTH


@pytest.mark.parametrize("guess", [math.nan, 0.0, 1e6])
def test_line_bundle_enclosure_survives_a_bad_guess(monkeypatch, guess):
    # r = 1 takes the eigenvalues of theta: a refuted or non-finite float
    # proposal of every eigenvalue leaves exact bisection on the inertia
    # counts, which must still pin the diagonal value within tol
    monkeypatch.setattr(linebundle, "_float_eigenvalues", lambda parts: [guess] * len(parts[1]))
    rng = random.Random(88)
    for _ in range(5):
        a = F(rng.randint(-5, 5), rng.randint(1, 3))
        b = F(rng.randint(-5, 5), rng.randint(1, 3))
        theta = _herm([[[[CQ(a)]], [[CQ(b)]]], [[[CQ(b)]], [[CQ(a)]]]])
        got = commutator_norm(theta)
        exact = commutator_norm(DiagonalCurvature((a + b, a - b)))
        assert got.value.lo <= exact.value <= got.value.hi
        for key, iv in got.table.items():
            assert iv.lo <= exact.table[key] <= iv.hi
            assert iv.width <= HERMITIAN_WIDTH
    # irrational eigenvalues too: the enclosures meet those of good proposals
    monkeypatch.undo()
    specs = [generic_curvature(random.Random(seed), 4, 1) for seed in range(3)]
    good = [line_bundle_norm(spec) for spec in specs]
    monkeypatch.setattr(linebundle, "_float_eigenvalues", lambda parts: [guess] * len(parts[1]))
    for spec, want in zip(specs, good):
        for key, iv in line_bundle_norm(spec).table.items():
            assert iv.lo <= want.table[key].hi and want.table[key].lo <= iv.hi, key
            assert iv.width <= HERMITIAN_WIDTH


def test_line_bundle_norm_of_a_rotated_line_is_exact():
    # integer eigenvalues: every proposal is certified as an exact root, and
    # the blocks (n, 0) and (0, n), identically zero, enclose 0 as [0, 0]
    for n in range(1, 7):
        spec, table = rotated_split_curvature(random.Random(n), n, 1)
        got = commutator_norm(spec)
        assert got.exact is False
        assert {key: (iv.lo, iv.hi) for key, iv in got.table.items()} == {key: (v, v) for key, v in table.items()}
        assert got.table[(n, 0)] == got.table[(0, n)] == Interval(0, 0)


def test_line_bundle_eliminates_once_per_probed_value(monkeypatch):
    # equal eigenvalues share their probes: n = 6 probes 4 distinct h, one of
    # them for three eigenvalues, and each h costs one inertia elimination
    probes = []
    signs = linebundle.inertia_signs

    def counted(parts, h):
        probes.append(h)
        return signs(parts, h)

    monkeypatch.setattr(linebundle, "inertia_signs", counted)
    spec, table = rotated_split_curvature(random.Random(6), 6, 1)
    got = line_bundle_norm(spec)
    assert {key: (iv.lo, iv.hi) for key, iv in got.table.items()} == {key: (v, v) for key, v in table.items()}
    assert len(probes) == len(set(probes)) == 4


@pytest.mark.parametrize("n,r", [(2, 2), (3, 2), (2, 3)])
def test_block_norm_of_a_rotated_split_bundle_is_exact(n, r):
    # rank r >= 2 takes the blocks; every C_pq of the closed-form table is an
    # integer, which the proposal lands on and the zero count certifies, also
    # where it equals the max row sum of its block (seed 1 of n=2 r=2)
    for seed in range(4):
        spec, table = rotated_split_curvature(random.Random(seed), n, r)
        got = commutator_norm(spec)
        assert got.exact is False
        assert {key: (iv.lo, iv.hi) for key, iv in got.table.items()} == {key: (v, v) for key, v in table.items()}


def _sqrt2_compare(calls):
    """compare for x = sqrt 2: sign(2 - h^2) on h > 0, recording each h."""

    def compare(h):
        calls.append(h)
        return (h * h < 2) - (h * h > 2)

    return compare


@pytest.mark.parametrize("x", [F(0), F(3), F(-7, 4), F(1, 2 * 10**6)])
def test_enclose_returns_a_grid_point_exactly(x):
    calls = []

    def compare(h):
        calls.append(h)
        return (x > h) - (x < h)

    assert hermitian.enclose(compare, float(x), F(-10), F(10), F(1, 10**6)) == (x, x)
    assert calls == [x]


@pytest.mark.parametrize("guess", [math.sqrt(2), math.nan, 0.0, 1.0, 2.0, 1e6])
@pytest.mark.parametrize("width", [F(1, 10**12), F(1, 3)])
def test_enclose_brackets_an_irrational_within_width(guess, width):
    # a guess on an end of [1, 2] or outside it is not probed: compare runs
    # only strictly inside the bracket
    calls = []
    lo, hi = hermitian.enclose(_sqrt2_compare(calls), guess, F(1), F(2), width)
    assert lo * lo < 2 < hi * hi
    assert hi - lo <= width
    assert calls and all(F(1) < h < F(2) for h in calls)
    if guess == math.sqrt(2):
        assert len(calls) == 2 and hi - lo == width / 2


def test_line_bundle_norm_n5_builds_no_operator(monkeypatch):
    # the Bareiss block path takes about 94 s on this matrix (2-vCPU host, Python 3.11)
    def refuse(*args):
        raise AssertionError("the line-bundle norm built an operator")

    monkeypatch.setattr(lefschetz, "get_basis", refuse)
    spec, table = rotated_split_curvature(random.Random(7), 5, 1)
    start = time.perf_counter()
    got = commutator_norm(spec)
    elapsed = time.perf_counter() - start
    assert set(got.table) == set(table)
    for key, iv in got.table.items():
        assert iv.lo <= table[key] <= iv.hi, key
        assert iv.width <= HERMITIAN_WIDTH
    assert elapsed < 2.0


@pytest.mark.parametrize(
    "entries",
    [[[CQ(0, 1), CQ(0)], [CQ(0), CQ(0)]], [[CQ(1), CQ(0, 1)], [CQ(0, 1), CQ(1)]]],
    ids=["non-real charpoly", "complex eigenvalues"],
)
def test_line_bundle_norm_certifies_real_eigenvalues(entries):
    # theta is validated Hermitian, so only a record changed after the fact
    # gets this far: diag(i, 0) (a non-real characteristic polynomial) and
    # [[1, i], [i, 1]] (the real x^2 - 2x + 2, with no real root) are both
    # refused by the Hermitian certificate the inertia kernel starts from
    spec = _herm([[[[CQ(1)]], [[CQ(0)]]], [[[CQ(0)]], [[CQ(1)]]]])
    object.__setattr__(spec, "theta", tuple(tuple((((v.a, v.b),),) for v in row) for row in entries))  # scale 1
    with pytest.raises(CertificateError, match="not Hermitian"):
        line_bundle_norm(spec)


def test_line_bundle_enclosures_that_miss_the_trace_are_refused(monkeypatch):
    # a planted fault that ``hlab verify`` does not see: a tree without the
    # trace certificate of ``eigenvalue_enclosures`` passes it.  Enclosures
    # that each miss by +1 add up around tr theta + n, and it refuses them
    enclose = linebundle.enclose
    monkeypatch.setattr(linebundle, "enclose", lambda *args: tuple(end + 1 for end in enclose(*args)))
    with pytest.raises(CertificateError, match="do not add up around tr theta"):
        line_bundle_norm(generic_curvature(random.Random(5), 3, 1))


def test_rotated_split_bundle_n3_r2():
    # blocks of dimension 18; the characteristic-polynomial path took ~49 s
    spec, table = rotated_split_curvature(random.Random(3), 3, 2)
    start = time.perf_counter()
    got = commutator_norm(spec)
    elapsed = time.perf_counter() - start
    assert set(got.table) == set(table)
    for key, iv in got.table.items():
        assert iv.lo <= table[key] <= iv.hi, key
        assert iv.width <= F(1, 10**12)
    assert elapsed < 2.0


def _positive_definite(re, im):
    """Whether re + i im is positive definite, by the inertia kernel."""
    return all(sign > 0 for sign in hermitian.inertia_signs(hermitian.integer_parts((1, re, im)), F(0), -1))


def test_positive_definite_rejects_a_non_real_pivot():
    assert _positive_definite([[2, 1], [1, 2]], [[0, 0], [0, 0]])
    assert not _positive_definite([[1, 2], [2, 1]], [[0, 0], [0, 0]])
    with pytest.raises(AssertionError):
        _positive_definite([[2, 1], [1, 2]], [[0, 0], [0, 1]])


def _inertia_by_charpoly(A):
    """(#positive, #negative, #zero) eigenvalues of the Hermitian A, with
    multiplicity, from its characteristic polynomial: x^m strips the zero
    ones, and Sturm counts on P, gcd(P, P'), ... count each root once per
    multiplicity."""
    from hlab.bounds import cauchy_bound, count_roots_between, sturm_chain
    from hlab.qpoly import QPoly

    coeffs = list(_charpoly(A).coeffs)
    zero = next(i for i, c in enumerate(coeffs) if c)
    P, positive, negative = QPoly(coeffs[zero:], "x"), 0, 0
    while P.degree >= 1:
        chain, bound = sturm_chain(P), cauchy_bound(P)
        positive += count_roots_between(chain, F(0), bound)
        negative += count_roots_between(chain, -bound, F(0))
        P = P.gcd(P.derivative())
    return positive, negative, zero


def _structured_hermitian(rng, d, kind):
    """A Hermitian Gaussian-integer matrix of one kind: generic, singular
    (v v* - w w*), a zero diagonal with real off-diagonal entries, or
    generic with zero rows.  The zero-pivot families with purely imaginary
    entries and with a cancelling first step come from ``hlab.fixtures``,
    which ``hlab verify`` reads too."""
    if kind == "imaginary":
        return gaussian_rationals(imaginary_hermitian(rng, d)[0])
    if kind == "cancelling":
        return gaussian_rationals(cancelling_hermitian(rng, max(d, 2))[0])
    if kind == "singular":
        v, w = ([CQ(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(d)] for _ in range(2))
        return [[v[i] * v[j].conj() - w[i] * w[j].conj() for j in range(d)] for i in range(d)]
    A = [[CQ_ZERO] * d for _ in range(d)]
    for i in range(d):
        if kind in ("generic", "zero rows"):
            A[i][i] = CQ(rng.randint(-3, 3))
        for j in range(i + 1, d):
            if rng.random() < 0.6:
                x, y = rng.randint(-3, 3), rng.randint(-3, 3)
                z = CQ(x) if kind == "real" else CQ(x, y)
                A[i][j], A[j][i] = z, z.conj()
    if kind == "zero rows":
        for z in rng.sample(range(d), rng.randint(1, d)):
            for j in range(d):
                A[z][j] = A[j][z] = CQ_ZERO
    return A


KINDS = ("generic", "singular", "real", "imaginary", "zero rows", "cancelling")


@pytest.mark.parametrize("kind", KINDS)
def test_inertia_signs_match_the_characteristic_polynomial(kind):
    # every zero-pivot case of the kernel (e_k +- e_t, e_k +- i e_t, a zero
    # row) against an independent count of the eigenvalues; h I - s A at a
    # random h (s = +1 or -1) for generic draws
    rng = random.Random(f"inertia {kind}")
    draws = [_structured_hermitian(rng, d, kind) for d in range(1, 9) for _ in range(6)]
    if kind == "zero rows":
        draws += [[[CQ_ZERO] * d for _ in range(d)] for d in (1, 2, 5)]
    if kind == "cancelling":  # u = 1 and u = i give a zero pivot: u = -1, -i
        draws += [[[CQ_ZERO, z], [z.conj(), CQ(m)]] for z, m in ((CQ(1), -2), (CQ(0, 1), 2))]
    for A in draws:
        d = len(A)
        h, s = (F(rng.randint(-6, 6), rng.randint(1, 3)), rng.choice((1, -1))) if kind == "generic" else (F(0), -1)
        M = [[(CQ(h) if i == j else CQ_ZERO) - s * A[i][j] for j in range(d)] for i in range(d)]
        signs = list(hermitian.inertia_signs(hermitian.integer_parts(gaussian_integers(A)), h, s))
        assert (signs.count(1), signs.count(-1), signs.count(0)) == _inertia_by_charpoly(M), (A, h, s)


@pytest.mark.parametrize("family", [imaginary_hermitian, cancelling_hermitian], ids=lambda f: f.__name__)
def test_zero_pivot_families_have_the_inertia_they_state(family):
    # the inertia each builder states by Sylvester's law, against the
    # characteristic polynomial, and its shape: a zero diagonal with
    # imaginary entries, or a first congruence u = 1 or i that cancels
    rng = random.Random(f"family {family.__name__}")
    for d in range(2, 9):
        for _ in range(4):
            matrix, inertia = family(rng, d)
            A = gaussian_rationals(matrix)
            assert inertia == _inertia_by_charpoly(A), (A, inertia)
            if family is imaginary_hermitian:
                assert all(not A[i][j].re for i in range(d) for j in range(d)), A
            else:
                z = A[0][1]
                assert not A[0][0] and z and A[1][1] == CQ(2 * (z.im - z.re)), A


# -- reference: the characteristic polynomial of T^2 --------------------------------


def _charpoly(S):
    """det(xI - S) by Faddeev-LeVerrier over Q(i); real for Hermitian S."""
    from hlab.qpoly import QPoly

    d = len(S)
    coeffs = [F(0)] * (d + 1)
    coeffs[d] = F(1)
    M = [row[:] for row in S]
    for k in range(1, d + 1):
        if k > 1:
            N = [row[:] for row in M]
            for i in range(d):
                N[i][i] = N[i][i] + CQ(coeffs[d - k + 1])
            M = [
                [sum((S[i][t] * N[t][j] for t in range(d)), CQ_ZERO) for j in range(d)]
                for i in range(d)
            ]
        tr = sum((M[i][i] for i in range(d)), CQ_ZERO)
        assert tr.im == 0
        coeffs[d - k] = -tr.re / k
    return QPoly(coeffs, var="x")


def _reference_norm_enclosure(block, tol):
    """sqrt of the largest root of det(xI - T^2), isolated by Sturm sequences
    to tol^2 and rounded outward (width at most 3 tol)."""
    d = len(block)
    if all(not v for row in block for v in row):
        return Interval(F(0), F(0))
    S = [
        [sum((block[i][k] * block[k][j] for k in range(d)), CQ_ZERO) for j in range(d)]
        for i in range(d)
    ]
    lo, hi = max(isolate_real_roots(_charpoly(S), width=tol * tol), key=lambda iv: iv[1])
    return Interval(
        sqrt_enclosure(max(lo, F(0)), tol)[0], sqrt_enclosure(max(hi, F(0)), tol)[1]
    )


def test_hermitian_enclosure_matches_charpoly_reference():
    from hlab.blocks import _hermitian_norm_enclosure

    tol = F(1, 10**12)
    rng = random.Random(2024)
    blocks = [gaussian_rationals(generic_hermitian(rng, d)) for d in range(1, 10)]
    # a symmetric spectrum {+1, -1} and the zero block
    blocks.append([[CQ_ZERO, CQ_ONE], [CQ_ONE, CQ_ZERO]])
    blocks.append([[CQ_ZERO] * 3 for _ in range(3)])
    for block in blocks:
        new = _hermitian_norm_enclosure(gaussian_integers(block))
        old = _reference_norm_enclosure(block, tol)
        assert new.lo <= old.hi and old.lo <= new.hi, (len(block), new, old)
        assert new.width <= tol


def test_hermitian_fiber_action():
    # r = 2, n = 1, theta_11 = diag(1, 2): two decoupled line bundles
    theta = _herm([[[[CQ(1), CQ(0)], [CQ(0), CQ(2)]]]])
    got = commutator_norm(theta).value
    assert got.lo <= 2 <= got.hi
    assert got.width <= F(1, 10**10)


def test_fiber_matrix_acts_by_columns():
    # theta_11 = [[0, 2i], [-2i, 0]]: e_0 must map to (-2i) e_1, so the
    # operator entry on the fiber-1 row is i * (-2i) = 2
    theta = _herm([[[[CQ(0), CQ(0, 2)], [CQ(0, -2), CQ(0)]]]])
    basis = get_basis(1, 2)
    op = curvature_operator(theta)
    src = basis.index[((), (), 0)]
    assert op.cols[src] == {basis.index[((1,), (1,), 1)]: CQ(2)}
    src1 = basis.index[((), (), 1)]
    assert op.cols[src1] == {basis.index[((1,), (1,), 0)]: CQ(-2)}


@pytest.mark.parametrize("n,r", [(1, 1), (2, 3), (3, 2), (4, 2), (5, 1)])
def test_L_is_the_curvature_operator_of_the_identity_theta(n, r):
    eye = [[int(a == b) for b in range(r)] for a in range(r)]
    zero = [[0] * r for _ in range(r)]
    theta = [[eye if j == k else zero for k in range(n)] for j in range(n)]
    assert op_L(n, r) == curvature_operator(HermitianCurvature(theta))


@pytest.mark.parametrize("n,r,block", [(6, 1, None), (4, 3, 108), (3, 12, 108), (5, 1, None), (4, 2, None), (3, 11, None)])
def test_hermitian_curvature_bounds_the_block_dimension(n, r, block):
    # every (n, r) here passes the space rule; for r >= 2, r C(n, floor(n/2))^2
    # <= 100 is admitted, and a line bundle's norm builds no block
    check_space(n, r)
    zero = tuple(tuple(tuple(tuple(0 for _ in range(r)) for _ in range(r)) for _ in range(n)) for _ in range(n))
    if block is None:
        assert HermitianCurvature(zero).r == r
    else:
        with pytest.raises(ValueError, match=rf"{r} C\({n}, {n // 2}\)\^2 = {block} > 100"):
            HermitianCurvature(zero)


def test_basis_guard():
    with pytest.raises(ValueError):
        get_basis(7, 1)
    with pytest.raises(ValueError):
        DiagonalCurvature(tuple(F(1) for _ in range(7)))


@pytest.mark.parametrize("n,r", [(0, 1), (7, 1), (1, 0), (6, 2), (3, 65), (4, 17)])
def test_one_space_rule_refuses_every_way_in(n, r):
    # the basis and both curvature records refuse the same spaces, by one message
    with pytest.raises(ValueError) as rule:
        check_space(n, r)
    with pytest.raises(ValueError, match=re.escape(str(rule.value))):
        get_basis(n, r)
    zero = tuple(tuple(tuple(tuple(0 for _ in range(r)) for _ in range(r)) for _ in range(n)) for _ in range(n))
    with pytest.raises(ValueError, match=re.escape(str(rule.value))):
        HermitianCurvature(zero)
    if r == 1:
        with pytest.raises(ValueError, match=re.escape(str(rule.value))):
            DiagonalCurvature(tuple(F(1) for _ in range(n)))


@pytest.mark.parametrize("n,r", [(1, 1), (6, 1), (5, 4), (4, 16), (3, 64), (1, 1024)])
def test_one_space_rule_admits_up_to_4_to_the_6(n, r):
    check_space(n, r)
