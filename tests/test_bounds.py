"""Numerical polynomials, root isolation, and the bound evaluators."""

import random
import tracemalloc
from fractions import Fraction
from math import factorial

import pytest
from conftest import newton_poly

from hlab.bounds import (
    BoundsInput,
    bound_C1,
    bound_T2,
    bound_T4,
    bound_T5,
    e_theta_interval,
    forward_difference,
    is_integer_valued,
    isolate_real_roots,
    lemma42_search,
    lemma44_search,
    root_report,
    sqrt_enclosure,
    sturm_chain,
    t4_chain,
)
from hlab.qpoly import QPoly

F = Fraction
WIDTH = F(1, 2**20)


# -- forward differences ----------------------------------------------------------


def test_forward_difference_basics():
    m2 = QPoly([0, 0, 1])
    assert forward_difference(m2) == QPoly([1, 2])
    assert forward_difference(m2, 2) == QPoly([2])
    assert forward_difference(m2, 0) == m2


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_forward_difference_top_is_an(n):
    rng = random.Random(900 + n)
    for _ in range(5):
        b = [rng.randint(-9, 9) for _ in range(n)] + [rng.randint(1, 9)]
        P = newton_poly(b)
        assert P.leading() == F(b[-1], factorial(n))
        assert forward_difference(P, n) == QPoly([b[-1]])


def test_newton_polys_are_integer_valued():
    rng = random.Random(901)
    for _ in range(10):
        b = [rng.randint(-9, 9) for _ in range(5)]
        assert is_integer_valued(newton_poly(b))
    assert not is_integer_valued(QPoly([0, F(1, 2)]))


# -- lemma44_search ----------------------------------------------------------------


def test_lemma44_spec_examples():
    assert lemma44_search(QPoly([0, 0, 1]), 0, 1) == 1
    assert lemma44_search(QPoly([0, 0, 1]), 0, 3) == 3
    assert lemma44_search(QPoly([0, 1]), 0, 5) == 5


def test_lemma44_validates_preconditions():
    with pytest.raises(ValueError):
        lemma44_search(QPoly([5]), 0, 1)  # constant
    with pytest.raises(ValueError):
        lemma44_search(QPoly([0, F(1, 3)]), 0, 1)  # a_n not integer
    with pytest.raises(ValueError):
        lemma44_search(QPoly([0, -1]), 0, 2)  # negative on the window


def test_lemma44_membership_and_bound_random():
    rng = random.Random(902)
    for _ in range(60):
        n = rng.randint(1, 4)
        m0 = rng.randint(-3, 3)
        k = rng.randint(0, 5)
        b = [rng.randint(0, 6) for _ in range(n)] + [rng.randint(1, 5)]
        P = newton_poly(b).shift(-m0)  # nonnegative for m >= m0
        a_n = P.leading() * factorial(n)
        m = lemma44_search(P, m0, k)
        assert m0 <= m <= m0 + k * n
        target = a_n * F(k) ** n / F(2) ** (n - 1)
        assert P(m) >= target
        # minimality: the scan returns the least such m
        for earlier in range(m0, m):
            assert P(earlier) < target


# -- lemma42_search ----------------------------------------------------------------


def test_lemma42_spec_examples():
    assert lemma42_search(QPoly([0, 1]), [-2, -1, 0, 1, 2], 2) in (-2, 2)
    assert lemma42_search(QPoly([0, 0, 1]), [-1, 0, 1], 1) in (-1, 1)
    with pytest.raises(ValueError):
        lemma42_search(QPoly([7]), [0, 1, 2], 1)


def test_lemma42_needs_enough_candidates():
    with pytest.raises(ValueError):
        lemma42_search(QPoly([0, 1]), [0, 1, 2], 2)  # tight count needs 4


def test_lemma42_random_guarantee():
    rng = random.Random(903)
    for _ in range(40):
        n = rng.randint(1, 4)
        b = [rng.randint(-4, 4) for _ in range(n)] + [rng.choice([-3, -2, -1, 1, 2, 3])]
        P = newton_poly(b)
        Lval = rng.randint(1, 3)
        lo = rng.randint(-30, 0)
        candidates = list(range(lo, lo + 2 * n * Lval + 1))
        found = lemma42_search(P, candidates, Lval)
        assert found in candidates
        assert abs(P(found)) >= Lval


# -- root isolation ----------------------------------------------------------------


def test_root_report_spec_examples():
    rep = root_report(QPoly([-1, 0, 1]))
    assert rep.m_p >= 1 and rep.m_p - 1 <= F(1, 2**18)
    rep = root_report(QPoly([0, 1]))
    assert rep.intervals == ((F(0), F(0)),)
    assert rep.m_p == 0
    rep = root_report(QPoly([1, 0, 1]))
    assert rep.intervals == () and rep.m_p == 0
    with pytest.raises(ValueError):
        root_report(QPoly([5]), 5)


def test_root_report_sign_split():
    rep = root_report(QPoly([-1, 0, 1]))  # roots +-1
    assert rep.c_plus >= 1 and rep.c_plus - 1 <= WIDTH
    assert rep.c_minus >= 1 and rep.c_minus - 1 <= WIDTH


def test_double_root_deflation():
    P = QPoly([-1, 1]) * QPoly([-1, 1]) * QPoly([2, 1])  # (m-1)^2 (m+2)
    rep = root_report(P)
    assert len(rep.intervals) == 2
    covered = [any(lo <= r <= hi for lo, hi in rep.intervals) for r in (1, -2)]
    assert all(covered)


def test_isolation_brackets_sign_changes_random():
    rng = random.Random(904)
    for _ in range(50):
        deg = rng.randint(1, 4)
        roots = set()
        while len(roots) < deg:
            roots.add(F(rng.randint(-12, 12), rng.choice([1, 2, 3, 4, 8])))
        P = QPoly([rng.choice([-2, -1, 1, 2, 3])])
        for r in roots:
            P = P * QPoly([-r, 1])
        intervals = isolate_real_roots(P, WIDTH)
        assert len(intervals) == len(roots)
        for lo, hi in intervals:
            if lo == hi:
                assert P(lo) == 0
            else:
                assert hi - lo <= WIDTH
                assert P(lo) * P(hi) < 0
        rep = root_report(P)
        true_max = max(abs(r) for r in roots)
        assert rep.m_p >= true_max
        assert rep.m_p - true_max <= F(1, 2**18)


def test_isolation_no_stray_integer_roots():
    # no integer inside the Cauchy bound but outside all intervals is a root
    P = QPoly([-6, 11, -6, 1])  # roots 1, 2, 3
    intervals = isolate_real_roots(P, WIDTH)
    from hlab.bounds import cauchy_bound

    B = cauchy_bound(P)
    for m in range(-int(B) - 1, int(B) + 2):
        inside = any(lo <= m <= hi for lo, hi in intervals)
        assert inside == (P(m) == 0)


def test_sturm_chain_counts():
    P = QPoly([-2, 0, 1])  # roots +-sqrt(2)
    chain = sturm_chain(P)
    from hlab.bounds import count_roots_between

    assert count_roots_between(chain, F(-2), F(2)) == 2
    assert count_roots_between(chain, F(0), F(2)) == 1


def test_integer_sign_matches_fraction_evaluation():
    from hlab.bounds import _integral, _sign_at

    rng = random.Random(4104)
    for _ in range(60):
        roots = [F(rng.randint(-9, 9), rng.choice([1, 2, 3, 7])) for _ in range(rng.randint(0, 3))]
        P = QPoly([F(rng.randint(-9, 9), rng.choice([1, 2, 5, 12])) for _ in range(rng.randint(0, 4))])
        for r in roots:
            c = F(rng.choice([-3, 1, 2]), rng.choice([1, 4]))
            P = P * QPoly([-r * c, c])  # a root at r, and rational coefficients
        ints = _integral(P)
        assert all(type(c) is int for c in ints)
        dyadic = [F(rng.randint(-2**12, 2**12), 2 ** rng.randint(0, 10)) for _ in range(5)]
        other = [F(rng.randint(-500, 500), rng.choice([3, 7, 9, 11, 75])) for _ in range(5)]
        for x in dyadic + other + roots + [F(0)]:
            v = P(x)
            assert _sign_at(ints, x) == (v > 0) - (v < 0)
        assert all(_sign_at(ints, r) == 0 for r in roots)


def _refine_by_sturm(Q, chain, a, b, width):
    """The earlier bisection: recount Sturm variations on the left half."""
    from hlab.bounds import count_roots_between

    while b - a > width:
        mid = (a + b) / 2
        if Q(mid) == 0:
            return (mid, mid)
        if count_roots_between(chain, a, mid) == 1:
            b = mid
        else:
            a = mid
    return (a, b)


def test_refine_by_sign_matches_sturm_counts():
    from hlab.bounds import cauchy_bound

    rng = random.Random(4103)
    for _ in range(20):
        P = QPoly([rng.choice([-3, -1, 1, 2])])
        for _ in range(rng.randint(1, 3)):  # rational roots, some repeated
            r = F(rng.randint(-9, 9), rng.choice([1, 2, 3, 5]))
            for _ in range(rng.randint(1, 2)):
                P = P * QPoly([-r, 1])
        for _ in range(rng.randint(0, 2)):  # irrational pairs +-sqrt(k)
            P = P * QPoly([-rng.choice([2, 3, 5, 7]), 0, 1])
        Q = P.squarefree_part()
        chain = sturm_chain(Q)
        # no refinement below this width: the bare isolating intervals
        coarse = isolate_real_roots(P, 4 * cauchy_bound(Q))
        expected = []
        for lo, hi in coarse:
            if lo == hi:
                expected.append((lo, hi))
                continue
            expected.append(_refine_by_sturm(Q, chain, lo, hi, WIDTH))
        assert isolate_real_roots(P, WIDTH) == sorted(expected)


def test_isolation_encloses_simple_and_repeated_roots_within_width():
    from math import sqrt

    Q = QPoly([-2, 0, 1])  # roots +-sqrt(2)
    got = isolate_real_roots(Q, WIDTH)
    assert [(lo < 0) for lo, _ in got] == [True, False]
    for lo, hi in got:
        assert hi - lo <= WIDTH and Q(lo) * Q(hi) < 0
    P = QPoly([-1, 1]) * QPoly([-1, 1]) * QPoly([-2, 1]) * QPoly([-2, 0, 1])  # (m-1)^2 (m-2) (m^2-2)
    got = isolate_real_roots(P, WIDTH)
    assert len(got) == 4
    for (lo, hi), root in zip(got, (-sqrt(2), 1, sqrt(2), 2)):
        assert hi - lo <= WIDTH and abs(float(lo + hi) / 2 - root) <= WIDTH


def test_root_report_intervals_are_the_isolating_intervals_and_keep_off_zero():
    rng = random.Random(5209)
    for _ in range(30):
        P = QPoly([rng.choice([-3, -1, 1, 2])])
        for _ in range(rng.randint(1, 3)):  # rational roots near 0, some repeated, maybe 0
            r = F(rng.randint(-4, 4), rng.choice([1, 2, 3, 5]))
            for _ in range(rng.randint(1, 2)):
                P = P * QPoly([-r, 1])
        if rng.random() < 0.5:  # an irrational pair +-sqrt(k)
            P = P * QPoly([-rng.choice([2, 3, 5]), 0, 1])
        intervals = root_report(P).intervals
        assert intervals == tuple(isolate_real_roots(P))
        assert not any(lo < 0 < hi for lo, hi in intervals)


# -- sqrt enclosures ---------------------------------------------------------------


def test_sqrt_enclosure_exact_squares():
    assert sqrt_enclosure(F(4)) == (2, 2)
    assert sqrt_enclosure(F(9, 16)) == (F(3, 4), F(3, 4))
    assert sqrt_enclosure(F(0)) == (0, 0)


def test_sqrt_enclosure_certified():
    for x in (F(2), F(3, 7), F(123456, 7)):
        lo, hi = sqrt_enclosure(x, F(1, 10**12))
        assert lo * lo <= x <= hi * hi
        assert hi - lo <= F(1, 10**12)
    with pytest.raises(ValueError):
        sqrt_enclosure(F(-1))


# -- bound evaluators ---------------------------------------------------------------


def test_bound_T4_fixtures():
    assert bound_T4(BoundsInput(n=2, K=F(100), C=F(2), c_n=F(1, 10))) == 5
    assert bound_T4(BoundsInput(n=3, K=F(30), C=F(1), c_n=F(1))) == 14
    # small K degenerates to n + 1
    assert bound_T4(BoundsInput(n=2, K=F(1), C=F(100), c_n=F(1))) == 3
    # genuine floor, not rounding: 11/4 -> 2
    assert bound_T4(BoundsInput(n=1, K=F(11), C=F(4), c_n=F(1))) == 4


def test_bound_T4_requires_positive_C():
    with pytest.raises(ValueError):
        bound_T4(BoundsInput(n=2, K=F(1), C=F(0), c_n=F(1)))


def test_bound_T4_monotonicity():
    rng = random.Random(905)
    for _ in range(30):
        n = rng.randint(1, 5)
        K = F(rng.randint(1, 50), rng.randint(1, 5))
        C = F(rng.randint(1, 50), rng.randint(1, 5))
        c_n = F(rng.randint(1, 9), rng.randint(1, 9))
        base = bound_T4(BoundsInput(n=n, K=K, C=C, c_n=c_n))
        assert bound_T4(BoundsInput(n=n, K=K + 1, C=C, c_n=c_n)) >= base
        assert bound_T4(BoundsInput(n=n, K=K, C=C + 1, c_n=c_n)) <= base


def test_bound_T2_fixtures():
    assert bound_T2(BoundsInput(n=2, K=F(1), C=F(5), c_n=F(1)), 7) == 3
    assert bound_T2(BoundsInput(n=2, K=F(5), C=F(2), c_n=F(1)), 1) == 7
    b = BoundsInput(n=2, K=F(100), C=F(1), c_n=F(3, 100))
    assert bound_T2(b, -2) == 3 + 2 * 9
    with pytest.raises(ValueError):
        bound_T2(BoundsInput(n=3, K=F(1), C=F(1), c_n=F(1)), 1)


def test_bound_T5_fixtures():
    b = BoundsInput(n=3, K=F(61), C=F(1), c_n=F(1))
    assert bound_T5(b, F(1), 1) == 2004
    # floor negative -> max clause yields n+1
    assert bound_T5(b, F(1), 1000) == 4
    # x in [0, 1) -> sign 0 -> n+1
    b2 = BoundsInput(n=2, K=F(1, 2), C=F(1), c_n=F(1))
    assert bound_T5(b2, F(5), 0) == 3


def test_bound_T5_negative_floor_semantics():
    # x = c_n K - C m_p = -1/2: floor is -1 (not truncation toward zero),
    # so the signed term is negative and the max clause wins
    b = BoundsInput(n=2, K=F(1, 2), C=F(1), c_n=F(1))
    assert bound_T5(b, F(3), 1) == 3


def test_bound_T5_degenerate_an():
    b = BoundsInput(n=2, K=F(10), C=F(1), c_n=F(1))
    with pytest.warns(UserWarning):
        assert bound_T5(b, F(0), 0) == 3


def test_bound_C1_fixtures():
    b = BoundsInput(n=2, K=F(9), C=F(1), c_n=F(1))
    assert bound_C1(b, F(1), 1) == 9
    assert bound_C1(BoundsInput(n=2, K=F(4), C=F(2), c_n=F(1)), F(7), 2) == 1
    with pytest.raises(ValueError):
        bound_C1(b, F(1), 100)  # c_n K < C C_pm
    with pytest.warns(UserWarning):
        assert bound_C1(BoundsInput(n=2, K=F(9), C=F(1), c_n=F(1)), F(0), 1) == 1


def test_e_theta_degenerate_interval():
    b = BoundsInput(n=1, K=F(1), C=F(1), c_n=F(1))
    lower, upper = e_theta_interval(b, -2)
    assert lower.lo == lower.hi == 1
    assert upper.lo == upper.hi == 1


def test_e_theta_upper_is_sqrt_n_over_K():
    b = BoundsInput(n=4, K=F(4), C=F(1), c_n=F(1))
    _, upper = e_theta_interval(b, 4 + 2)
    assert upper.lo == upper.hi == 1


def test_e_theta_rejects_small_chi():
    b = BoundsInput(n=1, K=F(1), C=F(1), c_n=F(1))
    with pytest.raises(ValueError):
        e_theta_interval(b, -1)  # (-1)^n chi = 1 = n


def test_e_theta_irrational_enclosures():
    b = BoundsInput(n=2, K=F(3), C=F(2), c_n=F(1))
    lower, upper = e_theta_interval(b, 5)
    assert lower.width <= F(1, 10**12) and upper.width <= F(1, 10**12)
    assert (lower.lo) ** 2 <= F(1, 2 * 2 * 3) <= (lower.hi) ** 2
    assert (upper.lo) ** 2 <= F(2, 3) <= (upper.hi) ** 2


# -- the T4 proof chain ---------------------------------------------------------------


def test_t4_chain_degenerate():
    b = BoundsInput(n=2, K=F(1), C=F(10), c_n=F(1))
    rep = t4_chain(b, QPoly([1, 0, 1]), F(1), 0)
    assert rep.N == 0 and rep.bound == 1 and rep.branch == "degenerate"


def test_t4_chain_linear_example():
    b = BoundsInput(n=1, K=F(2), C=F(1), c_n=F(1))
    rep = t4_chain(b, QPoly([-1, 1]), F(-1), 0)  # P - chi = m
    assert rep.N == 2
    assert rep.m_tilde in (-2, 2)
    assert rep.bound == 3
    assert abs(rep.delta) >= rep.N


def test_t4_chain_scans_its_window_without_storing_it():
    # N = floor(c_n K / (n C)) = 25000 on CP^2, a window of 2 n N + 1 = 100001
    # candidates; the list and set of them took several MB
    b = BoundsInput(n=2, K=F(10**6), C=F(2), c_n=F(1, 10))
    P = QPoly([1, F(3, 2), F(1, 2)])  # (m + 1)(m + 2) / 2
    tracemalloc.start()
    try:
        rep = t4_chain(b, P, F(1), 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.N == 25000 and rep.m_tilde == -50000
    assert peak < 2**20


def test_t4_chain_rejects_constant():
    b = BoundsInput(n=1, K=F(2), C=F(1), c_n=F(1))
    with pytest.raises(ValueError):
        t4_chain(b, QPoly([5]), F(1), 0)


def test_t4_chain_branches():
    # engineered so the twisted branch is forced: n=1, p=0, (-1)^{n-p+1} = 1
    b = BoundsInput(n=1, K=F(3), C=F(1), c_n=F(1))
    P = QPoly([2, 1])  # P - chi = m
    rep = t4_chain(b, P, F(2), 0)
    assert rep.branch in ("chi_p", "chi_p_twisted")
    s = F((-1) ** (b.n - 0 + 1)) * rep.delta
    if s >= rep.N:
        assert rep.branch == "chi_p"
    else:
        assert rep.branch == "chi_p_twisted"


def test_bounds_input_validation():
    with pytest.raises(ValueError):
        BoundsInput(n=2, K=F(0), C=F(1), c_n=F(1))
    with pytest.raises(ValueError):
        BoundsInput(n=2, K=F(1), C=F(-1), c_n=F(1))
    with pytest.raises(ValueError):
        BoundsInput(n=2, K=F(1), C=F(1), c_n=F(0))


def test_bounds_input_refuses_C_zero():
    # the one C > 0 check, for every evaluator: the record cannot be built
    with pytest.raises(ValueError, match=r"C = 0 makes the bound undefined"):
        BoundsInput(n=2, K=F(1), C=F(0), c_n=F(1))
    with pytest.raises(ValueError, match="C must be nonnegative"):
        BoundsInput(n=2, K=F(1), C=F(-1), c_n=F(1))


@pytest.mark.parametrize("p", [-1, 3])
def test_t4_chain_refuses_p_outside_0_to_n(p):
    b = BoundsInput(n=2, K=F(100), C=F(2), c_n=F(1, 10))
    with pytest.raises(ValueError, match=rf"p = {p} is outside \[0, 2\]"):
        t4_chain(b, QPoly([1, F(3, 2), F(1, 2)]), F(1), p)
