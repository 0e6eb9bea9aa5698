"""HRR engine: Todd, Chern character, chi_y, K coefficients, Hilbert."""

import random
from fractions import Fraction
from math import comb, factorial

import pytest
from conftest import random_homogeneous, random_manifold_bundle, weight_keys

from hlab.errors import DocumentError
from hlab.genus import (
    BundleData,
    FundamentalClass,
    IntegralityError,
    ManifoldData,
    MissingChernNumber,
    bundle_power,
    ch_hodge_sheaf,
    chern_character,
    chern_inequality_check,
    chi_p,
    chi_y,
    hilbert_polynomial,
    integrate,
    integrate_product,
    k1_formula_check,
    k2_surface_formula_check,
    k_coefficients,
    projective_space,
    todd_class,
)
from hlab.qpoly import QPoly
from hlab.oracles import elementary_from_power_sums
from hlab.ring import RingSpec, exp, power_sums_from_elementary

F = Fraction


@pytest.fixture
def cp2():
    return projective_space(2)


# -- the CP^n fixture ------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 4, 12])
def test_projective_space_reads_the_closed_form_table(n):
    # c(TX) = (1+h)^{n+1}, int h^n = 1, c_1(O(1)) = h, up to the guard rail
    x, o1 = projective_space(n)
    h = x.spec.gen("h")
    assert x.chern == tuple(h**i * comb(n + 1, i) for i in range(1, n + 1))
    assert integrate(h**n, x.fclass) == 1 and o1 == BundleData(1, (h,))


@pytest.mark.parametrize("n", [0, 13])
def test_projective_space_keeps_the_document_guard_rail(n):
    # the document reader refuses these, so the library refuses them too
    with pytest.raises(DocumentError, match=r"\[1, 12\]"):
        projective_space(n)


# -- integrate -------------------------------------------------------------------


def test_integrate_picks_top_term():
    spec = RingSpec((("h", 1),), 2)
    f = FundamentalClass(spec, {(2,): F(1)})
    h = spec.gen("h")
    assert integrate(h * h, f) == 1
    assert integrate(spec.one() + 3 * h + 3 * h * h, f) == 3


def test_integrate_todd_cp2(cp2):
    x, _ = cp2
    assert integrate(todd_class(x), x.fclass) == 1


@pytest.mark.parametrize("n", range(1, 13))
def test_todd_genus_of_projective_space_is_one(n):
    # chi(O_{CP^n}) = 1: h^{0,0} = 1 and h^{0,q} = 0 for q > 0, independent
    # of the series that td is built from
    x, _ = projective_space(n)
    assert integrate(todd_class(x), x.fclass) == 1


def test_integrate_missing_monomial():
    spec = RingSpec((("a", 1), ("b", 1)), 2)
    f = FundamentalClass(spec, {(2, 0): F(1)})
    with pytest.raises(MissingChernNumber) as err:
        integrate(spec.gen("a") * spec.gen("b"), f)
    assert "a*b" in str(err.value)


def test_fundamental_class_rejects_wrong_weight():
    spec = RingSpec((("h", 1),), 2)
    with pytest.raises(ValueError):
        FundamentalClass(spec, {(1,): F(1)})


# -- todd / ch -------------------------------------------------------------------


def test_todd_curve():
    x, _ = projective_space(1)
    spec = x.spec
    # n=1, c1 = 2h: td = 1 + c1/2
    assert todd_class(x) == spec.one() + spec.gen("h")


def test_todd_surface_symbolic():
    spec = RingSpec((("c1", 1), ("c2", 2)), 2)
    c1, c2 = spec.gen("c1"), spec.gen("c2")
    f = FundamentalClass(spec, {k: F(0) for k in weight_keys(spec, 2)})
    x = ManifoldData(2, (c1, c2), f)
    assert todd_class(x) == spec.one() + c1 * F(1, 2) + (c1 * c1 + c2) * F(1, 12)


def test_todd_cp2(cp2):
    x, _ = cp2
    h = x.spec.gen("h")
    assert todd_class(x) == x.spec.one() + F(3, 2) * h + h * h


def test_chern_character_trivial_and_line(cp2):
    x, o1 = cp2
    spec = x.spec
    assert chern_character(BundleData.trivial(7), spec, 2) == spec.constant(7)
    h = spec.gen("h")
    assert chern_character(o1, spec, 2) == spec.one() + h + h * h * F(1, 2)
    assert chern_character(o1, spec, 2) == exp(h)


def test_chern_character_rank2_closed_form():
    spec = RingSpec((("d1", 1), ("d2", 2)), 2)
    d1, d2 = spec.gen("d1"), spec.gen("d2")
    e = BundleData(2, (d1, d2))
    assert chern_character(e, spec, 2) == spec.constant(2) + d1 + (d1 * d1 - 2 * d2) * F(1, 2)


def _padded_ch(e, spec, n):
    """ch(E) from the whole Newton ladder over c_1..c_n, each absent class 0."""
    c, p = [*e.chern[:n], *[spec.zero()] * (n - len(e.chern[:n]))], []
    for k in range(1, n + 1):
        acc = c[k - 1] * ((-1) ** (k - 1) * k)
        for i in range(1, k):
            acc = acc + c[i - 1] * p[k - i - 1] * (-1) ** (i - 1)
        p.append(acc)
    return sum((pk / factorial(k) for k, pk in enumerate(p, start=1)), spec.constant(e.rank))


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_chern_character_runs_the_ladder_on_the_classes_given(n, rank):
    # 0..rank classes, some above the truncation when rank > n
    rng = random.Random(800 + 10 * n + rank)
    spec = RingSpec((("y1", 1), ("y2", 2), ("y3", 3)), n)
    for given in range(rank + 1):
        e = BundleData(rank, tuple(random_homogeneous(rng, spec, i) for i in range(1, given + 1)))
        assert chern_character(e, spec, n) == _padded_ch(e, spec, n), given


def test_classless_bundle_makes_no_ring_product(monkeypatch):
    from hlab.ring import GradedElement

    products, mul = [], GradedElement.__mul__

    def counted(a, b):
        products.append(b)
        return mul(a, b)

    x, o1 = projective_space(12)
    monkeypatch.setattr(GradedElement, "__mul__", counted)
    for rank in (1, 5):
        assert chern_character(BundleData.trivial(rank), x.spec, x.n) == x.spec.constant(rank)
    assert products == []
    chern_character(o1, x.spec, x.n)
    assert products  # the counter sees a bundle with a class


# -- ch of the Hodge sheaves -------------------------------------------------------


def test_ch_hodge_sheaf_ends(cp2):
    x, _ = cp2
    assert ch_hodge_sheaf(x, 0) == x.spec.one()
    # p = n gives the canonical bundle, ch = e^{-c1}, constant term 1
    top = ch_hodge_sheaf(x, x.n)
    assert top.constant_term() == 1
    assert top == exp(-x.chern[0])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_hodge_classes_formal_manifolds(n):
    """Every rung of the one-pass ladder against oracles that avoid it."""
    x, _ = random_manifold_bundle(random.Random(600 + n), n)
    classes = list(x.hodge)
    assert len(classes) == n + 1
    for p, cls in enumerate(classes):
        assert cls.constant_term() == comb(n, p)
        assert ch_hodge_sheaf(x, p) == cls
    # Omega^1 = T*X, whose Chern classes are (-1)^i c_i(X)
    cotangent = BundleData(n, tuple(c * (-1) ** i for i, c in enumerate(x.chern, start=1)))
    assert classes[1] == chern_character(cotangent, x.spec, n)
    assert classes[n] == exp(-x.chern[0])


def _inverse_newton_hodge(x):
    """ch Omega^p as e_p of the n quantities e^{-gamma_i}, from their power
    sums q_k = n + sum_j (-k)^j p_j / j! through one inverse-Newton ladder
    over full (not nilpotent) elements."""
    p = power_sums_from_elementary(list(x.chern), x.n)
    q = [
        sum((pj * Fraction((-k) ** j, factorial(j)) for j, pj in enumerate(p, start=1)), x.spec.constant(x.n))
        for k in range(1, x.n + 1)
    ]
    return (x.spec.one(), *elementary_from_power_sums(q, x.n))


@pytest.mark.parametrize("n", range(1, 13))
def test_hodge_ladder_matches_inverse_newton_on_projective_space(n):
    x, _ = projective_space(n)
    assert x.hodge == _inverse_newton_hodge(x)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("bundle_rank", [1, 2])
def test_hodge_ladder_matches_inverse_newton_on_formal_manifolds(n, bundle_rank):
    # multi-generator rings: x_1..x_n of weights 1..n, plus y_1 (and y_2)
    rng = random.Random(700 + 10 * n + bundle_rank)
    for _ in range(2):
        x, _ = random_manifold_bundle(rng, n, bundle_rank=bundle_rank)
        assert x.hodge == _inverse_newton_hodge(x)


def _ladder_draws():
    """(id, a factory of fresh equal manifolds): CP^1..CP^12 and seeded formal ones."""
    draws = [(f"cp{n}", lambda n=n: projective_space(n)[0]) for n in range(1, 13)]
    for n, rank in ((2, 1), (3, 2), (4, 1), (5, 2)):
        x, _ = random_manifold_bundle(random.Random(3800 + n), n, bundle_rank=rank)
        draws.append((f"formal-n{n}-r{rank}", lambda x=x: ManifoldData(x.n, x.chern, x.fclass)))
    return draws


LADDER_DRAWS = _ladder_draws()


@pytest.mark.parametrize("fresh", [f for _, f in LADDER_DRAWS], ids=[i for i, _ in LADDER_DRAWS])
def test_hodge_class_on_demand_matches_the_full_ladder(monkeypatch, fresh):
    import hlab.genus as genus

    rungs, rung = [], genus.newton_rung
    monkeypatch.setattr(genus, "newton_rung", lambda e, p: rungs.append(len(e)) or rung(e, p))
    full = list(fresh().hodge)
    n = len(full) - 1
    assert rungs == list(range(1, n + 1))  # each rung once, in order
    for p in range(n + 1):
        # partial first: only the rungs up to e_p, then the rest on demand
        x, rungs[:] = fresh(), []
        assert ch_hodge_sheaf(x, p) == full[p]
        assert rungs == list(range(1, p + 1))
        assert list(x.hodge) == full
        assert rungs == list(range(1, n + 1))
    # full first: every class afterwards is read off the built ladder
    x = fresh()
    list(x.hodge)
    rungs[:] = []
    assert [ch_hodge_sheaf(x, p) for p in range(n + 1)] == full
    assert rungs == []


def test_ch_hodge_sheaf_cp2_middle(cp2):
    x, _ = cp2
    h = x.spec.gen("h")
    assert ch_hodge_sheaf(x, 1) == x.spec.constant(2) - 3 * h + F(3, 2) * h * h


def test_ch_hodge_sheaf_range(cp2):
    x, _ = cp2
    with pytest.raises(ValueError):
        ch_hodge_sheaf(x, 3)


# -- chi^p / chi_y ----------------------------------------------------------------


def test_chi_p_cp2(cp2):
    x, _ = cp2
    e = BundleData.trivial()
    assert [chi_p(x, e, p) for p in range(3)] == [1, -1, 1]


def test_chi_y_cp2(cp2):
    x, _ = cp2
    assert chi_y(x, BundleData.trivial()) == QPoly([1, -1, 1], var="y")


def test_chi_p_integrality_error():
    spec = RingSpec((("h", 1),), 2)
    f = FundamentalClass(spec, {(2,): F(1, 7)})
    x = ManifoldData(2, (spec.gen("h"), spec.gen("h") ** 2), f)
    with pytest.raises(IntegralityError):
        chi_p(x, BundleData.trivial(), 0)


def test_chi_y_flat_factorization_random():
    rng = random.Random(501)
    for n in (1, 2, 3, 4):
        for _ in range(4):
            x, e = random_manifold_bundle(rng, n, bundle_rank=2)
            flat = BundleData(e.rank, ())
            assert chi_y(x, flat) == chi_y(x, BundleData.trivial()) * e.rank


def test_chi_y_at_minus_one_is_rank_times_euler():
    rng = random.Random(502)
    for n in (1, 2, 3):
        x, e = random_manifold_bundle(rng, n, bundle_rank=2)
        chi = chi_y(x, e)
        c_n_top = integrate(x.chern[-1], x.fclass)
        assert chi(-1) == e.rank * c_n_top


def test_serre_symmetry_random():
    rng = random.Random(503)
    for n in (1, 2, 3, 4):
        x, _ = random_manifold_bundle(rng, n)
        coeffs = chi_y(x, BundleData.trivial()).padded(n + 1)
        assert coeffs == [F((-1) ** n) * c for c in reversed(coeffs)]


def test_chi_y_against_product_formula_oracle():
    """Dual route: chi_y(y0) from the single product prod(1 + y0 e^{-g_i})
    evaluated through the multiplicative-genus machinery, vs the per-p
    Hodge-sheaf assembly.  The two paths share no intermediate code."""
    from math import factorial

    from hlab.oracles import Series, todd_series
    from hlab.ring import genus_product, power_sums_from_elementary

    rng = random.Random(510)
    for n in (1, 2, 3):
        x, e = random_manifold_bundle(rng, n, bundle_rank=2)
        chi = chi_y(x, e)
        p_sums = power_sums_from_elementary(list(x.chern), x.n)
        td = genus_product(todd_series(n).log().coeffs, p_sums)
        ch_e = chern_character(e, x.spec, n)
        for y0 in (2, 3, -2):
            # Q(t) = (1 + y0 e^{-t}) / (1 + y0) has Q(0) = 1
            series = Series(
                [
                    (F(1 if k == 0 else 0) + y0 * F((-1) ** k, factorial(k)))
                    / (1 + y0)
                    for k in range(n + 1)
                ]
            )
            hodge_sum = genus_product(series.log().coeffs, p_sums) * F(1 + y0) ** n
            direct = integrate(td * hodge_sum * ch_e, x.fclass)
            assert direct == chi(y0)


# -- K coefficients ----------------------------------------------------------------


def test_k_coefficients_cp2(cp2):
    x, _ = cp2
    assert k_coefficients(chi_y(x, BundleData.trivial())) == [F(3), F(-3), F(1)]


def test_k_coefficients_reproduce_chi():
    rng = random.Random(504)
    for n in (1, 2, 3):
        x, e = random_manifold_bundle(rng, n, bundle_rank=2)
        chi = chi_y(x, e)
        ks = k_coefficients(chi, upto=n)
        rebuilt = QPoly([0], var="y")
        shift = QPoly([1, 1], var="y")
        power = QPoly([1], var="y")
        for kj in ks:
            rebuilt = rebuilt + kj * power
            power = power * shift
        assert rebuilt == chi


def test_k0_k1_closed_forms_random():
    rng = random.Random(505)
    for n in (1, 2, 3, 4):
        for _ in range(3):
            x, e = random_manifold_bundle(rng, n, bundle_rank=2)
            ks = k_coefficients(chi_y(x, e), upto=n)
            c_n_top = integrate(x.chern[-1], x.fclass)
            assert ks[0] == e.rank * c_n_top
            assert k1_formula_check(x, e, ks)
            # trivial bundle: K_1 = -(n/2) c_n[X]
            ks0 = k_coefficients(chi_y(x, BundleData.trivial()), upto=n)
            assert ks0[1] == -F(n, 2) * c_n_top


def test_k2_surface_closed_form_random():
    rng = random.Random(506)
    for _ in range(10):
        x, e = random_manifold_bundle(rng, 2, bundle_rank=2)
        assert k2_surface_formula_check(x, e, _ks(x, e))


def test_k2_of_a_surface_is_the_noether_form():
    # k2_surface_formula_check reads K_2(X) = chi^2(X) = <c_1^2 + c_2, X>/12
    # instead of a second chi_y; HRR must agree on every formal surface
    rng = random.Random(510)
    for _ in range(10):
        x, _ = random_manifold_bundle(rng, 2, bundle_rank=2)
        c1, c2 = x.chern
        assert _ks(x)[2] == integrate(c1 * c1 + c2, x.fclass) / 12


def test_k2_flat_bundle_reduces_to_rank_multiple():
    rng = random.Random(509)
    x, e = random_manifold_bundle(rng, 2, bundle_rank=2)
    flat = BundleData(e.rank, ())
    assert k2_surface_formula_check(x, flat, _ks(x, flat))
    ks = k_coefficients(chi_y(x, flat), upto=2)
    k2_x = k_coefficients(chi_y(x, BundleData.trivial()), upto=2)[2]
    assert ks[2] == e.rank * k2_x


def test_k2_rejects_non_surfaces():
    rng = random.Random(507)
    x, e = random_manifold_bundle(rng, 3)
    with pytest.raises(ValueError):
        k2_surface_formula_check(x, e, _ks(x, e))


def test_k1_k2_on_cp2_with_o1(cp2):
    x, o1 = cp2
    assert k1_formula_check(x, o1, _ks(x, o1))
    assert k2_surface_formula_check(x, o1, _ks(x, o1))


# -- Hilbert polynomials -------------------------------------------------------------


def test_hilbert_cp2(cp2):
    x, o1 = cp2
    assert hilbert_polynomial(x, o1, 0) == QPoly([1, F(3, 2), F(1, 2)])


def _binomial_poly(m, n):
    # polynomial extension of C(m+n, n), valid at negative integers
    acc = F(1)
    for i in range(1, n + 1):
        acc *= F(m + i, i)
    return acc


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_hilbert_cpn_binomial(n):
    x, o1 = projective_space(n)
    P = hilbert_polynomial(x, o1, 0)
    for m in range(7):
        assert P(m) == comb(m + n, n)
    for m in range(-6, 0):
        assert P(m) == _binomial_poly(m, n)


def test_hilbert_leading_coefficient(cp2):
    x, o1 = cp2
    c1 = o1.chern[0]
    top = integrate(c1 ** x.n, x.fclass)
    # a_n = [td ch(Omega^p)]_0 int c1^n / n! with [.]_0 = C(n, p)
    assert hilbert_polynomial(x, o1, 0).coefficient(x.n) == top / 2
    assert hilbert_polynomial(x, o1, 1).coefficient(x.n) == 2 * top / 2
    assert hilbert_polynomial(x, o1, 2).coefficient(x.n) == top / 2


def test_hilbert_constant_term_is_chi_p(cp2):
    x, o1 = cp2
    for p in range(3):
        assert hilbert_polynomial(x, o1, p)(0) == chi_p(x, BundleData.trivial(), p)


def test_hilbert_matches_direct_twists_random():
    rng = random.Random(508)
    for n in (1, 2, 3):
        x, line = random_manifold_bundle(rng, n, bundle_rank=1, line_powers=range(-5, 6))
        for p in range(n + 1):
            P = hilbert_polynomial(x, line, p)
            for m in range(-5, 6):
                assert P(m) == chi_p(x, bundle_power(line, m), p)


def test_hilbert_rejects_higher_rank(cp2):
    x, _ = cp2
    spec = x.spec
    e = BundleData(2, (spec.gen("h"),))
    with pytest.raises(ValueError):
        hilbert_polynomial(x, e, 0)


# -- inequality checker ---------------------------------------------------------------


def _ks(x, e=BundleData.trivial()):
    return k_coefficients(chi_y(x, e), upto=x.n)


def test_inequality_rhs_values(cp2):
    x, _ = cp2
    ks = _ks(x)
    holds, lhs, rhs = chern_inequality_check(ks, 0)
    assert (holds, lhs, rhs) == (True, 3, 3)
    _, _, rhs_n = chern_inequality_check(ks, x.n)
    assert rhs_n == 1
    _, _, rhs_0 = chern_inequality_check(ks, 0)
    assert rhs_0 == x.n + 1
    for j in (-1, x.n + 1):
        with pytest.raises(ValueError, match=r"outside \[0, 2\]"):
            chern_inequality_check(ks, j)


def test_inequality_all_j_on_cpn():
    # chi^p(CP^n) = (-1)^p equals the equality case (-1)^{n-p} only for
    # even n; odd CP^n is positively curved and the arithmetic check must
    # report a violation.
    for n in (2, 4):
        x, _ = projective_space(n)
        for j in range(n + 1):
            holds, lhs, rhs = chern_inequality_check(_ks(x), j)
            assert holds and lhs == rhs
    for n in (1, 3):
        x, _ = projective_space(n)
        ks = _ks(x)
        assert not any(chern_inequality_check(ks, j)[0] for j in range(n + 1))


def test_bundle_power_validation(cp2):
    x, o1 = cp2
    with pytest.raises(ValueError):
        bundle_power(BundleData(2, (x.spec.gen("h"),)), 2)
    assert bundle_power(o1, 0).chern[0].is_zero()


# -- top-degree pairing and the per-manifold record ---------------------------------


def test_integrate_product_matches_integrate_of_product():
    rng = random.Random(4102)
    for n in (1, 2, 3, 4):
        x, e = random_manifold_bundle(rng, n, bundle_rank=2)
        ch = chern_character(e, x.spec, n)
        pairs = [(todd_class(x), ch)] + [(todd_class(x) * ch, h) for h in list(x.hodge)]
        pairs += [(x.chern[0], x.chern[n - 1]), (x.spec.zero(), ch), (ch, x.spec.one())]
        for a, b in pairs:
            assert integrate_product(a, b, x.fclass) == integrate(a * b, x.fclass)


def test_integrate_product_missing_monomial_only_when_it_survives():
    spec = RingSpec((("x", 1), ("y", 1)), 2)
    f = FundamentalClass(spec, {(2, 0): F(3), (0, 2): F(5)})  # no x*y entry
    x, y = spec.gen("x"), spec.gen("y")
    # x*y cancels in (x + y)(x - y): neither route needs the missing entry
    assert integrate_product(x + y, x - y, f) == integrate((x + y) * (x - y), f) == -2
    for a, b in ((x + y, x + y), (x, y), (x + y + spec.one(), y)):
        with pytest.raises(MissingChernNumber) as direct:
            integrate(a * b, f)
        with pytest.raises(MissingChernNumber) as paired:
            integrate_product(a, b, f)
        assert direct.value.monomial == paired.value.monomial == "x*y"


def test_one_hodge_ladder_per_manifold(monkeypatch):
    import hlab.genus as genus

    calls = {"rungs": 0, "todd": 0}
    rung, product = genus.newton_rung, genus.genus_product

    def counted_rung(*args):
        calls["rungs"] += 1
        return rung(*args)

    def counted_product(*args):
        calls["todd"] += 1
        return product(*args)

    monkeypatch.setattr(genus, "newton_rung", counted_rung)
    monkeypatch.setattr(genus, "genus_product", counted_product)
    x, o1 = projective_space(4)
    chi_y(x, o1)
    hilbert_polynomial(x, o1, 1)
    assert k1_formula_check(x, o1, _ks(x, o1))
    chern_inequality_check(_ks(x), 2)
    assert [ch_hodge_sheaf(x, p) for p in range(5)] == list(x.hodge)
    assert calls == {"rungs": 4, "todd": 1}
    # the cache is per manifold: a second one runs its own ladder
    chi_y(projective_space(4)[0], o1)
    assert calls == {"rungs": 8, "todd": 2}
