"""Graded ring arithmetic, symmetric-function machinery, genus products."""

import random
from fractions import Fraction
from math import gcd

import pytest

from hlab.fixtures import random_element, weight_keys
from hlab.ring import (
    GradedElement,
    RingSpec,
    Series,
    SpecMismatch,
    elementary_from_power_sums,
    exp,
    genus_product,
    log,
    power_sums_from_elementary,
    todd_series,
)

F = Fraction


@pytest.fixture
def surf():
    return RingSpec((("c1", 1), ("c2", 2)), 2)


@pytest.fixture
def hring():
    return RingSpec((("h", 1),), 2)


def test_add_inverse(surf):
    c1 = surf.gen("c1")
    assert (c1 + (-c1)).is_zero()


def test_add_merges_terms(surf):
    c1, c2 = surf.gen("c1"), surf.gen("c2")
    assert surf.one() + c1 + c2 == surf.element({(0, 0): 1, (1, 0): 1, (0, 1): 1})
    assert c1 * c1 + c1 * c1 == surf.element({(2, 0): 2})


def test_the_ring_is_the_one_constructor(surf):
    # an element is made by its ring; the class takes no terms itself
    with pytest.raises(TypeError):
        GradedElement(surf, {(1, 0): 1})
    for bad in [(1,), (1, 0, 0), (-1, 1)]:
        with pytest.raises(ValueError, match="bad exponent tuple"):
            surf.element({bad: 1})


def test_mul_binomial(surf):
    c1 = surf.gen("c1")
    u = surf.one() + c1
    assert u * u == surf.element({(0, 0): 1, (1, 0): 2, (2, 0): 1})


def test_mul_truncates(surf):
    c1 = surf.gen("c1")
    assert ((c1 * c1) * c1).is_zero()


def test_mul_hand_expansion(hring):
    # (1+3h+3h^2)(1+h) = 1 + 4h + 6h^2 once h^3 is cut
    h = hring.gen("h")
    lhs = (hring.one() + 3 * h + 3 * h * h) * (hring.one() + h)
    assert lhs == hring.element({(0,): 1, (1,): 4, (2,): 6})


def test_spec_mismatch(surf, hring):
    with pytest.raises(SpecMismatch):
        surf.gen("c1") + hring.gen("h")
    with pytest.raises(SpecMismatch):
        surf.gen("c1") * hring.gen("h")


def test_exp_basics(surf):
    c1 = surf.gen("c1")
    assert exp(surf.zero()) == surf.one()
    assert exp(c1) == surf.element({(0, 0): 1, (1, 0): 1, (2, 0): F(1, 2)})
    assert exp(-c1) * exp(c1) == surf.one()
    with pytest.raises(ValueError):
        exp(surf.one())


def test_log_basics(surf):
    c1, c2 = surf.gen("c1"), surf.gen("c2")
    assert log(surf.one()).is_zero()
    assert log(exp(c1)) == c1
    # hand expansion: v = c1 + c2, v^2 = c1^2 (rest truncated)
    assert log(surf.one() + c1 + c2) == c1 + c2 - c1 * c1 * F(1, 2)
    with pytest.raises(ValueError):
        log(surf.zero())


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_exp_log_inverse_random(n):
    from conftest import weight_keys

    rng = random.Random(100 + n)
    spec = RingSpec((("u", 1), ("v", 2)), n)
    for _ in range(8):
        terms = {}
        for w in range(spec.truncation + 1):
            for key in weight_keys(spec, w):
                if spec.weight_of(key) >= 1 and rng.random() < 0.7:
                    terms[key] = F(rng.randint(-8, 8), rng.randint(1, 5))
        x = spec.element(terms)
        assert log(exp(x)) == x
        assert exp(log(spec.one() + x)) == spec.one() + x


def test_graded_component(surf, hring):
    c1, c2 = surf.gen("c1"), surf.gen("c2")
    one = surf.one()
    assert (one + c1).graded_component(0) == one
    h = hring.gen("h")
    assert (hring.one() + 3 * h + 3 * h * h).graded_component(1) == 3 * h
    td2 = one + c1 * F(1, 2) + (c1 * c1 + c2) * F(1, 12)
    assert td2.graded_component(2) == (c1 * c1 + c2) * F(1, 12)
    with pytest.raises(ValueError):
        c1.graded_component(3)


# -- Newton identities against a symbolic-roots oracle -------------------------


def _roots_oracle(k):
    """Ring on k weight-1 root generators; returns (e_i list, p_i list)."""
    spec = RingSpec(tuple((f"g{i}", 1) for i in range(1, k + 1)), k)
    gens = [spec.gen(f"g{i}") for i in range(1, k + 1)]
    import itertools

    es = []
    for size in range(1, k + 1):
        acc = spec.zero()
        for combo in itertools.combinations(gens, size):
            term = spec.one()
            for g in combo:
                term = term * g
            acc = acc + term
        es.append(acc)
    ps = []
    for deg in range(1, k + 1):
        acc = spec.zero()
        for g in gens:
            acc = acc + g**deg
        ps.append(acc)
    return es, ps


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_power_sums_match_symbolic_roots(k):
    es, ps = _roots_oracle(k)
    assert power_sums_from_elementary(es, k) == ps
    assert elementary_from_power_sums(ps, k) == es


def test_power_sum_closed_forms():
    # p_2 = c1^2 - 2 c2 and p_3 = c1^3 - 3 c1 c2 + 3 c3, frozen from the oracle
    spec = RingSpec((("c1", 1), ("c2", 2), ("c3", 3)), 3)
    c1, c2, c3 = (spec.gen(g) for g in ("c1", "c2", "c3"))
    p = power_sums_from_elementary([c1, c2, c3], 3)
    assert p[0] == c1
    assert p[1] == c1 * c1 - 2 * c2
    assert p[2] == c1**3 - 3 * c1 * c2 + 3 * c3
    assert elementary_from_power_sums(p, 3) == [c1, c2, c3]


def test_power_sums_take_one_to_n_classes():
    # the classes after the m given are 0: their terms are skipped, not multiplied
    spec = RingSpec((("c1", 1), ("c2", 2), ("c3", 3)), 3)
    c1, c2, zero = spec.gen("c1"), spec.gen("c2"), spec.zero()
    assert power_sums_from_elementary([c1], 3) == power_sums_from_elementary([c1, zero, zero], 3)
    assert power_sums_from_elementary([c1, c2], 3) == power_sums_from_elementary([c1, c2, zero], 3)
    for e in ([], [c1, c2, zero, zero]):
        with pytest.raises(ValueError, match="need 1 to 3"):
            power_sums_from_elementary(e, 3)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_newton_roundtrip_random(n):
    rng = random.Random(4000 + n)
    spec = RingSpec(tuple((f"c{i}", i) for i in range(1, n + 1)), n)
    from conftest import random_homogeneous

    for _ in range(6):
        e = [random_homogeneous(rng, spec, i) for i in range(1, n + 1)]
        p = power_sums_from_elementary(e, n)
        assert elementary_from_power_sums(p, n) == e


# -- series and genus products --------------------------------------------------


def test_todd_series_low_coefficients():
    ts = todd_series(6)
    assert ts[0] == 1
    assert ts[1] == F(1, 2)
    assert ts[2] == F(1, 12)
    assert ts[3] == 0
    # Bernoulli cross-check: t/(1-e^{-t}) = sum B+_k t^k / k!
    assert ts[4] == F(-1, 720)
    assert ts[5] == 0
    assert ts[6] == F(1, 30240)


def test_series_reciprocal_roundtrip():
    s = Series([F(1), F(-1, 2), F(1, 6), F(-1, 24)])
    prod = s * s.reciprocal()
    assert prod.coeffs == (F(1), F(0), F(0), F(0))


def test_series_log_matches_ring_log():
    # dual route: univariate series log vs the ring log on a single
    # weight-1 generator
    rng = random.Random(42)
    n = 5
    spec = RingSpec((("t", 1),), n)
    t = spec.gen("t")
    for _ in range(5):
        coeffs = [F(1)] + [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
        series_route = Series(coeffs).log().coeffs
        elt = spec.zero()
        for k, c in enumerate(coeffs):
            elt = elt + t**k * c
        ring_route = log(elt)
        assert all(ring_route.coefficient((k,)) == series_route[k] for k in range(n + 1))


def test_genus_product_trivial(surf):
    p = power_sums_from_elementary([surf.gen("c1"), surf.gen("c2")], 2)
    one_series = Series([F(1), F(0), F(0)])
    assert genus_product(one_series, p) == surf.one()


def test_genus_product_todd_surface(surf):
    c1, c2 = surf.gen("c1"), surf.gen("c2")
    p = power_sums_from_elementary([c1, c2], 2)
    td = genus_product(todd_series(2), p)
    assert td == surf.one() + c1 * F(1, 2) + (c1 * c1 + c2) * F(1, 12)


def test_genus_product_exp_negative_root(surf):
    # Q = e^{-t}: prod e^{-gamma_i} = e^{-c1}; frozen from a two-root expansion
    c1 = surf.gen("c1")
    p = power_sums_from_elementary([c1, surf.gen("c2")], 2)
    q = Series([F(1), F(-1), F(1, 2)])
    got = genus_product(q, p)
    assert got == surf.one() - c1 + c1 * c1 * F(1, 2)
    assert got == exp(-c1)


def test_genus_product_multiplicative(surf):
    rng = random.Random(77)
    from conftest import random_homogeneous

    for _ in range(6):
        p = [random_homogeneous(rng, surf, 1), random_homogeneous(rng, surf, 2)]
        q1 = Series([F(1), F(rng.randint(-3, 3), 2), F(rng.randint(-3, 3), 3)])
        q2 = Series([F(1), F(rng.randint(-3, 3), 3), F(rng.randint(-3, 3), 2)])
        assert genus_product(q1 * q2, p) == genus_product(q1, p) * genus_product(q2, p)


def test_genus_product_requires_unit_constant(surf):
    p = power_sums_from_elementary([surf.gen("c1"), surf.gen("c2")], 2)
    with pytest.raises(ValueError):
        genus_product(Series([F(2), F(0), F(0)]), p)


# -- invariants -----------------------------------------------------------------


def test_ring_axioms_random():
    rng = random.Random(9)
    spec = RingSpec((("u", 1), ("v", 2), ("w", 3)), 5)
    for _ in range(15):
        a, b, c = (random_element(rng, spec, 0.3) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_truncation_soundness():
    rng = random.Random(10)
    spec = RingSpec((("u", 1), ("v", 2)), 3)
    from conftest import random_homogeneous

    for _ in range(10):
        a = random_homogeneous(rng, spec, 2)
        b = random_homogeneous(rng, spec, 2)
        for elt in (a + b, a * b, a * b * b):
            assert all(spec.weight_of(e) <= 3 for e in elt.terms)


def test_zero_coefficients_never_stored(surf):
    c1 = surf.gen("c1")
    elt = c1 - c1
    assert elt.terms == {}
    assert not (c1 * 0).terms


def test_printing_graded_lex(surf):
    c1, c2 = surf.gen("c1"), surf.gen("c2")
    elt = c2 + c1 * c1 * F(1, 2) - c1 + surf.one()
    assert str(elt) == "1 - c1 + 1/2*c1^2 + c2"


def test_spec_validation():
    with pytest.raises(ValueError):
        RingSpec((("a", 1), ("a", 2)), 2)
    with pytest.raises(ValueError):
        RingSpec((("a", 0),), 2)
    with pytest.raises(ValueError):
        RingSpec((("a", 1),), 0)


# -- the bucketed integer product against the schoolbook product --------------------


def _naive_product(a, b):
    """Every pair of terms, Fraction arithmetic, truncation checked per pair."""
    spec = a.spec
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if spec.weight_of(e) <= spec.truncation:
                out[e] = out.get(e, F(0)) + c1 * c2
    return spec.element(out)


@pytest.mark.parametrize(
    "spec,density",
    [
        (RingSpec((("h", 1),), 12), 0.8),
        (RingSpec(tuple((f"x{i}", i) for i in range(1, 6)) + (("y1", 1), ("y2", 2)), 5), 0.3),
    ],
    ids=["deep-one-generator", "shallow-seven-generators"],
)
def test_mul_matches_naive_product(spec, density):
    rng = random.Random(4101)
    for _ in range(25):
        a = random_element(rng, spec, density)
        b = random_element(rng, spec, density)
        product = a * b
        assert product == _naive_product(a, b)
        assert all(type(c) is F and c != 0 for c in product.terms.values())
        assert all(spec.weight_of(e) <= spec.truncation for e in product.terms)
        for q in (0, F(0), 1, F(-3, 7)):
            assert a * q == q * a == _naive_product(a, spec.constant(q))
        assert (a * 0).is_zero() and (a * spec.zero()).is_zero()


def test_mul_cancellations():
    spec = RingSpec((("x", 1), ("y", 1), ("z", 2)), 3)
    x, y, z = spec.gen("x"), spec.gen("y"), spec.gen("z")
    # the x*y terms cancel inside the product and must not be stored
    diff = (x + y) * (x - y)
    assert diff.terms == {(2, 0, 0): 1, (0, 2, 0): -1}
    assert ((x + y) * (x - y) * z).terms == {}  # weight 4 > 3: truncated away
    assert (z * z).is_zero()
    # over a common denominator the cancelling numerators sum to exactly 0
    a, b = x * F(1, 2) + y * F(1, 3), x * 2 - y * F(4, 3)
    assert a * b == _naive_product(a, b) == x * x - y * y * F(4, 9)


# -- the integer parts against a Fraction-dict reference ------------------------

ORACLE_SPECS = [
    RingSpec((("h", 1),), 6),
    RingSpec((("u", 1), ("v", 2), ("w", 3)), 5),
    RingSpec((("a", 2), ("b", 3), ("c", 1)), 7),  # weights above 1
]
SCALARS = [0, 1, -1, F(0), F(1), F(-3, 7), F(5, 2), -4]


def _dict_mul(spec, a, b):
    """The truncated product of two {exps: Fraction} dicts, term by term."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if spec.weight_of(e) <= spec.truncation:
                out[e] = out.get(e, F(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _dict_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, F(0)) + sign * c
    return {e: c for e, c in out.items() if c}


def _assert_canonical(x):
    """Integer numerators over den > 0 with gcd 1, nonempty parts keyed by weight."""
    spec = x.spec
    numerators = [v for part in x.parts.values() for v in part.values()]
    assert type(x.den) is int and x.den > 0 and gcd(x.den, *numerators) == 1
    for w, part in x.parts.items():
        assert part and 0 <= w <= spec.truncation
        assert all(type(v) is int and v and spec.weight_of(e) == w for e, v in part.items())
    assert x.terms == {e: F(v, x.den) for part in x.parts.values() for e, v in part.items()}
    assert all(type(c) is F and c for c in x.terms.values())
    if not numerators:
        assert x.den == 1 and x.is_zero()


def _draw(rng, spec):
    """A random element and its dict, drawn independently of the ring's arithmetic."""
    terms = {}
    for w in range(spec.truncation + 3):  # some keys above the truncation
        for key in weight_keys(spec, w):
            if rng.random() < 0.4:
                terms[key] = F(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 6, 9]))
    ref = {e: c for e, c in terms.items() if c and spec.weight_of(e) <= spec.truncation}
    return spec.element(terms), ref


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=["h-T6", "uvw-T5", "abc-T7"])
def test_arithmetic_matches_the_fraction_dict_reference(spec):
    from hlab.genus import FundamentalClass, integrate_product

    rng = random.Random(4201)
    fclass = FundamentalClass(spec, {e: F(rng.randint(-5, 5), rng.randint(1, 3)) for e in weight_keys(spec, spec.truncation)})
    for _ in range(25):
        (a, ra), (b, rb) = _draw(rng, spec), _draw(rng, spec)
        assert a.terms == ra
        cases = [
            (a * b, _dict_mul(spec, ra, rb)),
            (a + b, _dict_add(ra, rb)),
            (a - b, _dict_add(ra, rb, -1)),
            (-a, {e: -c for e, c in ra.items()}),
            (a - a, {}),
            (a * b - b * a, {}),
        ]
        for q in SCALARS:
            cases += [(a * q, {e: c * q for e, c in ra.items() if c * q}), (q * a, {e: c * q for e, c in ra.items() if c * q})]
            cases += [(a + q, _dict_add(ra, {(0,) * len(spec.generators): F(q)}))]
            if q:
                cases += [(a / q, {e: c / q for e, c in ra.items()})]
        power = {(0,) * len(spec.generators): F(1)}
        for k in range(4):
            cases.append((a**k, power))
            power = _dict_mul(spec, power, ra)
        for got, want in cases:
            _assert_canonical(got)
            assert got.terms == want
        top = {e: c for e, c in _dict_mul(spec, ra, rb).items() if spec.weight_of(e) == spec.truncation}
        assert integrate_product(a, b, fclass) == sum((c * fclass.assignments[e] for e, c in top.items()), F(0))


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=["h-T6", "uvw-T5", "abc-T7"])
def test_equal_values_by_different_routes_are_equal_and_hash_alike(spec):
    rng = random.Random(4202)
    for _ in range(15):
        (a, ra), (b, _), (c, _) = _draw(rng, spec), _draw(rng, spec), _draw(rng, spec)
        routes = [
            (a * (b + c), a * b + a * c),
            ((a * F(2, 3)) * F(3, 2), a),
            (a / F(-5, 7) * F(-5, 7), a),
            (spec.element(ra), a),
            (spec.element({e: F(2) * x for e, x in ra.items()}), a + a),
            (a * b * c, c * (b * a)),
            ((a + b) - b, a),
            (a ** 3, a * a * a),
            (a * 0, spec.zero()),
            (a - a, spec.constant(0)),
        ]
        for x, y in routes:
            _assert_canonical(x)
            _assert_canonical(y)
            assert x == y and hash(x) == hash(y)
            assert (x.den, x.parts) == (y.den, y.parts)


def test_atoms_are_canonical_and_heavy_generators_vanish():
    spec = RingSpec((("a", 2), ("b", 3), ("c", 1), ("d", 5)), 4)
    for name in spec.names:
        g = spec.gen(name)
        _assert_canonical(g)
        assert g == spec.element({tuple(int(m == name) for m in spec.names): 1})
    assert spec.gen("d").is_zero()  # weight 5 > T = 4
    # a coefficient that is zero only once read as a rational is dropped too
    assert spec.element({(0, 0, 1, 0): "0", (0, 0, 0, 0): "3/6"}) == F(1, 2)
    for q in SCALARS + [F(6, 4), F(-10, 15)]:
        k = spec.constant(q)
        _assert_canonical(k)
        assert k.constant_term() == q and k == q and (k.den, k.is_zero()) == (F(q).denominator, not q)
