"""Acceptance criteria: one test per criterion, exact tolerances, timed gates.

Each criterion prints a single PASS/FAIL line (visible with `pytest -s` or
in failure reports).  Everything asserted here is exact equality unless a
tolerance is stated in the criterion itself.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import factorial

from conftest import newton_poly, random_form, random_manifold_bundle, weight_keys

from hlab.bounds import (
    BoundsInput,
    bound_C1,
    bound_T2,
    bound_T4,
    bound_T5,
    isolate_real_roots,
    lemma44_search,
    root_report,
)
from hlab.fixtures import as_hermitian
from hlab.genus import (
    BundleData,
    FundamentalClass,
    ManifoldData,
    bundle_power,
    chern_character,
    chi_p,
    chi_y,
    hilbert_polynomial,
    integrate,
    k1_formula_check,
    k2_surface_formula_check,
    k_coefficients,
    projective_space,
    todd_class,
)
from hlab.gaussian import CQ
from hlab.lefschetz import (
    DiagonalCurvature,
    commutator_norm,
    curvature_operator,
    diagonal_commutator_eigenvalues,
    get_basis,
    identity_operator,
    lefschetz_power,
    op_L,
    op_Lambda,
    op_star,
    sl2_commutator_check,
)
from hlab.qpoly import QPoly
from hlab.ring import RingSpec

F = Fraction


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL: {desc}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS: {desc}")


def test_criterion_01_projective_space_genus_suite():
    with criterion(1, "chi^p(CP^n) = (-1)^p and chi(-1) = n+1 = c_n[X], n = 1..6, < 5 s"):
        start = time.monotonic()
        for n in range(1, 7):
            x, _ = projective_space(n)
            chi = chi_y(x, BundleData.trivial())
            assert chi.padded(n + 1) == [F((-1) ** p) for p in range(n + 1)]
            top_chern = integrate(x.chern[-1], x.fclass)
            assert chi(-1) == n + 1 == top_chern
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"took {elapsed:.2f} s"


def test_criterion_02_todd_and_ch_printed_forms():
    with criterion(2, "surface td = 1 + c1/2 + (c1^2+c2)/12 and rank-2 ch closed forms"):
        spec = RingSpec((("c1", 1), ("c2", 2), ("d1", 1), ("d2", 2)), 2)
        c1, c2 = spec.gen("c1"), spec.gen("c2")
        d1, d2 = spec.gen("d1"), spec.gen("d2")
        fclass = FundamentalClass(spec, {k: F(0) for k in weight_keys(spec, 2)})
        x = ManifoldData(2, (c1, c2), fclass)
        assert todd_class(x) == spec.one() + c1 * F(1, 2) + (c1 * c1 + c2) * F(1, 12)
        e = BundleData(2, (d1, d2))
        assert chern_character(e, spec, 2) == (
            spec.constant(2) + d1 + (d1 * d1 - 2 * d2) * F(1, 2)
        )


def test_criterion_03_k_identities_100_random_surfaces():
    with criterion(3, "K_0/K_1/K_2 closed forms on 100 random surface datasets, exact"):
        rng = random.Random(314159)
        for _ in range(100):
            x, e = random_manifold_bundle(rng, 2, bundle_rank=2)
            ks = k_coefficients(chi_y(x, e), upto=2)
            assert ks[0] == e.rank * integrate(x.chern[1], x.fclass)
            assert k1_formula_check(x, e, ks)
            assert k2_surface_formula_check(x, e, ks)


def test_criterion_04_flat_bundle_factorization_100_random():
    with criterion(4, "chi_y(X, E_flat) = rank chi_y(X) on 100 random datasets, n <= 4"):
        rng = random.Random(271828)
        for n in (1, 2, 3, 4):
            for _ in range(25):
                x, e = random_manifold_bundle(rng, n, bundle_rank=2)
                flat = BundleData(e.rank, ())
                assert chi_y(x, flat) == chi_y(x, BundleData.trivial()) * e.rank


def test_criterion_05_serre_symmetry():
    with criterion(5, "chi^p(X) = (-1)^n chi^{n-p}(X) on all trivial-bundle fixtures"):
        for n in range(1, 7):
            x, _ = projective_space(n)
            coeffs = chi_y(x, BundleData.trivial()).padded(n + 1)
            assert coeffs == [F((-1) ** n) * c for c in reversed(coeffs)]
        rng = random.Random(161803)
        for n in (1, 2, 3, 4):
            for _ in range(10):
                x, _ = random_manifold_bundle(rng, n)
                coeffs = chi_y(x, BundleData.trivial()).padded(n + 1)
                assert coeffs == [F((-1) ** n) * c for c in reversed(coeffs)]


def test_criterion_06_hilbert_polynomials():
    with criterion(6, "CP^n Hilbert = C(m+n, n) for n <= 5; twists match chi^p on random data"):
        for n in range(1, 6):
            x, o1 = projective_space(n)
            P = hilbert_polynomial(x, o1, 0)
            binom = QPoly([1])
            for i in range(1, n + 1):
                binom = binom * QPoly([i, 1]) * F(1, i)  # prod (m+i)/i
            assert P == binom
        rng = random.Random(173205)
        for n in (1, 2, 3):
            for _ in range(4):
                x, line = random_manifold_bundle(
                    rng, n, bundle_rank=1, line_powers=range(-5, 6)
                )
                for p in range(n + 1):
                    P = hilbert_polynomial(x, line, p)
                    for m in range(-5, 6):
                        assert P(m) == chi_p(x, bundle_power(line, m), p)


def test_criterion_07_commutator_suite():
    with criterion(7, "diagonal commutator: closed form vs matrices, 50 random gammas, < 30 s"):
        start = time.monotonic()
        rng = random.Random(141421)
        cases = [(rng.randint(1, 3)) for _ in range(50)]
        for n in cases:
            gammas = tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n))
            spec = DiagonalCurvature(gammas)
            basis = get_basis(n, 1)
            eigs = diagonal_commutator_eigenvalues(spec)
            iT = curvature_operator(as_hermitian(spec))
            lam = op_Lambda(n, 1)
            T_paper = iT.commutator(lam)  # [iTheta, Lambda]
            assert T_paper.is_diagonal()
            diag = {
                idx: T_paper.entry(idx, idx).re for idx in range(basis.dim)
            }
            for (J, K), ev in eigs.items():
                idx = basis.index[(J, K, 0)]
                assert T_paper.entry(idx, idx) == CQ(ev)
            # multiset equality against [Lambda, iTheta] as well
            T_spec = lam.commutator(iT)
            spectrum = sorted(T_spec.entry(i, i).re for i in range(basis.dim))
            assert spectrum == sorted(eigs.values())
            # C equals the matrix operator norm (diagonal, so max |entry|)
            C = commutator_norm(spec).value
            assert C == max((abs(v) for v in diag.values()), default=F(0))
            m = rng.randint(-4, 4)
            assert commutator_norm(spec.scaled(m)).value == abs(m) * C
            assert max(abs(g) for g in gammas) <= C
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"took {elapsed:.2f} s"


def test_criterion_08_kahler_package_algebra():
    with criterion(8, "adjointness, star conjugation, sl2 multiplier, hard Lefschetz; exact"):
        rng = random.Random(446)
        for n in (1, 2, 3, 4):
            basis = get_basis(n, 1)
            L, lam = op_L(n, 1), op_Lambda(n, 1)
            for _ in range(6):
                a = random_form(rng, basis)
                b = random_form(rng, basis)
                assert lam.apply(a).inner(b) == a.inner(L.apply(b))
            assert sl2_commutator_check(n, 1)
            for k in range(n + 1):
                assert lefschetz_power(n, 1, k).bijective
        for n in (1, 2, 3):
            star = op_star(n, 1)
            inv = star.adjoint()
            assert inv.compose(star) == identity_operator(get_basis(n, 1))
            assert inv.compose(op_L(n, 1)).compose(star) == op_Lambda(n, 1)


def test_criterion_09_lemma44_exhaustive():
    with criterion(9, "lemma44_search window and bound for degree <= 4, k <= 5, exhaustive scan"):
        rng = random.Random(577215)
        polys = []
        for n in (1, 2, 3, 4):
            for a_n in (1, 2, 5):
                polys.append(newton_poly([0] * n + [a_n]))
                polys.append(newton_poly([rng.randint(0, 4) for _ in range(n)] + [a_n]))
                polys.append(newton_poly([rng.randint(0, 9) for _ in range(n)] + [a_n]))
        for P in polys:
            n = P.degree
            a_n = P.leading() * factorial(n)
            for m0 in (-2, 0, 3):
                Q = P.shift(-m0)  # nonnegative on m >= m0 by construction
                for k in range(0, 6):
                    m = lemma44_search(Q, m0, k)
                    target = a_n * F(k) ** n / F(2) ** (n - 1)
                    assert m0 <= m <= m0 + k * n
                    assert Q(m) >= target
                    for earlier in range(m0, m):
                        assert Q(earlier) < target


def test_criterion_10_bound_evaluator_fixtures():
    with criterion(10, "bound_T4/T2/T5/C1 reproduce the hand-computed fixtures exactly"):
        assert bound_T4(BoundsInput(n=2, K=F(100), C=F(2), c_n=F(1, 10))) == 5
        assert bound_T4(BoundsInput(n=3, K=F(30), C=F(1), c_n=F(1))) == 14
        assert bound_T2(BoundsInput(n=2, K=F(1), C=F(5), c_n=F(1)), 7) == 3
        assert bound_T2(BoundsInput(n=2, K=F(5), C=F(2), c_n=F(1)), 1) == 7
        assert bound_T2(BoundsInput(n=2, K=F(100), C=F(1), c_n=F(3, 100)), -2) == 21
        b5 = BoundsInput(n=3, K=F(61), C=F(1), c_n=F(1))
        assert bound_T5(b5, F(1), 1) == 2004
        assert bound_T5(b5, F(1), 1000) == 4
        bc = BoundsInput(n=2, K=F(9), C=F(1), c_n=F(1))
        assert bound_C1(bc, F(1), 1) == 9
        assert bound_C1(BoundsInput(n=2, K=F(4), C=F(2), c_n=F(1)), F(7), 2) == 1


def test_criterion_11_root_machinery():
    with criterion(11, "50 random isolations bracket sign changes; m_p slack <= 2^-18"):
        rng = random.Random(693147)
        slack = F(1, 2**18)
        for _ in range(50):
            deg = rng.randint(1, 4)
            roots = set()
            while len(roots) < deg:
                roots.add(F(rng.randint(-12, 12), rng.choice([1, 2, 3, 4, 8])))
            P = QPoly([rng.choice([-2, -1, 1, 2, 3])])
            for r in roots:
                P = P * QPoly([-r, 1])
            intervals = isolate_real_roots(P)
            assert len(intervals) == len(roots)
            for lo, hi in intervals:
                if lo == hi:
                    assert P(lo) == 0
                else:
                    assert P(lo) * P(hi) < 0
            rep = root_report(P)
            true_max = max(abs(r) for r in roots)
            assert rep.m_p >= true_max
            assert rep.m_p - true_max <= slack
        double = QPoly([-1, 1]) * QPoly([-1, 1]) * QPoly([2, 1])
        rep = root_report(double)
        assert len(rep.intervals) == 2
        assert any(lo <= 1 <= hi for lo, hi in rep.intervals)
        assert any(lo <= -2 <= hi for lo, hi in rep.intervals)
        assert rep.m_p >= 2 and rep.m_p - 2 <= slack
