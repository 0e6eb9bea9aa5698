"""Built-in property suite behind the `verify` subcommand.

Runs a deterministic battery of the library's defining identities and
reports one line per check; no network, no external files.  Every random
draw comes from ``hlab.fixtures``, as in the test suite, and CP^n from
``genus.projective_space``, which reads the document ``hlab fixture cp n``
prints, so that document is what the CP^n checks test.  The CLI exits
nonzero iff any check fails.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

from . import blocks, bounds, fixtures, genus, hermitian, lefschetz, linebundle, monomials, ring, sl2
from .errors import CertificateError
from .qpoly import QPoly


def _expect(ok, detail=""):
    """Raise AssertionError unless ``ok``; unlike ``assert``, kept under -O."""
    if not ok:
        raise AssertionError(detail)


def run_all() -> list[tuple[str, bool, str]]:
    rng = random.Random(20240601)
    results = []

    def check(name, fn):
        try:
            fn()
            results.append((name, True, ""))
        except Exception as exc:  # noqa: BLE001 - report, don't crash the suite
            results.append((name, False, f"{type(exc).__name__}: {exc}"))

    check("ring axioms", lambda: _check_ring_axioms(rng))
    check("exp/log inverse pair", lambda: _check_exp_log(rng))
    check("newton identity round-trip", lambda: _check_newton(rng))
    check("todd series bernoulli values", _check_todd_series)
    check("projective space genus suite", _check_cpn)
    check("serre symmetry", lambda: _check_serre(rng))
    check("flat bundle factorization", lambda: _check_flat(rng))
    check("K coefficient closed forms", lambda: _check_k_formulas(rng))
    check("hilbert polynomial consistency", _check_hilbert)
    check("sl2 commutator", _check_sl2)
    check("hodge star conjugation identity", _check_star)
    check("commutator closed form vs matrix", lambda: _check_commutator(rng))
    check("line-bundle norm: eigenvalues vs blocks", lambda: _check_line_bundle_norm(rng))
    check("commutator blocks: theta formula vs operator engine", lambda: _check_commutator_blocks(rng))
    check("hard lefschetz bijectivity", _check_lefschetz_power)
    check("injectivity range", _check_injectivity)
    check("lemma44_search window and bound", _check_lemma44)
    check("root isolation", _check_roots)
    check("bound evaluator fixtures", _check_bound_fixtures)
    check("lefschetz-check sign table vs operator engine L", _check_certificate_tables)
    return results


def _check_sl2():
    for n in (1, 2, 3):
        _expect(sl2.sl2_commutator_check(n, 1), n)


def _check_ring_axioms(rng):
    spec = ring.RingSpec((("u", 1), ("v", 2)), 4)
    for _ in range(25):
        a, b, c = (fixtures.random_element(rng, spec) for _ in range(3))
        _expect((a + b) + c == a + (b + c))
        _expect(a * b == b * a)
        _expect((a * b) * c == a * (b * c))
        _expect(a * (b + c) == a * b + a * c)
        for elt in (a + b, a * b):
            _expect(all(spec.weight_of(e) <= 4 for e in elt.terms))


def _check_exp_log(rng):
    spec = ring.RingSpec((("u", 1), ("v", 2)), 5)
    for _ in range(10):
        x = fixtures.random_element(rng, spec)
        x = x - spec.constant(x.constant_term())
        _expect(ring.log(ring.exp(x)) == x)
        u = spec.one() + x
        _expect(ring.exp(ring.log(u)) == u)


def _check_newton(rng):
    spec = ring.RingSpec((("c1", 1), ("c2", 2), ("c3", 3)), 3)
    for _ in range(10):
        e = [fixtures.random_homogeneous(rng, spec, i) for i in (1, 2, 3)]
        p = ring.power_sums_from_elementary(e, 3)
        _expect(ring.elementary_from_power_sums(p, 3) == e)


def _check_todd_series():
    got = ring.todd_series(6).coeffs
    expected = (
        Fraction(1), Fraction(1, 2), Fraction(1, 12), Fraction(0),
        Fraction(-1, 720), Fraction(0), Fraction(1, 30240),
    )
    _expect(got == expected, got)


def _check_cpn():
    for n in range(1, 5):
        x, _ = genus.projective_space(n)
        chi = genus.chi_y(x, genus.BundleData.trivial())
        _expect(chi.padded(n + 1) == [Fraction((-1) ** p) for p in range(n + 1)])
        _expect(chi(-1) == n + 1)


def _check_serre(rng):
    x, _ = fixtures.random_manifold_bundle(rng, 2, bundle_rank=2)
    chi = genus.chi_y(x, genus.BundleData.trivial())
    flipped = [Fraction((-1) ** 2) * c for c in reversed(chi.padded(3))]
    _expect(chi.padded(3) == flipped)


def _check_flat(rng):
    x, e = fixtures.random_manifold_bundle(rng, 2, bundle_rank=2)
    flat = genus.BundleData(e.rank, ())
    lhs = genus.chi_y(x, flat)
    rhs = genus.chi_y(x, genus.BundleData.trivial()) * e.rank
    _expect(lhs == rhs)


def _check_k_formulas(rng):
    for _ in range(5):
        x, e = fixtures.random_manifold_bundle(rng, 2, bundle_rank=2)
        ks = genus.k_coefficients(genus.chi_y(x, e), upto=2)
        c2_top = genus.integrate(x.chern[1], x.fclass)
        _expect(ks[0] == e.rank * c2_top)
        _expect(genus.k1_formula_check(x, e, ks))
        _expect(genus.k2_surface_formula_check(x, e, ks))


def _check_hilbert():
    x, o1 = genus.projective_space(2)
    P = genus.hilbert_polynomial(x, o1, 0)
    _expect(P == QPoly([1, Fraction(3, 2), Fraction(1, 2)]))
    for m in range(-5, 6):
        _expect(P(m) == genus.chi_p(x, genus.bundle_power(o1, m), 0))


def _check_star():
    for n in (1, 2, 3):
        _expect(sl2.star_identities(n, 1) == (True, True), f"n = {n}")


def _check_commutator(rng):
    for gammas in fixtures.gamma_draws(rng, 2):
        spec = lefschetz.DiagonalCurvature(gammas)
        basis = lefschetz.get_basis(2, 1)
        T = lefschetz.curvature_operator(spec).commutator(lefschetz.op_Lambda(2, 1))
        eigs = lefschetz.diagonal_commutator_eigenvalues(spec)
        for (J, K), ev in eigs.items():
            idx = basis.index[(J, K, 0)]
            _expect(T.entry(idx, idx) == lefschetz.CQ(ev))
        norm = lefschetz.commutator_norm(spec)
        _expect(norm.value == max(abs(v) for v in eigs.values()))
        _expect(max(abs(g) for g in gammas) <= norm.value)
    # Hermitian: a split bundle in rotated frames keeps its diagonal table
    spec, table = fixtures.rotated_split_curvature(rng, 2, 2)
    for key, iv in lefschetz.commutator_norm(spec).table.items():
        _expect(iv.lo <= table[key] <= iv.hi, (key, iv, table[key]))
        _expect(iv.width <= Fraction(1, 10**12), (key, iv))


def _check_line_bundle_norm(rng):
    """The eigenvalue path of a Hermitian line bundle against the block
    certificate of every bidegree block, on generic and rotated split draws.
    Both rest on the inertia kernel of ``hermitian``, so the rotated draws are
    also held to their closed-form table, which shares no code with it."""
    for n in (1, 2, 3):
        for spec, exact in ((fixtures.generic_curvature(rng, n, 1), {}), fixtures.rotated_split_curvature(rng, n, 1)):
            fast, slow = linebundle.line_bundle_norm(spec), blocks.block_commutator_norm(spec)
            _expect(set(fast.table) == set(slow.table), n)
            for key, iv in slow.table.items():
                other = fast.table[key]
                _expect(iv.lo <= other.hi and other.lo <= iv.hi, (n, key, other, iv))
                _expect(max(iv.width, other.width) <= hermitian.HERMITIAN_WIDTH, (n, key))
            for key, value in exact.items():
                _expect(fast.table[key].lo <= value <= fast.table[key].hi, (n, key, value))


def _check_commutator_blocks(rng):
    """Each bidegree block that ``blocks.commutator_block`` reads from theta
    against the same block of the operator [Lambda, iTheta(E)], built by the
    engine from L and the curvature operator, on generic draws."""
    for n in (1, 2, 3):
        for r in (1, 2):
            spec = fixtures.generic_curvature(rng, n, r)
            T = lefschetz.op_Lambda(n, r).commutator(lefschetz.curvature_operator(spec))
            for (p, q), idxs in lefschetz.get_basis(n, r).by_bidegree.items():
                _expect(blocks.commutator_block(spec, p, q) == T.block(idxs, idxs), (n, r, p, q))


def _check_lefschetz_power():
    for n in (1, 2, 3):
        for r in (1, 2):
            for k in range(n + 1):
                lp = sl2.lefschetz_power(n, r, k)
                _expect((lp.bijective, lp.sigma_values) == lefschetz_power_by_rank(n, r, k), (n, r, k))


def _int_block(op, src, dst, phase) -> list[list[int]]:
    """The block of ``op`` from the src to the dst basis indices, row-major,
    divided by the unit ``phase`` that all its entries share."""
    return [[_strip_phase(v, phase) for v in row] for row in op.block(dst, src)]


def _strip_phase(value, phase) -> int:
    """value / phase = value conj(phase) for a unit phase; it must be an integer."""
    w = value * phase.conj()
    if w.b or w.d != 1:
        raise CertificateError("entries do not share the expected phase")
    return w.a


def lefschetz_power_by_rank(n: int, r: int, k: int) -> tuple[bool, tuple[Fraction, ...]]:
    """(bijective, singular values) of L^{n-k} on k-forms, from exact integer
    ranks; independent of the sl(2) certificate it checks.  Per bidegree
    block M (phase i^{n-k} stripped) B = M^T M is symmetric, so when every
    candidate s = (n-k+j)!/j!, j <= min(p, q), makes B - s^2 I singular and
    their nullities sum to dim B, the candidates are exactly its spectrum;
    all are positive, so a square block is bijective."""
    basis = lefschetz.get_basis(n, r)
    power = lefschetz.op_L(n, r).power(n - k)
    bijective, sigmas = True, set()
    for (p, q), src in basis.by_bidegree.items():
        if p + q != k:
            continue
        dst = basis.by_bidegree[(p + n - k, q + n - k)]
        M = _int_block(power, src, dst, monomials.i_power(n - k))
        dim = len(src)
        B = [[sum(row[a] * row[b] for row in M) for b in range(dim)] for a in range(dim)]
        candidates = {factorial(n - k + j) // factorial(j) for j in range(min(p, q) + 1)}
        nullities = [
            dim - lefschetz.int_rank([[x - s * s * (a == b) for b, x in enumerate(row)] for a, row in enumerate(B)])
            for s in candidates
        ]
        _expect(min(nullities) > 0 and sum(nullities) == dim, ("spectrum", n, r, k, p, q, nullities))
        bijective = bijective and len(dst) == dim
        sigmas |= candidates
    return bijective, tuple(Fraction(s) for s in sorted(sigmas))


def injectivity_by_rank(n: int, r: int) -> dict[tuple[int, int], bool]:
    """Whether L: Lambda^{p,q} -> Lambda^{p+1,q+1} is injective, from exact
    integer ranks; independent of the sl(2) certificate it checks."""
    basis = lefschetz.get_basis(n, r)
    L = lefschetz.op_L(n, r)
    out = {}
    for (p, q), src in basis.by_bidegree.items():
        dst = basis.by_bidegree.get((p + 1, q + 1), [])
        rows = _int_block(L, src, dst, lefschetz.CQ_I)
        out[(p, q)] = bool(dst) and lefschetz.int_rank(rows) == len(src)
    return out


def _check_injectivity():
    for n in (1, 2, 3):
        for r in (1, 2):
            _expect(sl2.injectivity_scan(n, r) == injectivity_by_rank(n, r), (n, r))


def _check_certificate_tables():
    """The sign table S of ``lefschetz-check`` (``sl2.sign_table``) against
    the operator engine's L, entry for entry: L = iS, for n <= 3 and r <= 3.
    Both index the basis by the keys of ``hlab.monomials``; the star map is
    shared (``monomials.star_key``), so only the sign table is compared."""
    for n in (1, 2, 3):
        for r in (1, 2, 3):
            L = {c: {row: lefschetz.CQ_I * v for row, v in col.items()} for c, col in sl2.sign_table(n, r).items() if col}
            _expect(lefschetz.op_L(n, r).cols == L, ("L", n, r))


def _check_lemma44():
    for coeffs, m0, k in [((0, 0, 1), 0, 1), ((0, 0, 1), 0, 3), ((0, 1), 0, 5)]:
        P = QPoly(coeffs)
        n = P.degree
        a_n = P.leading() * factorial(n)
        m = bounds.lemma44_search(P, m0, k)
        _expect(m0 <= m <= m0 + k * n)
        _expect(P(m) >= a_n * Fraction(k) ** n / Fraction(2) ** (n - 1))


def _check_roots():
    rep = bounds.root_report(QPoly([-1, 0, 1]))
    _expect(rep.m_p >= 1 and rep.m_p - 1 <= Fraction(1, 2**18))
    rep = bounds.root_report(QPoly([1, 0, 1]))
    _expect(rep.intervals == () and rep.m_p == 0)
    double = QPoly([1, -1]) * QPoly([1, -1]) * QPoly([2, 1])
    rep = bounds.root_report(double)
    _expect(len(rep.intervals) == 2)


def _check_bound_fixtures():
    b = bounds.BoundsInput(n=2, K=Fraction(100), C=Fraction(2), c_n=Fraction(1, 10))
    _expect(bounds.bound_T4(b) == 5)
    b2 = bounds.BoundsInput(n=2, K=Fraction(5), C=Fraction(2), c_n=Fraction(1))
    _expect(bounds.bound_T2(b2, 1) == 7)
    b5 = bounds.BoundsInput(n=3, K=Fraction(61), C=Fraction(1), c_n=Fraction(1))
    _expect(bounds.bound_T5(b5, 1, 1) == 2004)
    bc = bounds.BoundsInput(n=2, K=Fraction(9), C=Fraction(1), c_n=Fraction(1))
    _expect(bounds.bound_C1(bc, 1, 1) == 9)
