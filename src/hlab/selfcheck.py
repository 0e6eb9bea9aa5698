"""Built-in property suite behind the `verify` subcommand.

Runs a deterministic battery of the library's defining identities and
reports one line per check; no network, no external files.  Every random
draw comes from ``hlab.fixtures``, as in the test suite, and CP^n from
``genus.projective_space``, which reads the document ``hlab fixture cp n``
prints, so that document is what the CP^n checks test.  The Kahler checks
hold the integer tables of ``hlab.sl2`` and the blocks of ``hlab.blocks``
to closed forms and to a sign rule of their own (:func:`_sorting_sign`);
none runs the operator engine.  The enclosure kernels are held to their
widths from bad guesses too, and the inertia kernel to matrices whose
inertia Sylvester's law gives.  The CLI exits nonzero iff any check fails.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from math import comb, factorial, nan, sqrt

from . import blocks, bounds, diagonal, fixtures, genus, hermitian, linebundle, monomials, ring, sl2
from .qpoly import QPoly, is_integer_valued


def _expect(ok, detail=""):
    """Raise AssertionError unless ``ok``; unlike ``assert``, kept under -O."""
    if not ok:
        raise AssertionError(detail)


def run_command(args=None) -> int:
    """``hlab verify``: run every check, each on the suite's one seeded
    stream, and print one line each, then the count passed; the exit code:
    0 if every check passed, else 1."""
    rng, passed = random.Random(20240601), 0
    checks = (
        ("ring axioms", _check_ring_axioms),
        ("exp/log inverse pair", _check_exp_log),
        ("newton identity round-trip", _check_newton),
        ("todd series bernoulli values", _check_todd_series),
        ("projective space genus suite", _check_cpn),
        ("serre symmetry", _check_serre),
        ("flat bundle factorization", _check_flat),
        ("K coefficient closed forms", _check_k_formulas),
        ("chern inequality right side vs hockey stick", _check_inequality_rhs),
        ("hilbert polynomial consistency", _check_hilbert),
        ("sl2 commutator", _check_sl2),
        ("hodge star conjugation identity", _check_star),
        ("commutator blocks: diagonal theta vs closed form", _check_diagonal_blocks),
        ("line-bundle norm: eigenvalues vs blocks", _check_line_bundle_norm),
        ("commutator blocks: rotated split bundles vs line tables", _check_rotated_split_blocks),
        ("enclosures within their width from any guess", _check_enclosure_widths),
        ("inertia signs on zero-pivot families", _check_zero_pivot_inertia),
        ("hard lefschetz bijectivity", _check_lefschetz_power),
        ("injectivity range", _check_injectivity),
        ("lemma44_search window and bound", _check_lemma44),
        ("root isolation", _check_roots),
        ("bound evaluator fixtures", _check_bound_fixtures),
        ("lefschetz-check sign and star tables vs sorting signs", _check_certificate_tables),
    )
    for name, check in checks:
        try:
            check(rng)
            detail = ""
        except Exception as exc:  # noqa: BLE001 - report, don't crash the suite
            detail = f"  ({type(exc).__name__}: {exc})"
        print(f"{'FAIL' if detail else 'PASS'}  {name}{detail}")
        passed += not detail
    print(f"{passed}/{len(checks)} checks passed")
    return 0 if passed == len(checks) else 1


def _check_sl2(rng):
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


def _check_todd_series(rng):
    got = ring.todd_series(6).coeffs
    expected = (1, Fraction(1, 2), Fraction(1, 12), 0, Fraction(-1, 720), 0, Fraction(1, 30240))
    _expect(got == expected, got)


def _check_cpn(rng):
    """chi_y(CP^n) = sum_p (-y)^p, read through its coefficients K_j about
    y = -1 (``genus.k_coefficients``) and the Chern inequalities on them:
    (-1)^{n+j} K_j = (-1)^n C(n + 1, j + 1), the right side, which
    :func:`_check_inequality_rhs` holds to the binomial.  So the
    inequalities hold, sharply, for even n alone."""
    for n in range(1, 5):
        x, _ = genus.projective_space(n)
        ks = genus.k_coefficients(genus.chi_y(x, genus.BundleData.trivial()))
        for j in range(n + 1):
            holds, lhs, rhs = genus.chern_inequality_check(ks, j)
            _expect(lhs == (-1) ** n * rhs and holds == (n % 2 == 0), (n, j))


def _check_serre(rng):
    x, _ = fixtures.random_manifold_bundle(rng, 2, bundle_rank=2)
    chi = genus.chi_y(x, genus.BundleData.trivial())
    # chi^p = (-1)^n chi^{n-p}, and (-1)^n = 1 for n = 2
    _expect(chi.padded(3) == chi.padded(3)[::-1])


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


def _check_inequality_rhs(rng):
    """The right side of :func:`genus.chern_inequality_check` against the
    hockey-stick identity sum_{p=j..n} C(p, j) = C(n + 1, j + 1), for every
    n <= 12 and 0 <= j <= n."""
    for n in range(1, 13):
        for j in range(n + 1):
            rhs = genus.chern_inequality_check([0] * (n + 1), j)[2]
            _expect(rhs == comb(n + 1, j + 1), (n, j, rhs))


def _check_hilbert(rng):
    x, o1 = genus.projective_space(2)
    P = genus.hilbert_polynomial(x, o1, 0)
    _expect(P == QPoly([1, Fraction(3, 2), Fraction(1, 2)]))
    _expect(not is_integer_valued(QPoly([Fraction(1, 2)])))
    for m in range(-5, 6):
        _expect(P(m) == genus.chi_p(x, genus.bundle_power(o1, m), 0))


def _check_star(rng):
    for n in (1, 2, 3):
        _expect(sl2.star_identities(n, 1) == (True, True), f"n = {n}")


def _check_diagonal_blocks(rng):
    """Each bidegree block that ``blocks.commutator_block`` reads from a
    diagonal theta (``fixtures.as_hermitian``) against its closed form, in
    which no wedge sign enters: diagonal, with sum gamma - gamma_J - gamma_K
    on xi_J ^ xibar_K.  Its largest size is the C_{p,q} of
    ``diagonal.diagonal_norm``, which reads sorted partial sums of the
    gammas and no block."""
    for n in (1, 2, 3):
        for g in fixtures.gamma_draws(rng, n):
            spec = diagonal.DiagonalCurvature(g)
            theta = fixtures.as_hermitian(spec)
            norm, total, s = diagonal.diagonal_norm(spec), sum(g), theta.scale
            _expect(max(map(abs, g)) <= norm.value, g)
            for (p, q), value in norm.table.items():
                diag = [total - sum(g[j] for _, j in _factors(n, c)) for c in monomials.basis_keys(n, 1, p, q)]
                closed = [[x * s if a == b else 0 for b in range(len(diag))] for a, x in enumerate(diag)]
                _expect(blocks.commutator_block(theta, p, q) == (s, closed, [[0] * len(diag)] * len(diag)), (g, p, q))
                _expect(max(map(abs, diag)) == value, (g, p, q))


def _check_line_bundle_norm(rng):
    """The eigenvalue path of a Hermitian line bundle against the block
    certificate of every bidegree block, on generic and rotated split draws;
    ``commutator_norm``, the dispatch of ``hlab commutator``, must take the
    eigenvalue path.  Both rest on the inertia kernel of ``hermitian``, so
    the rotated draws are also held to their closed-form table, which shares
    no code with it."""
    for n in (1, 2, 3):
        for spec, exact in ((fixtures.generic_curvature(rng, n, 1), {}), fixtures.rotated_split_curvature(rng, n, 1)):
            fast, slow = linebundle.line_bundle_norm(spec), blocks.block_commutator_norm(spec)
            _expect(diagonal.commutator_norm(spec) == fast, n)
            _expect(set(fast.table) == set(slow.table), n)
            for key, iv in slow.table.items():
                other = fast.table[key]
                _expect(iv.lo <= other.hi and other.lo <= iv.hi, (n, key, other, iv))
                _expect(max(iv.width, other.width) <= hermitian.HERMITIAN_WIDTH, (n, key))
            for key, value in exact.items():
                _expect(fast.table[key].lo <= value <= fast.table[key].hi, (n, key, value))


def _check_rotated_split_blocks(rng):
    """The norm of direct sums of line bundles in rotated unitary frames, read
    through ``commutator_norm`` as ``hlab commutator`` reads it, so through
    the block certificate ``blocks.block_commutator_norm``, against the
    closed-form table of their lines (``fixtures.rotated_split_curvature``).
    Every C_{p,q} is an integer there, which the search certifies exactly.
    Rank 1 is the line-bundle check's."""
    for n, r in ((1, 2), (2, 2), (1, 3), (2, 3)):
        spec, table = fixtures.rotated_split_curvature(rng, n, r)
        for key, iv in diagonal.commutator_norm(spec).table.items():
            _expect(iv.lo == iv.hi == table[key], (n, r, key, iv, table[key]))


def _check_enclosure_widths(rng):
    """Every enclosure kernel keeps its width promise from any guess:
    ``hermitian.enclose`` around sqrt(k) from no guess, from guesses outside
    the bracket and from a good one, ``bounds.sqrt_enclosure`` and
    ``bounds.isolate_real_roots``.  The Hermitian checks above start from
    good float guesses, which end most searches before they bisect."""
    for k in (2, 3, 5, 7):

        def compare(h, k=k):
            """sign(sqrt(k) - h), for h > 0"""
            return (h * h < k) - (h * h > k)

        def within(lo, hi, width, k=k):
            """[lo, hi] is at most width wide and holds sqrt(k) or -sqrt(k)."""
            return hi - lo <= width and (lo * lo - k) * (hi * hi - k) <= 0

        for width in (Fraction(1, 2**10), hermitian.HERMITIAN_WIDTH):
            for guess in (nan, -1.0, 1e6, sqrt(k)):
                ends = hermitian.enclose(compare, guess, Fraction(0), Fraction(k), width)
                _expect(within(*ends, width), (k, width, guess, ends))
            _expect(within(*bounds.sqrt_enclosure(k, width), width), (k, width))
            roots = bounds.isolate_real_roots(QPoly([-k, 0, 1]), width)
            _expect(len(roots) == 2 and all(within(*ends, width) for ends in roots), (k, width, roots))


def _check_zero_pivot_inertia(rng):
    """``hermitian.inertia_signs`` at h = 0 on the zero-pivot families of
    ``hlab.fixtures``, whose inertia Sylvester's law gives: a zero diagonal
    with imaginary entries, and a first step whose congruence u = 1 or i
    cancels.  The signs of -A count the eigenvalues of A the other way.
    No eigenvalue of +-A lies above the radius of ``integer_parts``."""
    for d in range(2, 7):
        for family in (fixtures.imaginary_hermitian, fixtures.cancelling_hermitian):
            A, counts = family(rng, d)
            parts = hermitian.integer_parts(A)
            for s in (-1, 1):
                signs = list(hermitian.inertia_signs(parts, Fraction(0), s))
                # sign -s per positive eigenvalue of A, s per negative one
                _expect(tuple(map(signs.count, (-s, s, 0))) == counts, (family.__name__, d, s, signs))
                _expect(-1 not in hermitian.inertia_signs(parts, parts[3], s))


def _check_lefschetz_power(rng):
    for n in (1, 2, 3):
        for r in (1, 2):
            for k in range(n + 1):
                lp = sl2.lefschetz_power(n, r, k)
                _expect((lp.bijective, lp.sigma_values) == lefschetz_power_by_rank(n, r, k), (n, r, k))


def _gram(S: dict[int, dict[int, int]], keys: list[int], m: int) -> list[list[int]]:
    """M^T M for the columns M of S^m at ``keys``, S a sign table."""
    cols = [Counter({c: 1}) for c in keys]
    for _ in range(m):
        images = [Counter() for _ in cols]
        for col, image in zip(cols, images):
            for key, v in col.items():
                image.update({row: v * w for row, w in S[key].items()})
        cols = images
    return [[sum(v * b[row] for row, v in a.items()) for b in cols] for a in cols]


def _nullity(B: list[list[int]], h: int) -> int:
    """dim ker (B - h I) for a symmetric integer matrix B, certified so by
    ``hermitian.integer_parts``: one zero sign per eigenvalue at h from the
    inertia kernel of ``hermitian``."""
    parts = hermitian.integer_parts((1, B, [[0] * len(B) for _ in B]))
    return list(hermitian.inertia_signs(parts, Fraction(h))).count(0)


def lefschetz_power_by_rank(n: int, r: int, k: int) -> tuple[bool, tuple[Fraction, ...]]:
    """(bijective, singular values) of L^{n-k} on k-forms, from exact
    nullities; independent of the sl(2) certificate it checks.  L = iS for
    the sign table S, so per bidegree block M of S^{n-k}, B = M^T M is the
    Gram matrix of L^{n-k} there.  When every candidate s = (n-k+j)!/j!,
    j <= min(p, q), makes B - s^2 I singular and their nullities sum to
    dim B, the candidates are exactly its spectrum; all are positive, so a
    square block is bijective."""
    S = sl2.sign_table(n, r)
    bijective, sigmas = True, set()
    for p in range(k + 1):
        B = _gram(S, monomials.basis_keys(n, r, p, k - p), n - k)
        candidates = {factorial(n - k + j) // factorial(j) for j in range(min(p, k - p) + 1)}
        nullities = [_nullity(B, s * s) for s in candidates]
        _expect(min(nullities) > 0 and sum(nullities) == len(B), ("spectrum", n, r, k, p, nullities))
        bijective = bijective and len(monomials.basis_keys(n, r, n - k + p, n - p)) == len(B)
        sigmas |= candidates
    return bijective, tuple(Fraction(s) for s in sorted(sigmas))


def injectivity_by_rank(n: int, r: int) -> dict[tuple[int, int], bool]:
    """Whether L: Lambda^{p,q} -> Lambda^{p+1,q+1} is injective, from the
    exact nullity of S^T S there (L = iS); independent of the sl(2)
    certificate it checks."""
    S = sl2.sign_table(n, r)
    grams = {(p, q): _gram(S, monomials.basis_keys(n, r, p, q), 1) for p in range(n + 1) for q in range(n + 1)}
    return {pq: not _nullity(B, 0) for pq, B in grams.items()}


def _check_injectivity(rng):
    for n in (1, 2, 3):
        for r in (1, 2):
            _expect(sl2.injectivity_scan(n, r) == injectivity_by_rank(n, r), (n, r))


def _sorting_sign(factors: list[tuple[int, int]]) -> int:
    """The sign of the permutation that sorts distinct ``factors``, with
    every xi_j = (0, j) before every xibar_k = (1, k) and each in index
    order; 0 when a factor repeats, as the wedge then vanishes.  The sign
    rule of ``verify``, written apart from ``hlab.monomials``."""
    if len(set(factors)) < len(factors):
        return 0
    return (-1) ** sum(a > b for i, a in enumerate(factors) for b in factors[i + 1 :])


def _factors(n: int, c: int) -> list[tuple[int, int]]:
    """The factors of xi_J ^ xibar_K in order, for the basis key c = J | K << n | s << 2n."""
    return [(kind, j) for kind in (0, 1) for j in range(n) if c >> kind * n + j & 1]


def _omega_by_sorting(n: int, c: int) -> dict[int, int]:
    """Column c of the sign table S with L = iS, by :func:`_sorting_sign`:
    L u = i sum_j xi_j ^ xibar_j ^ u."""
    signs = {c | 1 << j | 1 << n + j: _sorting_sign([(0, j), (1, j)] + _factors(n, c)) for j in range(n)}
    return {key: sign for key, sign in signs.items() if sign}


def _star_by_sorting(n: int, c: int) -> tuple[int, int]:
    """(sigma(c), e) with star c = i^e sigma(c), by :func:`_sorting_sign`.

    The star sends u = xi_J ^ xibar_K (x) e_s to i^e xi_{K^c} ^ xibar_{J^c} (x) e_s,
    with e fixed by u ^ conj(star u) = vol = i^n (-1)^{n(n-1)/2} xi_1..xi_n ^ xibar_1..xibar_n.
    conj(star u) = i^-e xibar_{K^c} ^ xi_{J^c}: conjugation swaps the kind
    of each factor and keeps their order.  So i^-e times the sorting sign
    of all 2n factors is i^{n + n(n-1)} = i^{n^2}.
    """
    full = (1 << n) - 1
    t = (c >> n & full ^ full) | (c & full ^ full) << n | c >> 2 * n << 2 * n
    sign = _sorting_sign(_factors(n, c) + [(1 - kind, j) for kind, j in _factors(n, t)])
    return t, (2 * (sign < 0) - n * n) % 4


def _check_certificate_tables(rng):
    """The sign table S and the star of ``lefschetz-check`` (``sl2.sign_table``,
    ``sl2.star_table``) against the sign rule of :func:`_sorting_sign`, for
    n <= 3 and r <= 3: L u = i sum_j xi_j ^ xibar_j ^ u for L = iS
    (:func:`_omega_by_sorting`), and u ^ conj(star u) = vol
    (:func:`_star_by_sorting`)."""
    for n in (1, 2, 3):
        for r in (1, 2, 3):
            keys = range(r << 2 * n)
            _expect(sl2.sign_table(n, r) == {c: _omega_by_sorting(n, c) for c in keys}, ("S", n, r))
            _expect(sl2.star_table(n, r) == {c: _star_by_sorting(n, c) for c in keys}, ("star", n, r))


def _check_lemma44(rng):
    for coeffs, m0, k in [((0, 0, 1), 0, 1), ((0, 0, 1), 0, 3), ((0, 1), 0, 5)]:
        P = QPoly(coeffs)
        n = P.degree
        a_n = P.leading() * factorial(n)
        m = bounds.lemma44_search(P, m0, k)
        _expect(m0 <= m <= m0 + k * n)
        _expect(P(m) >= a_n * Fraction(k) ** n / Fraction(2) ** (n - 1))


def _check_roots(rng):
    rep = bounds.root_report(QPoly([-1, 0, 1]))
    _expect(rep.m_p >= 1 and rep.m_p - 1 <= Fraction(1, 2**18))
    rep = bounds.root_report(QPoly([1, 0, 1]))
    _expect(rep.intervals == () and rep.m_p == 0)
    double = QPoly([1, -1]) * QPoly([1, -1]) * QPoly([2, 1])
    rep = bounds.root_report(double)
    _expect(len(rep.intervals) == 2)


def _check_bound_fixtures(rng):
    b = bounds.BoundsInput(n=2, K=Fraction(100), C=Fraction(2), c_n=Fraction(1, 10))
    _expect(bounds.bound_T4(b) == 4)
    b2 = bounds.BoundsInput(n=2, K=Fraction(5), C=Fraction(2), c_n=Fraction(1))
    _expect(bounds.bound_T2(b2, 1) == 7)
    b5 = bounds.BoundsInput(n=3, K=Fraction(61), C=Fraction(1), c_n=Fraction(1))
    _expect(bounds.bound_T5(b5, 1, 1) == 2004)
    bc = bounds.BoundsInput(n=2, K=Fraction(9), C=Fraction(1), c_n=Fraction(1))
    _expect(bounds.bound_C1(bc, 1, 1) == 9)
