"""Seeded input documents and job lists for the three workloads.

Every seeded document is a fixed base draw, conditioned on the hypotheses
of the commands that read it so every job expects exit code 0, presented in
a frame picked by ``seed % SEED_PERIOD``: generator signs for the formal
manifolds, a monomial unitary (a permutation with unit phases) of base and
fiber for the Hermitian curvature.  A change of frame changes every number
the program reads but none of the invariants it computes, nor the size of
any number it meets, so the work of a run, and with it the time, does not
depend on the seed: independent seeded draws differed by up to 1.75x in
cost (hermitian, in-process time over 16 seeds), more than the noise a run
may have.  The inputs repeat with period ``SEED_PERIOD`` in the seed
because the answer of every job is stored for each residue
(``answers.json``); a seed outside the stored range still gets a checked
answer.

Conditioning uses the library under test (``hlab.genus``, ``hlab.bounds``),
the way the test suite's seeded fixtures do.  The sha256 of every document is
stored next to the answers, so a change in a generator, or in a library
function it leans on, shows up as a failed run instead of silently new
inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import ceil, comb, factorial, lcm

SEED_PERIOD = 16

WORKLOADS = ("hrr", "kahler", "hermitian")

# Run time budgeted per pass.  A run makes floor(seconds / budget) passes,
# at least one: fixed by --seconds rather than by the clock, so both sides
# of a comparison time the same jobs and the median and tail are the same
# sample ranks.  At 30 s: one hrr pass (about 20 s), six kahler passes
# (about 4 s each) and three hermitian passes (about 7 s each) on a 2-core
# x86 container with Python 3.11, when the host is not loaded; a loaded
# host has taken up to 1.6 times as long.
#
# Left out: ``ineq`` on the rank-2 manifold with n = 5 (6.5 s alone) and
# ``lefschetz-check`` for n = 5 (5 s alone at r = 1, 7-13 s at r = 2).  A
# job that long is normalized for host speed only by the calibrations at its
# two ends, while host speed drifts within ten seconds.
PASS_BUDGET_S = {"hrr": 30.0, "kahler": 5.0, "hermitian": 10.0}


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``hlab <argv>`` with ``{doc}`` naming a document."""

    id: str
    argv: tuple[str, ...]
    doc: str | None = None
    seeded: bool = True
    oracle: tuple = ()


@dataclass
class Workload:
    docs: dict[str, dict] = field(default_factory=dict)
    jobs: list[Job] = field(default_factory=list)


def build(workload: str, seed: int) -> Workload:
    """Documents and job list of one workload for one seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    key = seed % SEED_PERIOD
    return {"hrr": _hrr, "kahler": _kahler, "hermitian": _hermitian}[workload](key)


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


# -- expressions over generator alphabets --------------------------------------


def _weight_keys(weights, weight, prefix=(), start=0):
    if start == len(weights):
        if weight == 0:
            yield prefix
        return
    for e in range(weight // weights[start] + 1):
        yield from _weight_keys(weights, weight - e * weights[start], prefix + (e,), start + 1)


def _monomial(names, exps) -> str:
    parts = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e]
    return "*".join(parts) if parts else "1"


def _expression(names, terms: dict) -> str:
    out = []
    for exps, c in sorted(terms.items()):
        mono = _monomial(names, exps)
        mag = abs(c)
        text = mono if mag == 1 else f"{mag}*{mono}"
        out.append(("- " if c < 0 else "+ ") + text)
    if not out:
        return "0"
    first = out[0]
    return " ".join([("-" + first[2:]) if first.startswith("-") else first[2:]] + out[1:])


def _nonzero(rng, top: int) -> int:
    return rng.choice((-1, 1)) * rng.randint(1, top)


def _random_homogeneous(rng, weights, weight, signs) -> dict:
    # every monomial gets a nonzero coefficient, so the number of terms, and
    # with it the cost of a ring product, does not depend on the draw
    return {
        key: Fraction(_nonzero(rng, 6), rng.randint(1, 4)) * _sign(signs, key)
        for key in _weight_keys(weights, weight)
    }


def _sign(signs, exps) -> int:
    """The factor a monomial picks up under the automorphism g -> signs[g] g."""
    out = 1
    for s, e in zip(signs, exps):
        out *= s**e
    return out


# -- hrr --------------------------------------------------------------------------


def cp_document(n: int) -> dict:
    """Projective space CP^n with O(1): c(TX) = (1+h)^{n+1}, int h^n = 1."""
    chern = {}
    for i in range(1, n + 1):
        mono = "h" if i == 1 else f"h^{i}"
        coeff = comb(n + 1, i)
        chern[f"c{i}"] = mono if coeff == 1 else f"{coeff}*{mono}"
    return {
        "ring": {"generators": [{"name": "h", "weight": 1}], "dimension": n},
        "manifold": {"chern": chern},
        "bundle": {"rank": 1, "chern": {}},
        "fundamental_class": {("h" if n == 1 else f"h^{n}"): "1"},
        "line_bundle": {"c1": "h"},
    }


def _bounds_section(rng, doc: dict, p: int, etheta: bool) -> dict:
    """Bound parameters meeting the hypotheses of t5, c1, t4chain (and etheta).

    c1 needs c_n K >= C * C^{+-}; etheta needs (-1)^n chi > n and its lower
    endpoint below its upper one, i.e. c_n K <= n^2 C ((-1)^n chi - n).
    """
    from hlab import bounds, genus
    from hlab.inputdoc import load_document

    loaded = load_document(doc)
    x, line, n = loaded.manifold, loaded.line_bundle, loaded.manifold.n
    chi = genus.chi_y(x, genus.BundleData.trivial())
    P = genus.hilbert_polynomial(x, line, p)
    if P.degree < 1:
        raise _Redraw("constant p-Hilbert polynomial")
    rr = bounds.root_report(P, chi.coefficient(p))
    low = ceil(max(rr.c_plus, rr.c_minus))
    C = Fraction(rng.randint(1, 9), rng.randint(1, 3))
    c_n = Fraction(1, rng.randint(2, 12))
    if etheta:
        signed = (-1) ** n * chi(-1)
        if signed <= n:
            raise _Redraw("(-1)^n chi <= n")
        high = int(n * n * (signed - n))
        if high <= low + 2:
            raise _Redraw("no room between the c1 and etheta hypotheses")
        ratio = low + 1 + Fraction(rng.randint(0, 4 * (high - low - 2)), 4)
    else:
        ratio = low + 1 + Fraction(rng.randint(0, 8 * n), 4)
    K = ratio * C / c_n
    return {"K": str(K), "C": str(C), "c_n": str(c_n), "p": p}


class _Redraw(Exception):
    """The draw misses a command's hypothesis; draw again."""


def _conditioned(make, *parts):
    for attempt in range(100):
        try:
            return make(_rng(*parts, attempt))
        except _Redraw:
            continue
    raise RuntimeError(f"no admissible draw for {parts}")


def _formal_manifold(rng, n: int, bundle_rank: int, line_bundle: bool, signs) -> dict:
    """Random Chern data with integral chi^p, like the test suite's fixtures.

    Generators x1..xn (weight i) and y1..yr (weight j), presented after the
    ring automorphism that multiplies generator k by ``signs[k]`` (+-1): the
    Chern classes and the fundamental class are both transformed, so every
    Chern number, and every answer, is that of ``signs = (1, ..., 1)``.
    ``signs`` draws nothing from ``rng``.  The fundamental
    class is rescaled by the lcm of the denominators of every integral the
    commands take: chi^p(X, E) for all p, and for a line bundle L also
    chi^1(X, L^m) for m = 0..n, which makes the 1-Hilbert polynomial
    integer-valued.
    """
    from hlab import genus
    from hlab.inputdoc import load_document

    gens = [(f"x{i}", i) for i in range(1, n + 1)] + [(f"y{j}", j) for j in range(1, bundle_rank + 1)]
    names = [g for g, _ in gens]
    weights = [w for _, w in gens]
    chern = {f"c{i}": _expression(names, _random_homogeneous(rng, weights, i, signs)) for i in range(1, n + 1)}
    ce = {
        f"c{j}": _expression(names, _random_homogeneous(rng, weights, j, signs))
        for j in range(1, bundle_rank + 1)
    }
    # int phi(m) = int m, and phi(m) = sign(m) m
    fclass = {_monomial(names, k): rng.randint(-5, 5) * _sign(signs, k) for k in _weight_keys(weights, n)}
    doc = {
        "ring": {"generators": [{"name": g, "weight": w} for g, w in gens], "dimension": n},
        "manifold": {"chern": chern},
        "fundamental_class": {k: str(v) for k, v in fclass.items()},
    }
    if line_bundle:
        doc["line_bundle"] = {"c1": ce["c1"]}
    else:
        doc["bundle"] = {"rank": bundle_rank, "chern": ce}
    loaded = load_document(doc)
    x = loaded.manifold
    td = genus.todd_class(x)
    hodge = [td * genus.ch_hodge_sheaf(x, p) for p in range(n + 1)]
    integrals = []
    if line_bundle:
        integrals += [genus.integrate(h, x.fclass) for h in hodge]
        for m in range(1, n + 1):
            ch = genus.chern_character(genus.bundle_power(loaded.line_bundle, m), x.spec, n)
            integrals.append(genus.integrate(hodge[1] * ch, x.fclass))
    else:
        ch = genus.chern_character(loaded.bundle, x.spec, n)
        integrals += [genus.integrate(h * ch, x.fclass) for h in hodge]
    scale = 1
    for value in integrals:
        scale = lcm(scale, value.denominator)
    if all(v == 0 for v in integrals):
        raise _Redraw("all Euler characteristics vanish")
    doc["fundamental_class"] = {k: str(v * scale) for k, v in fclass.items()}
    return doc


def _signs(key: int, name: str, count: int) -> tuple[int, ...]:
    rng = _rng("hrr", key, name, "frame")
    return tuple(rng.choice((-1, 1)) for _ in range(count))


def _hrr(key: int) -> Workload:
    w = Workload()
    for n in (4, 8, 12):
        name = f"cp{n}"
        doc = cp_document(n)
        doc["bounds"] = _conditioned(
            lambda rng: _bounds_section(rng, doc, 0, etheta=True), "hrr", key, name
        )
        w.docs[name] = doc
        cp = ("cp", n)
        w.jobs += [
            Job(f"{name}:genus", ("genus",), name, False, cp),
            Job(f"{name}:kcoeffs", ("kcoeffs",), name, False, ("k1",)),
            Job(f"{name}:hilbert-p0", ("hilbert", "--p", "0"), name, False, ("cp_hilbert0", n)),
            Job(f"{name}:hilbert-p{n // 2}", ("hilbert", "--p", str(n // 2)), name, False),
        ]
    w.jobs += [
        Job("cp4:ineq", ("ineq",), "cp4", False),
        Job("cp8:ineq", ("ineq",), "cp8", False),
        Job("cp12:ineq-j6", ("ineq", "--j", "6"), "cp12", False),
    ]
    for n in (4, 8):
        for which in ("t5", "c1", "t4chain", "etheta"):
            w.jobs.append(Job(f"cp{n}:bounds-{which}", ("bounds", "--which", which), f"cp{n}"))
    for n in (3, 4, 5):
        name = f"rank2-n{n}"
        signs = _signs(key, name, n + 2)
        w.docs[name] = _conditioned(lambda rng: _formal_manifold(rng, n, 2, False, signs), "hrr", 0, name)
        w.jobs += [
            Job(f"{name}:genus", ("genus",), name),
            Job(f"{name}:kcoeffs", ("kcoeffs",), name, oracle=("k1",)),
        ]
        if n < 5:
            w.jobs.append(Job(f"{name}:ineq", ("ineq",), name))
    for n in (3, 4, 5):
        name = f"line-n{n}"

        def make(rng, n=n, signs=_signs(key, name, n + 1)):
            doc = _formal_manifold(rng, n, 1, True, signs)
            doc["bounds"] = _bounds_section(rng, doc, 1, etheta=False)
            return doc

        # the base draw is that of seed 0; the seed picks the signs
        w.docs[name] = _conditioned(make, "hrr", 0, name)
        w.jobs.append(Job(f"{name}:hilbert-p1", ("hilbert", "--p", "1"), name))
        for which in ("t5", "c1", "t4chain"):
            w.jobs.append(Job(f"{name}:bounds-{which}", ("bounds", "--which", which), name))
    return w


# -- kahler -----------------------------------------------------------------------


def _kahler(key: int) -> Workload:
    w = Workload()
    for n, r in ((3, 2), (3, 3), (4, 1), (4, 2)):
        w.jobs.append(
            Job(
                f"lefschetz-n{n}-r{r}",
                ("lefschetz-check", "--n", str(n), "--r", str(r)),
                None,
                False,
                ("lefschetz", n, r),
            )
        )
    for length in (4, 5, 6):
        rng = _rng("kahler", key, f"gammas{length}")
        gammas = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(length))
        text = ",".join(str(g) for g in gammas)
        # the "=" form keeps argparse from reading a leading "-" as an option
        w.jobs.append(Job(f"gammas-{length}", ("commutator", f"--gammas={text}"), None, True, ("diagonal", gammas)))
    return w


# -- hermitian --------------------------------------------------------------------
# Gaussian rationals are (re, im) pairs of Fractions.


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _cadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _cconj(a):
    return (a[0], -a[1])


def _cinv(a):
    d = a[0] * a[0] + a[1] * a[1]
    return (a[0] / d, -a[1] / d)


_ZERO = (Fraction(0), Fraction(0))
_ONE = (Fraction(1), Fraction(0))


def _matmul(A, B):
    return [
        [
            _sum(_cmul(A[i][t], B[t][j]) for t in range(len(B)))
            for j in range(len(B[0]))
        ]
        for i in range(len(A))
    ]


def _sum(values):
    acc = _ZERO
    for v in values:
        acc = _cadd(acc, v)
    return acc


def _adjoint(A):
    return [[_cconj(A[j][i]) for j in range(len(A))] for i in range(len(A[0]))]


def _inverse(A):
    """Gauss-Jordan inverse over Q(i)."""
    d = len(A)
    M = [list(row) + [_ONE if i == j else _ZERO for j in range(d)] for i, row in enumerate(A)]
    for col in range(d):
        piv = next(i for i in range(col, d) if M[i][col] != _ZERO)
        M[col], M[piv] = M[piv], M[col]
        inv = _cinv(M[col][col])
        M[col] = [_cmul(inv, v) for v in M[col]]
        for i in range(d):
            if i != col and M[i][col] != _ZERO:
                f = M[i][col]
                M[i] = [_cadd(v, _cmul((-f[0], -f[1]), w)) for v, w in zip(M[i], M[col])]
    return [row[d:] for row in M]


def _cayley_unitary(rng, d: int):
    """(I - A)(I + A)^{-1} for a seeded Gaussian-rational skew-Hermitian A."""
    A = [[_ZERO] * d for _ in range(d)]
    for i in range(d):
        A[i][i] = (Fraction(0), Fraction(_nonzero(rng, 2), 2))
        for j in range(i + 1, d):
            z = (Fraction(_nonzero(rng, 2), 2), Fraction(_nonzero(rng, 2), 2))
            A[i][j] = z
            A[j][i] = (-z[0], z[1])
    eye = [[_ONE if i == j else _ZERO for j in range(d)] for i in range(d)]
    minus = [[_cadd(eye[i][j], (-A[i][j][0], -A[i][j][1])) for j in range(d)] for i in range(d)]
    plus = [[_cadd(eye[i][j], A[i][j]) for j in range(d)] for i in range(d)]
    return _matmul(minus, _inverse(plus))


def _theta_tree(H, n: int, r: int):
    """Split the (nr x nr) matrix H into theta[j][k][a][b] = H[(j,a),(k,b)]."""

    def entry(z):
        return [str(z[0]), str(z[1])]

    return [
        [[[entry(H[j * r + a][k * r + b]) for b in range(r)] for a in range(r)] for k in range(n)]
        for j in range(n)
    ]


def _generic_theta(rng, n: int, r: int):
    d = n * r
    H = [[_ZERO] * d for _ in range(d)]
    for i in range(d):
        H[i][i] = (Fraction(_nonzero(rng, 6), 2), Fraction(0))
        for j in range(i + 1, d):
            z = (Fraction(_nonzero(rng, 4), 2), Fraction(_nonzero(rng, 4), 2))
            H[i][j] = z
            H[j][i] = _cconj(z)
    return H


def _rotated_theta(rng, n: int, r: int):
    """theta = V diag(gamma) V* with V = U (x) W: a split bundle in rotated frames.

    Returns the matrix and gamma[j][s], the curvature of fiber slot s along
    base direction j before the rotation.
    """
    gamma = [[Fraction(rng.randint(-3, 3)) for _ in range(r)] for _ in range(n)]
    if all(g == 0 for row in gamma for g in row):
        gamma[0][0] = Fraction(1)
    U = _cayley_unitary(rng, n)
    W = _cayley_unitary(rng, r)
    d = n * r
    V = _kron(U, W)
    D = [[(gamma[i // r][i % r], Fraction(0)) if i == l else _ZERO for l in range(d)] for i in range(d)]
    return _matmul(_matmul(V, D), _adjoint(V)), gamma


def diagonal_table(gammas) -> dict[tuple[int, int], Fraction]:
    """C_{p,q} of a diagonal line bundle: max |gamma_J + gamma_K - sum gamma|."""
    n = len(gammas)
    total = sum(gammas, Fraction(0))
    sums = {p: [sum((gammas[j] for j in J), Fraction(0)) for J in combinations(range(n), p)] for p in range(n + 1)}
    return {
        (p, q): max(abs(a + b - total) for a in sums[p] for b in sums[q])
        for p in range(n + 1)
        for q in range(n + 1)
    }


def _split_table(gamma) -> dict[tuple[int, int], Fraction]:
    """C_{p,q} of a direct sum of line bundles: the maximum over fiber slots."""
    r = len(gamma[0])
    tables = [diagonal_table([row[s] for row in gamma]) for s in range(r)]
    return {pq: max(t[pq] for t in tables) for pq in tables[0]}


def _monomial_unitary(rng, d: int):
    """A permutation matrix with each 1 replaced by a phase in {1, i, -1, -i}."""
    perm = list(range(d))
    rng.shuffle(perm)
    units = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0)), (Fraction(0), Fraction(-1)))
    M = [[_ZERO] * d for _ in range(d)]
    for i in range(d):
        M[i][perm[i]] = rng.choice(units)
    return M


def _kron(U, W):
    """U (x) W, indexed as (j, a) -> j * len(W) + a like ``_theta_tree``."""
    return [[_cmul(U[j][k], W[a][b]) for k in range(len(U)) for b in range(len(W))] for j in range(len(U)) for a in range(len(W))]


def _hermitian(key: int) -> Workload:
    """The base draw is that of seed 0; the seed picks a frame Q = P (x) S of
    base and fiber, both monomial unitaries, and the document holds
    Q H Q*.  A unitary change of frame on the base and on E leaves
    ``||[Lambda, i Theta]||`` and every C_pq unchanged, and a monomial one only
    permutes the entries and multiplies them by units, so the program meets
    numbers of the same size for every seed."""
    w = Workload()
    for family in ("generic", "rotated"):
        for n, r in ((2, 1), (2, 2), (2, 3), (3, 1)):
            name = f"{family}-n{n}-r{r}"
            rng = _rng("hermitian", 0, name)
            if family == "generic":
                H, oracle = _generic_theta(rng, n, r), ()
            else:
                H, gamma = _rotated_theta(rng, n, r)
                oracle = ("split", _split_table(gamma))
            frame = _rng("hermitian", key, name, "frame")
            Q = _kron(_monomial_unitary(frame, n), _monomial_unitary(frame, r))
            H = _matmul(_matmul(Q, H), _adjoint(Q))
            w.docs[name] = {"curvature": {"hermitian": {"theta": _theta_tree(H, n, r)}}}
            w.jobs.append(Job(f"{name}:commutator", ("commutator",), name, True, oracle))
    return w


def lefschetz_powers(n: int) -> list[dict]:
    """Closed forms for L^{n-k}: bijective, sigma_min = (n-k)!,
    sigma_max = (n-k+floor(k/2))!/floor(k/2)!."""
    return [
        {
            "k": k,
            "bijective": True,
            "sigma_min": str(factorial(n - k)),
            "sigma_max": str(Fraction(factorial(n - k + k // 2), factorial(k // 2))),
        }
        for k in range(n + 1)
    ]


def binomial_hilbert(n: int) -> list[str]:
    """Coefficients (in m) of C(m+n, n), the Hilbert polynomial of O(1) on CP^n."""
    coeffs = [Fraction(1)]
    for i in range(1, n + 1):  # multiply by (m + i)
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k] += c * i
            nxt[k + 1] += c
        coeffs = nxt
    return [str(c / factorial(n)) for c in coeffs]
