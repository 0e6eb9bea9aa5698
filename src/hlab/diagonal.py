"""Diagonal line-bundle curvature, its commutator norm in closed form, and
the one choice of how C = |[Lambda, iTheta(E)]| is computed: diagonal
curvature here, a Hermitian line bundle in ``hlab.linebundle`` and
Hermitian curvature of rank r >= 2 in ``hlab.blocks``.

For iTheta(L) = i sum_j gamma_j xi_j ^ xibar_j the operator [iTheta(L), Lambda]
is diagonal on the monomial basis, with eigenvalue gamma_J + gamma_K - sum gamma
on xi_J ^ xibar_K, so C = |[Lambda, iTheta(L)]| and each C_{p,q} are exact
rationals got from sorted partial sums of the gammas, with no operator built.
The same closed form, at enclosures of the eigenvalues of theta, gives the
norm of a Hermitian line bundle (``hlab.linebundle``).  This module holds
that closed form and :func:`commutator_norm`, which sends each curvature to
its certificate, so ``commutator --gammas`` loads no operator engine and
no complex scalars; ``hlab.lefschetz`` re-exports :func:`commutator_norm`
and :func:`flatness_test`, which the benchmark tracer wraps there.  The
space rule ``check_space`` lives in ``hlab.literals``.  The ``curvature``
section of a document is read here too (:func:`read_curvature`), next to
the records it gives, and ``hlab commutator`` is handled here
(:func:`run_command`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Sequence, Union

from .errors import CertificateError, DocumentError
from .record import Interval, Record

if TYPE_CHECKING:
    from .hermitian import CurvatureSpec


class DiagonalCurvature(Record):
    """iTheta(L) = i sum_j gamma_j xi_j ^ xibar_j for a line bundle (r = 1).

    The record is its gammas and nothing else.  The bidegree blocks and the
    operator engine take ``HermitianCurvature``; ``hlab verify`` and the
    tests convert with ``hlab.fixtures.as_hermitian``."""

    gammas: tuple[Fraction, ...]

    def __post_init__(self):
        from .literals import check_space

        object.__setattr__(self, "gammas", tuple(Fraction(g) for g in self.gammas))
        check_space(self.n, 1)

    @property
    def n(self) -> int:
        return len(self.gammas)


class CommutatorNorm(Record):
    """The per-bidegree table C_{p,q} of |[Lambda, iTheta(E)]|, whose largest
    entry is C."""

    table: dict[tuple[int, int], Union[Fraction, Interval]]

    @property
    def value(self) -> Union[Fraction, Interval]:
        """C = max C_{p,q}: the largest entry, or for enclosures the one with
        the largest upper end."""
        return max(self.table.values(), key=lambda v: getattr(v, "hi", v))

    @property
    def exact(self) -> bool:
        """True when C comes from the diagonal closed form, whose entries are
        exact rationals; False for every Hermitian curvature, whose table
        holds enclosures even when they are degenerate (a report then
        prints C as one rational with ``exact`` false)."""
        return not isinstance(self.value, Interval)


def commutator_norm(spec: CurvatureSpec) -> CommutatorNorm:
    """Operator norm of [Lambda, iTheta(E)] and the C_{p,q} table.

    A diagonal spec takes the exact closed form (:func:`diagonal_norm`), and
    a Hermitian line bundle the same closed form at the eigenvalues of
    theta, enclosed to width at most HERMITIAN_WIDTH
    (``hlab.linebundle.line_bundle_norm``); neither builds an operator.
    Rank r >= 2 takes the bidegree blocks, read from theta
    (``hlab.blocks.block_commutator_norm``).  Each path imports its engine
    only when it runs, so a job loads only the one it runs.
    """
    if isinstance(spec, DiagonalCurvature):
        return diagonal_norm(spec)
    if spec.r == 1:
        from .linebundle import line_bundle_norm

        return line_bundle_norm(spec)
    from .blocks import block_commutator_norm

    return block_commutator_norm(spec)


def parse_gammas(values, path: str) -> DiagonalCurvature:
    """Diagonal curvature from a list of rational literals: ``curvature.gammas``
    in a document, or the ``--gammas`` flag split at its commas."""
    from .literals import _at, _rationals

    gammas = _rationals(values, path)
    with _at(path):
        return DiagonalCurvature(gammas)


def read_curvature(node) -> CurvatureSpec:
    """The ``curvature`` section of a document: diagonal ``gammas``, or the
    Hermitian curvature that ``hermitian.read_hermitian`` reads."""
    from .inputdoc import _object

    node = _object(node, "curvature", ("gammas", "hermitian"))
    if ("gammas" in node) == ("hermitian" in node):
        raise DocumentError("curvature needs one of 'gammas' and 'hermitian', not both or neither")
    if "gammas" in node:
        return parse_gammas(node["gammas"], "curvature.gammas")
    from .hermitian import read_hermitian

    return read_hermitian(node["hermitian"])


def run_command(args) -> tuple[dict, dict]:
    """``hlab commutator``: the curvature of ``--gammas`` or of the document;
    C, whether it is exact, the C_{p,q} table, and for diagonal curvature
    whether it is flat."""
    if args.gammas is None:
        from .inputdoc import load_input

        doc = load_input(args.input)
        inputs, spec = doc.raw, doc.require("curvature")
    elif args.input:
        raise DocumentError("--gammas and --input both give a curvature: give one")
    else:
        inputs, spec = {"gammas": args.gammas}, parse_gammas(args.gammas.split(","), "--gammas")
    norm = commutator_norm(spec)
    table = [{"p": p, "q": q, "value": v} for (p, q), v in sorted(norm.table.items())]
    results = {"C": norm.value, "exact": norm.exact, "C_pq": table}
    if isinstance(spec, DiagonalCurvature):
        results["flat"] = flatness_test(spec)
    return inputs, results


def _diagonal_table(
    gammas: Sequence[tuple[Fraction, Fraction]], total: Fraction
) -> dict[tuple[int, int], tuple[Fraction, Fraction]]:
    """C_{p,q} = max |gamma_J + gamma_K - total| over |J| = p, |K| = q, each
    as a rational (lo, hi), from the gammas' exact sum ``total`` and
    enclosures whose k-th holds the k-th smallest (lows may be unsorted).

    The eigenvalue is S_p + S_q - total for subset sums S, so its extremes
    are sums of extremes: the p largest and the p smallest gammas give max
    and min S_p, and the largest |x| on [min, max] sits at an end.  No 4^n
    enumeration.  S_n is ``total`` exactly, so a block that is identically
    zero (p = n, q = 0 and the reverse) encloses 0 as [0, 0]; every other
    entry is at most 2n times as wide as the widest gamma, and degenerate
    enclosures give exact ends.
    """
    n, zero = len(gammas), Fraction(0)
    los, his = [lo for lo, _ in gammas], [hi for _, hi in gammas]
    least = [(sum(los[:p], zero), sum(his[:p], zero)) for p in range(n)] + [(total, total)]
    most = [(sum(los[n - p :], zero), sum(his[n - p :], zero)) for p in range(n)] + [(total, total)]
    table = {}
    for p in range(n + 1):
        for q in range(n + 1):
            top = _abs(most[p][0] + most[q][0] - total, most[p][1] + most[q][1] - total)
            bottom = _abs(least[p][0] + least[q][0] - total, least[p][1] + least[q][1] - total)
            table[(p, q)] = (max(top[0], bottom[0]), max(top[1], bottom[1]))
    return table


def _abs(lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """The enclosure {|x| : lo <= x <= hi}."""
    if lo >= 0:
        return lo, hi
    if hi <= 0:
        return -hi, -lo
    return Fraction(0), max(-lo, hi)


def diagonal_norm(spec: DiagonalCurvature) -> CommutatorNorm:
    """The exact C and C_{p,q} table of a diagonal curvature: :func:`_diagonal_table`
    at the degenerate enclosures (gamma, gamma)."""
    ends = _diagonal_table([(g, g) for g in sorted(spec.gammas)], sum(spec.gammas, Fraction(0)))
    return CommutatorNorm({key: lo for key, (lo, _) in ends.items()})


def flatness_test(spec: DiagonalCurvature) -> bool:
    """C = 0 iff Theta(L) = 0; both sides are computed and cross-checked."""
    if not isinstance(spec, DiagonalCurvature):
        raise TypeError("flatness test applies to diagonal line-bundle curvature")
    c = diagonal_norm(spec).value
    flat = all(g == 0 for g in spec.gammas)
    if (c == 0) != flat:
        raise CertificateError("flatness lemma violated; closed-form C_pq table (_diagonal_table) bug")
    return c == 0
