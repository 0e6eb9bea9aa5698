"""The bidegree blocks of [Lambda, iTheta(E)] read from theta (``hlab.blocks``):
they equal the operator engine's blocks, the Hodge star pairs them, and one
enclosure is certified per pair.  Theta and the blocks are Gaussian integers
over one scale, and both Hermitian checks on them (the record's and the
certificate's) refuse a fault in the imaginary part alone."""

import random
import re
from pathlib import Path

import pytest
from conftest import gaussian_rationals

import hlab.blocks as blocks
import hlab.hermitian as hermitian
from hlab.diagonal import commutator_norm
from hlab.errors import CertificateError
from hlab.fixtures import generic_curvature, rotated_split_curvature
from hlab.hermitian import HERMITIAN_WIDTH
from hlab.lefschetz import curvature_operator, get_basis, op_Lambda

SPACES = [(n, r) for n in (1, 2, 3) for r in (1, 2, 3)] + [(4, 2)]


@pytest.mark.parametrize("n,r", SPACES, ids=[f"n{n}-r{r}" for n, r in SPACES])
def test_blocks_from_theta_equal_the_operator_engine_blocks(n, r):
    rng = random.Random(100 * n + r)
    specs = [generic_curvature(rng, n, r)]
    if n < 4:
        specs.append(rotated_split_curvature(rng, n, r)[0])
    for spec in specs:
        T = op_Lambda(n, r).commutator(curvature_operator(spec))
        for (p, q), idxs in get_basis(n, r).by_bidegree.items():
            assert gaussian_rationals(blocks.commutator_block(spec, p, q)) == T.block(idxs, idxs), (p, q)


def _corrupt(monkeypatch, target):
    """Make commutator_block add 1 to the first diagonal entry of block
    ``target``, which keeps it Hermitian."""
    build = blocks.commutator_block

    def corrupted(spec, p, q):
        block = build(spec, p, q)
        if (p, q) == target:
            scale, re, _ = block
            re[0][0] += scale
        return block

    monkeypatch.setattr(blocks, "commutator_block", corrupted)


@pytest.mark.parametrize(
    "target,pair", [((2, 1), "(1, 0) and (2, 1)"), ((1, 1), "(1, 1) and (1, 1)")], ids=["partner", "self-paired"]
)
def test_a_corrupted_partner_block_is_refused(monkeypatch, target, pair):
    # at n = 2 the star pairs (1, 0) with (2, 1), and (1, 1) with itself
    spec = generic_curvature(random.Random(5), 2, 2)
    _corrupt(monkeypatch, target)
    with pytest.raises(CertificateError, match=re.escape(f"star does not pair the blocks {pair}")):
        commutator_norm(spec)


def test_one_enclosure_is_certified_per_star_pair(monkeypatch):
    # (n + 1)^2 blocks: n + 1 have p + q = n and are their own partners, the
    # rest pair up, so (n + 1)(n + 2) / 2 enclosures; only the self-paired
    # ones are certified as symmetric
    calls = []
    certify = blocks._hermitian_norm_enclosure

    def counted(block, symmetric=False):
        calls.append((len(block), symmetric))
        return certify(block, symmetric)

    monkeypatch.setattr(blocks, "_hermitian_norm_enclosure", counted)
    n, r = 3, 2
    got = commutator_norm(generic_curvature(random.Random(9), n, r))
    assert len(calls) == (n + 1) * (n + 2) // 2
    assert sum(symmetric for _, symmetric in calls) == n + 1
    for (p, q), iv in got.table.items():
        assert got.table[(n - q, n - p)] == iv
        assert iv.width <= HERMITIAN_WIDTH
    assert list(got.table) == sorted(got.table)


@pytest.mark.parametrize("n,r", [(2, 2), (3, 2), (2, 3)])
def test_paired_and_symmetric_enclosures_match_certifying_each_block(n, r):
    # the shared enclosure is the one the partner block gets on its own, and
    # one definiteness test per end gives what two give on p + q = n
    spec = generic_curvature(random.Random(n * r), n, r)
    got = blocks.block_commutator_norm(spec)
    for p in range(n + 1):
        for q in range(n + 1):
            block = blocks.commutator_block(spec, p, q)
            alone = blocks._hermitian_norm_enclosure(block)
            assert alone.lo <= got.table[(p, q)].hi and got.table[(p, q)].lo <= alone.hi, (p, q)
            if p + q == n:
                assert blocks._hermitian_norm_enclosure(block, symmetric=True) == alone


# Matrices that are Hermitian in their real part only: the imaginary part is
# symmetric, or has a nonzero diagonal entry.
RE = [[1, 2], [2, 3]]
NOT_HERMITIAN = {"symmetric Im": [[0, 1], [1, 0]], "Im on the diagonal": [[1, 0], [0, 0]]}


def _admitted() -> list[str]:
    """The matrices of NOT_HERMITIAN that the certificate of
    ``hlab.hermitian`` or its record lets through; the record reads each as
    the theta of n = 2, r = 1 and of n = 1, r = 2."""
    found = []
    for name, im in NOT_HERMITIAN.items():
        try:
            hermitian.integer_parts((1, RE, im))
            found.append(f"certificate: {name}")
        except CertificateError:
            pass
        entries = [list(zip(row_re, row_im)) for row_re, row_im in zip(RE, im)]
        for theta in ([[[[z]] for z in row] for row in entries], [[entries]]):
            try:
                hermitian.HermitianCurvature(theta)
                found.append(f"record, r = {len(theta[0][0])}: {name}")
            except ValueError as exc:
                assert "is not the adjoint" in str(exc)
    return found


def test_the_hermitian_checks_refuse_a_fault_in_the_imaginary_part():
    assert _admitted() == []


# Planted faults that ``hlab verify`` cannot see, since every matrix it draws
# is Hermitian: a one-line edit to ``hlab.hermitian``, run in place of the
# module, that skips the antisymmetry of the imaginary part, in the
# certificate or in the record.  Each must let an input of the test above
# through.
HERMITIAN_FAULTS = {
    "certificate": ("row_re[j] != re[j][i] or row_im[j] != -im[j][i]", "row_re[j] != re[j][i]"),
    "record": ("if theta[k][j][b][a] != (x, -y):", "if theta[k][j][b][a][0] != x:"),
}


@pytest.mark.parametrize("old,new", list(HERMITIAN_FAULTS.values()), ids=list(HERMITIAN_FAULTS))
def test_a_hermitian_check_that_skips_the_imaginary_part_is_caught(monkeypatch, old, new):
    source = Path(hermitian.__file__).read_text()
    assert source.count(old) == 1
    mutant = {"__name__": hermitian.__name__, "__package__": "hlab"}
    exec(compile(source.replace(old, new), hermitian.__file__, "exec"), mutant)
    for name in ("integer_parts", "HermitianCurvature"):
        monkeypatch.setattr(hermitian, name, mutant[name])
    assert _admitted()
