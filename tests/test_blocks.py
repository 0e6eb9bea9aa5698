"""The bidegree blocks of [Lambda, iTheta(E)] read from theta (``hlab.blocks``):
they equal the operator engine's blocks, the Hodge star pairs them, and one
enclosure is certified per pair."""

import random
import re

import pytest

import hlab.blocks as blocks
from hlab.diagonal import commutator_norm
from hlab.errors import CertificateError
from hlab.fixtures import generic_curvature, rotated_split_curvature
from hlab.gaussian import CQ
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
            assert blocks.commutator_block(spec, p, q) == T.block(idxs, idxs), (p, q)


def _corrupt(monkeypatch, target):
    """Make commutator_block add 1 to the first diagonal entry of block
    ``target``, which keeps it Hermitian."""
    build = blocks.commutator_block

    def corrupted(spec, p, q):
        block = build(spec, p, q)
        if (p, q) == target:
            block[0][0] = block[0][0] + CQ(1)
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

    def counted(block, tol, symmetric=False):
        calls.append((len(block), symmetric))
        return certify(block, tol, symmetric)

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
            alone = blocks._hermitian_norm_enclosure(block, HERMITIAN_WIDTH)
            assert alone.lo <= got.table[(p, q)].hi and got.table[(p, q)].lo <= alone.hi, (p, q)
            if p + q == n:
                assert blocks._hermitian_norm_enclosure(block, HERMITIAN_WIDTH, symmetric=True) == alone
