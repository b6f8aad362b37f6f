"""Every rank decision goes through algebra.kept_mask, which cuts each
block on the scale of its own largest value (algebra.rank_cutoff), so
every consumer implies the same rank for the same singular values.  The
frame verdict and completeness read the one mask on the eigenvalues of
the frame operator."""

import numpy as np
import pytest

import kgframes as kg
from kgframes.algebra import kept_mask

# a power of two, so the cutoff 4 * RT and its square root are exact and
# a value sitting on the cutoff stays on it through every decomposition
RT = 2.0**-34
AT = 4.0 * RT

# per-block singular values, descending; every nonzero block has top 4,
# so one cutoff holds on every block
CASES = {
    "at": ([[4.0, AT]], (1,)),
    "just_above": ([[4.0, AT * (1 + 1e-6)]], (2,)),
    "just_below": ([[4.0, AT * (1 - 1e-6)]], (1,)),
    "zero": ([[0.0, 0.0]], (0,)),
    "mixed_deficient": ([[4.0], [4.0, 2.0, AT * (1 + 1e-6)], [4.0, AT]], (1, 3, 1)),
    "mixed_full": ([[4.0], [4.0, 2.0, AT * (1 + 1e-6)], [4.0, 1.0]], (1, 3, 2)),
}


def _diagonal_operator(blocks) -> kg.ModuleOperator:
    shape = kg.AlgebraShape(tuple(len(b) for b in blocks))
    return kg.ModuleOperator(shape, 1, 1, [np.diag(b).astype(complex) for b in blocks])


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_consumer_implies_the_same_rank(name):
    blocks, ranks = CASES[name]
    full = all(r == len(b) for r, b in zip(ranks, blocks))
    op = _diagonal_operator(blocks)
    assert tuple(
        sum(x > kg.rank_cutoff(max(b), RT) for x in b) for b in blocks
    ) == ranks
    assert tuple(int(kept_mask(np.array(b), RT).sum()) for b in blocks) == ranks

    traces = tuple(
        int(round(np.trace(p).real)) for p in op.range_projection(RT).blocks
    )
    assert traces == ranks
    # the pseudoinverse inverts exactly the kept singular values
    kept = tuple(
        int(round(np.trace(b @ p).real))
        for b, p in zip(op.blocks, op.pinv(RT).blocks)
    )
    assert kept == ranks
    # a member with the square roots on its diagonal has a frame operator
    # with exactly these values as its eigenvalues
    root = _diagonal_operator([np.sqrt(b) for b in blocks])
    assert kg.optimal_g_bounds(kg.GFrame([root])).is_frame(RT) == full
    assert kg.is_g_complete(kg.GFrame([root]), rel_tol=RT) == full
    # F reaches only the weakest direction of each block, so T x -> F x is
    # well defined exactly when T keeps that direction
    f_op = _diagonal_operator([[0.0] * (len(b) - 1) + [0.5] for b in blocks])
    assert kg.quotient_bounded(f_op, op, rel_tol=RT).well_defined == full


def test_rank_cutoff_floors_a_vanishing_top():
    assert kg.rank_cutoff(2.0, 1e-10) == 2e-10
    assert kg.rank_cutoff(0.0, 1e-10) == 1e-10 * kg.RANK_FLOOR > 0.0
