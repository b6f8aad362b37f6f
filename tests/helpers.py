"""Shared constructions for the test suite.

The pinned example used throughout: one 1x1 matrix block, module rank 2,
three rank-one members with coefficient columns (1,0), (0,1), (1,1), and
the rank-one reference operator diag(1, 0).  Its frame operator is
[[2, 1], [1, 2]], the optimal frame bounds are (1, 3), and the optimal
lower scale relative to the reference is 3/2.
"""

from __future__ import annotations

import numpy as np

import kgframes as kg

# Shared sink for the acceptance verdict lines; conftest prints it at the
# end of the run so the one-line-per-criterion summary lands in the log.
acceptance_lines: list[str] = []


def single_block_shape() -> kg.AlgebraShape:
    return kg.AlgebraShape((1,))


def column_member(shape: kg.AlgebraShape, *coeffs: complex) -> kg.ModuleOperator:
    """Rank-one member of a module over 1x1 blocks: one coefficient column."""
    col = np.array([[c] for c in coeffs], dtype=complex)
    return kg.ModuleOperator(shape, len(coeffs), 1, [col])


def square_op(shape: kg.AlgebraShape, rows) -> kg.ModuleOperator:
    mat = np.array(rows, dtype=complex)
    return kg.ModuleOperator(shape, mat.shape[0], mat.shape[1], [mat])


def plain_inverse(op: kg.ModuleOperator) -> kg.ModuleOperator:
    """Blockwise np.linalg.inv, through the public constructor: a reference
    that shares no arithmetic with the library's pseudoinverse."""
    return kg.ModuleOperator(
        op.shape, *op.dims, [np.linalg.inv(b) for b in op.blocks]
    )


def pinned_example():
    """Frame with bounds (1, 3) and reference diag(1, 0) with lower scale 1.5."""
    shape = single_block_shape()
    frame = kg.GFrame(
        [
            column_member(shape, 1, 0),
            column_member(shape, 0, 1),
            column_member(shape, 1, 1),
        ]
    )
    k_op = square_op(shape, [[1, 0], [0, 0]])
    return shape, frame, k_op


def random_element(rng: np.random.Generator, shape: kg.AlgebraShape) -> kg.AlgebraElement:
    blocks = [
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for n in shape.sizes
    ]
    return kg.AlgebraElement(shape, blocks)


def hermitian_element(rng: np.random.Generator, shape: kg.AlgebraShape) -> kg.AlgebraElement:
    a = random_element(rng, shape)
    return kg.AlgebraElement(
        shape, [(b + b.conj().T) / 2 for b in a.blocks]
    )


def psd_element(rng: np.random.Generator, shape: kg.AlgebraShape) -> kg.AlgebraElement:
    a = random_element(rng, shape)
    return kg.AlgebraElement(shape, [b @ b.conj().T for b in a.blocks])
