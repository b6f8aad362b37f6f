"""Free Hilbert modules over a block matrix algebra.

A vector in the rank-d free module has d algebra components.  Per block
the components are kept side by side in one row stack of width n_k * d,
which is the form every operator acts on by right multiplication.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .algebra import (
    AlgebraElement,
    AlgebraShape,
    _Blocks,
    _check_same_shape,
    _largest,
    spectral_norms,
)
from .errors import ShapeMismatch


class ModuleVector(_Blocks):
    """Element of the rank-d free module, stored as per-block row stacks."""

    __slots__ = ()

    @staticmethod
    def _block_shape(n: int, rank: int) -> tuple[int, int]:
        return (n, n * rank)

    @property
    def rank(self) -> int:
        return self.dims[0]

    @property
    def stacks(self) -> tuple[np.ndarray, ...]:
        """The row stacks: the blocks, as one tuple."""
        return self.blocks

    @classmethod
    def from_components(
        cls, components: Sequence[AlgebraElement]
    ) -> "ModuleVector":
        if not components:
            raise ShapeMismatch("a vector needs at least one component")
        shape = components[0].shape
        for comp in components[1:]:
            _check_same_shape(shape, comp.shape)
        stacks = []
        for k, n in enumerate(shape):
            stacks.append(np.hstack([comp.blocks[k] for comp in components]))
        return cls(shape, len(components), stacks)

    @classmethod
    def basis_vector(cls, shape: AlgebraShape, rank: int, index: int) -> "ModuleVector":
        """Vector with the algebra identity in one component, zero elsewhere."""
        if not 0 <= index < rank:
            raise ShapeMismatch(f"component index {index} out of range for rank {rank}")
        stacks = []
        for n in shape:
            stack = np.zeros((n, n * rank), dtype=complex)
            stack[:, index * n : (index + 1) * n] = np.eye(n)
            stacks.append(stack)
        return cls(shape, rank, stacks)

    def component(self, i: int) -> AlgebraElement:
        if not 0 <= i < self.rank:
            raise ShapeMismatch(f"component index {i} out of range for rank {self.rank}")
        blocks = []
        for n, stack in zip(self.shape, self.stacks):
            blocks.append(stack[:, i * n : (i + 1) * n])
        return AlgebraElement(self.shape, blocks)

    def components(self) -> list[AlgebraElement]:
        return [self.component(i) for i in range(self.rank)]

    def __repr__(self) -> str:
        return f"ModuleVector(shape={self.shape.sizes}, rank={self.rank})"


def inner(x: ModuleVector, y: ModuleVector) -> AlgebraElement:
    """Algebra-valued inner product, linear in the first argument.

    Per block this is the row stack of x times the conjugate transpose of
    the row stack of y.  The fixed einsum reduction order makes
    inner(x, y)* == inner(y, x) hold exactly.
    """
    x._check_compatible(y)
    blocks = [
        np.einsum("ip,jp->ij", xs, ys.conj()) for xs, ys in zip(x.stacks, y.stacks)
    ]
    return AlgebraElement._fresh(x.shape, (), blocks)


def vector_seminorm(x: ModuleVector, k: int) -> float:
    """Induced seminorm: square root of the k-th seminorm of inner(x, x)."""
    return float(np.sqrt(inner(x, x).seminorm(k)))


def max_vector_seminorms(*xs: ModuleVector) -> tuple[float, ...]:
    """Largest induced seminorm over the blocks of every vector, from one
    kernel call for all their inner products; NaN for a vector with an
    infinite Gram block, wherever that block sits."""
    grams = [inner(x, x).blocks for x in xs]
    norms = spectral_norms([blk for blocks in grams for blk in blocks])
    out = []
    start = 0
    for blocks in grams:
        stop = start + len(blocks)
        out.append(_largest([float(np.sqrt(s)) for s in norms[start:stop]]))
        start = stop
    return tuple(out)
