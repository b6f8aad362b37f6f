"""Free Hilbert modules over a block matrix algebra.

A vector in the rank-d free module has d algebra components.  Per block
the components are kept side by side in one row stack of width n_k * d,
which is the form every operator acts on by right multiplication.

Public construction copies the stacks into read-only complex arrays;
module arithmetic, operator images and inner products adopt their fresh
results in place (`algebra._adopt`) and skip the copy.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .algebra import (
    AlgebraElement,
    AlgebraShape,
    _adopt,
    _check_same_shape,
    _freeze,
    spectral_norms,
)
from .errors import ShapeMismatch


class ModuleVector:
    """Element of the rank-d free module, stored as per-block row stacks."""

    __slots__ = ("shape", "rank", "stacks")

    def __init__(self, shape: AlgebraShape, rank: int, stacks: Iterable[np.ndarray]):
        rank = int(rank)
        if rank < 1:
            raise ShapeMismatch(f"module rank must be positive, got {rank}")
        stacks = tuple(_freeze(s) for s in stacks)
        if len(stacks) != shape.block_count:
            raise ShapeMismatch(
                f"expected {shape.block_count} stacks, got {len(stacks)}"
            )
        for n, stack in zip(shape, stacks):
            if stack.shape != (n, n * rank):
                raise ShapeMismatch(
                    f"stack shaped {stack.shape}, expected ({n}, {n * rank})"
                )
        self.shape = shape
        self.rank = rank
        self.stacks = stacks

    @classmethod
    def _fresh(
        cls, shape: AlgebraShape, rank: int, stacks: Iterable[np.ndarray]
    ) -> "ModuleVector":
        """Trusted constructor for freshly computed stacks of the right
        shapes: adopted in place, neither copied nor checked."""
        out = cls.__new__(cls)
        out.shape = shape
        out.rank = rank
        out.stacks = _adopt(stacks)
        return out

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
    def zero(cls, shape: AlgebraShape, rank: int) -> "ModuleVector":
        return cls(shape, rank, [np.zeros((n, n * rank), dtype=complex) for n in shape])

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

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        self._check_compatible(other)
        return ModuleVector._fresh(
            self.shape, self.rank, [a + b for a, b in zip(self.stacks, other.stacks)]
        )

    def __sub__(self, other: "ModuleVector") -> "ModuleVector":
        self._check_compatible(other)
        return ModuleVector._fresh(
            self.shape, self.rank, [a - b for a, b in zip(self.stacks, other.stacks)]
        )

    def scale(self, c: complex) -> "ModuleVector":
        return ModuleVector._fresh(self.shape, self.rank, [c * s for s in self.stacks])

    def left_mul(self, a: AlgebraElement) -> "ModuleVector":
        """Module action: multiply every component by a on the left."""
        _check_same_shape(self.shape, a.shape)
        return ModuleVector._fresh(
            self.shape, self.rank, [blk @ s for blk, s in zip(a.blocks, self.stacks)]
        )

    def _check_compatible(self, other: "ModuleVector") -> None:
        _check_same_shape(self.shape, other.shape)
        if self.rank != other.rank:
            raise ShapeMismatch(f"module ranks differ: {self.rank} vs {other.rank}")

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
    return AlgebraElement._fresh(x.shape, blocks)


def vector_seminorm(x: ModuleVector, k: int) -> float:
    """Induced seminorm: square root of the k-th seminorm of inner(x, x)."""
    return float(np.sqrt(inner(x, x).seminorm(k)))


def max_vector_seminorms(*xs: ModuleVector) -> tuple[float, ...]:
    """Largest induced seminorm over the blocks of every vector, from one
    kernel call for all their inner products."""
    grams = [inner(x, x).blocks for x in xs]
    norms = spectral_norms([blk for blocks in grams for blk in blocks])
    out = []
    start = 0
    for blocks in grams:
        stop = start + len(blocks)
        out.append(max(float(np.sqrt(s)) for s in norms[start:stop]))
        start = stop
    return tuple(out)
