"""Finite direct sums of complex matrix blocks and their C*-seminorms.

An algebra element is one square complex matrix per block.  The k-th
seminorm is the spectral norm of the k-th block; positivity and the
induced order are decided blockwise with relative tolerances.

Every numerical decision of the package has its rule here.  A rank
decision keeps a singular value (or eigenvalue) above `rank_cutoff`.  A
threshold verdict (positivity, the Hermitian test, the leak out of a
range, a dual, tightness or factor residual) passes when its residual
is at most `slack(tol, scale) = tol * (1 + scale)`, the scale being the
norm of the operand the residual is measured against.  Three decisions
take their tolerance as a parameter: the rank cutoff (`rel_tol`), the
order test (`tol_psd`) and operator identities (`tol_eq`).  Every other
threshold is a module constant, such as `TOL_HERM` for the Hermitian
test and `INCLUSION_TOL` for the floor of the K-pencil's range-inclusion
test.

Blocks are small, so a LAPACK call costs more in overhead than in flops.
The decomposition kernels here take many matrices at once and make one
stacked call per shape and dtype; LAPACK still runs on each matrix of
the stack alone, so every result is bitwise that of a single call.  A
group of matrices that are all zero makes no call: its singular values,
and so its spectral norms, are 0.0, which is what LAPACK returns for
them.

Public construction of an element copies its blocks into read-only
complex C-ordered arrays.  Arithmetic results are fresh arrays of that
kind already, so they are adopted through `_adopt`: frozen in place,
with no copy and no check.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Number
from typing import Iterable, Sequence

import numpy as np

from .errors import ShapeMismatch

TOL_PSD = 1e-9
TOL_HERM = 1e-10
TOL_RANK = 1e-10
# The pencil's range-inclusion tolerance (`operators.pencil_over_spectrum`):
# fixed, so an absolute floor that an M small enough slips under.
INCLUSION_TOL = 1e-12

# Stands in for a vanishing top singular value or eigenvalue, so a zero
# block keeps a positive cutoff and retains nothing.
RANK_FLOOR = 1e-300


def rank_cutoff(top: float, rel_tol: float) -> float:
    """The one rank cutoff: a singular value (or eigenvalue) counts toward
    the numerical rank when it exceeds rel_tol times the largest one,
    floored at RANK_FLOOR."""
    return rel_tol * max(top, RANK_FLOOR)


def slack(tol: float, scale: float) -> float:
    """The one residual gate: a residual measured against an operand of
    norm `scale` passes when it is at most this."""
    return tol * (1.0 + scale)


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex, copy=True, order="C")
    out.flags.writeable = False
    return out


def _adopt(arrays: Iterable[np.ndarray]) -> tuple[np.ndarray, ...]:
    """Freeze freshly computed arrays in place, without a copy.

    Only for complex C-ordered arrays that nothing else references: what
    `_freeze` would have copied them into, bitwise.
    """
    arrays = tuple(arrays)
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # einsum keeps one fixed reduction order, so (a*b)* == b* a* holds bitwise
    return np.einsum("ik,kj->ij", a, b)


def _each(decompose, mats: Sequence[np.ndarray]) -> list:
    """Per-matrix results of `decompose`, in input order, from one stacked
    call per group of matrices sharing shape and dtype."""
    groups: dict[tuple, list[int]] = {}
    for i, mat in enumerate(mats):
        groups.setdefault((mat.shape, mat.dtype), []).append(i)
    out: list = [None] * len(mats)
    for idx in groups.values():
        for i, result in zip(idx, decompose(np.array([mats[i] for i in idx]))):
            out[i] = result
    return out


def singular_values_each(mats: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Descending singular values of every matrix, in input order, each
    bitwise what np.linalg.svd(mat, compute_uv=False) returns.

    A group that is all zero (or has no entries) skips LAPACK: its values
    are zeros, which is what LAPACK returns for it.
    """

    def decompose(stack: np.ndarray) -> np.ndarray:
        if not np.count_nonzero(stack):
            return np.zeros((len(stack), min(stack.shape[1:])))
        return np.linalg.svd(stack, compute_uv=False)

    return _each(decompose, mats)


def spectral_norms(mats: Sequence[np.ndarray]) -> list[float]:
    """Spectral norm of every matrix, in input order: the first (largest)
    of its singular values, bitwise the one np.linalg.norm(mat, 2)
    returns, and 0.0 for a matrix with no entries."""
    return [float(s[0]) if s.size else 0.0 for s in singular_values_each(mats)]


def _read_only_eigh(stack: np.ndarray):
    lam, vecs = np.linalg.eigh(stack)
    lam.flags.writeable = False
    vecs.flags.writeable = False
    return zip(lam, vecs)


def eigh_each(mats: Sequence[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Read-only (eigenvalues, eigenvectors) of every Hermitian matrix, in
    input order, each bitwise what np.linalg.eigh(mat) returns."""
    return _each(_read_only_eigh, mats)


def eigvalsh_each(mats: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Eigenvalues of every Hermitian matrix, in input order, each bitwise
    what np.linalg.eigvalsh(mat) returns."""
    return _each(np.linalg.eigvalsh, mats)


@dataclass(frozen=True)
class AlgebraShape:
    """Block sizes of the algebra, one entry per matrix block."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(n) for n in self.sizes)
        if not sizes:
            raise ShapeMismatch("algebra needs at least one block")
        if any(n < 1 for n in sizes):
            raise ShapeMismatch(f"block sizes must be positive, got {sizes}")
        object.__setattr__(self, "sizes", sizes)

    @property
    def block_count(self) -> int:
        return len(self.sizes)

    def __iter__(self):
        return iter(self.sizes)

    def __len__(self) -> int:
        return len(self.sizes)


def _check_same_shape(a: AlgebraShape, b: AlgebraShape) -> None:
    if a != b:
        raise ShapeMismatch(f"algebra shapes differ: {a.sizes} vs {b.sizes}")


@dataclass(frozen=True)
class PositivityVerdict:
    """Outcome of a blockwise positivity test.

    min_eigenvalue is taken at worst_block on the Hermitian part;
    hermitian_ok records whether every block passed the Hermitian test.
    """

    is_positive: bool
    worst_block: int
    min_eigenvalue: float
    hermitian_ok: bool


def psd_verdict(
    blocks: Sequence[np.ndarray], tol_psd: float = TOL_PSD
) -> PositivityVerdict:
    """Decide blockwise positive semidefiniteness with relative slack."""
    herm_ok = True
    worst = 0
    worst_margin = np.inf
    worst_eig = np.inf
    positive = True
    count = len(blocks)
    norms = spectral_norms([*blocks, *(b - b.conj().T for b in blocks)])
    spectra = eigvalsh_each([(b + b.conj().T) / 2.0 for b in blocks])
    for k in range(count):
        norm = norms[k]
        herm_gap = norms[count + k]
        blk_herm_ok = herm_gap <= slack(TOL_HERM, norm)
        lam_min = float(spectra[k][0]) if spectra[k].size else 0.0
        margin = lam_min + slack(tol_psd, norm)
        if not blk_herm_ok:
            herm_ok = False
            positive = False
            margin = -np.inf
        elif margin < 0:
            positive = False
        if margin < worst_margin:
            worst_margin = margin
            worst = k
            worst_eig = lam_min
    return PositivityVerdict(
        is_positive=positive,
        worst_block=worst,
        min_eigenvalue=worst_eig,
        hermitian_ok=herm_ok,
    )


class AlgebraElement:
    """One square complex matrix per block, immutable."""

    __slots__ = ("shape", "blocks")

    def __init__(self, shape: AlgebraShape, blocks: Iterable[np.ndarray]):
        blocks = tuple(_freeze(b) for b in blocks)
        if len(blocks) != shape.block_count:
            raise ShapeMismatch(
                f"expected {shape.block_count} blocks, got {len(blocks)}"
            )
        for n, blk in zip(shape, blocks):
            if blk.shape != (n, n):
                raise ShapeMismatch(f"block shaped {blk.shape}, expected ({n}, {n})")
        self.shape = shape
        self.blocks = blocks

    @classmethod
    def _fresh(
        cls, shape: AlgebraShape, blocks: Iterable[np.ndarray]
    ) -> "AlgebraElement":
        """Trusted constructor for freshly computed blocks of the right
        shapes: adopted in place, neither copied nor checked."""
        out = cls.__new__(cls)
        out.shape = shape
        out.blocks = _adopt(blocks)
        return out

    @classmethod
    def zero(cls, shape: AlgebraShape) -> "AlgebraElement":
        return cls(shape, [np.zeros((n, n), dtype=complex) for n in shape])

    @classmethod
    def identity(cls, shape: AlgebraShape) -> "AlgebraElement":
        return cls(shape, [np.eye(n, dtype=complex) for n in shape])

    def block(self, k: int) -> np.ndarray:
        return self.blocks[k]

    def star(self) -> "AlgebraElement":
        """Blockwise conjugate transpose (the algebra involution)."""
        return AlgebraElement._fresh(
            self.shape, [np.conjugate(b.T, order="C") for b in self.blocks]
        )

    def seminorm(self, k: int) -> float:
        """Spectral norm of block k."""
        return spectral_norms([self.blocks[k]])[0]

    def seminorms(self) -> tuple[float, ...]:
        return tuple(spectral_norms(self.blocks))

    def max_seminorm(self) -> float:
        return max(self.seminorms())

    def is_positive(self, tol_psd: float = TOL_PSD) -> PositivityVerdict:
        return psd_verdict(self.blocks, tol_psd=tol_psd)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        _check_same_shape(self.shape, other.shape)
        return AlgebraElement._fresh(
            self.shape, [a + b for a, b in zip(self.blocks, other.blocks)]
        )

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        _check_same_shape(self.shape, other.shape)
        return AlgebraElement._fresh(
            self.shape, [a - b for a, b in zip(self.blocks, other.blocks)]
        )

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement._fresh(self.shape, [-b for b in self.blocks])

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            _check_same_shape(self.shape, other.shape)
            return AlgebraElement._fresh(
                self.shape,
                [_product(a, b) for a, b in zip(self.blocks, other.blocks)],
            )
        if isinstance(other, Number):
            return self.scale(complex(other))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, Number):
            return self.scale(complex(other))
        return NotImplemented

    def scale(self, c: complex) -> "AlgebraElement":
        return AlgebraElement._fresh(self.shape, [c * b for b in self.blocks])

    def __repr__(self) -> str:
        return f"AlgebraElement(shape={self.shape.sizes})"


def leq(a: AlgebraElement, b: AlgebraElement, tol_psd: float = TOL_PSD) -> bool:
    """Order relation: a <= b iff b - a is positive."""
    return (b - a).is_positive(tol_psd=tol_psd).is_positive
