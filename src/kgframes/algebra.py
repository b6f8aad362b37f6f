"""Finite direct sums of complex matrix blocks and their C*-seminorms.

An algebra element is one square complex matrix per block.  The k-th
seminorm is the spectral norm of the k-th block; positivity is decided
blockwise with relative tolerances.

Every numerical decision of the package has its rule here.  Every rank
decision is `kept_mask`, which cuts each block on its own scale.  A
threshold verdict (positivity, the Hermitian test, the leak out of a
range, a dual, tightness or factor residual) passes when its residual
is at most `slack(tol, scale) = tol * (1 + scale)`, the scale being the
norm of the operand the residual is measured against.  `within_slack`
decides such a gate from Frobenius bounds on both norms where they
settle it, and measures the norms only where the bounds straddle the
slack, so its verdict is bitwise the one the measured norms give.
Three decisions take their tolerance as a parameter: the rank cutoff
(`rel_tol`), the order test (`tol_psd`) and operator identities
(`tol_eq`).  Every other threshold is a module constant, such as
`TOL_HERM` for the Hermitian test and `INCLUSION_TOL` for the floor of
the K-pencil's range-inclusion test.

Blocks are small, so a LAPACK call costs more in overhead than in flops.
The decomposition kernels here take many matrices at once and make one
stacked call per shape and dtype; LAPACK still runs on each matrix of
the stack alone, so every result is bitwise that of a single call.  A
group of matrices that are all zero makes no call: its singular values,
and so its spectral norms, are 0.0, which is what LAPACK returns for
them.  Nor does a matrix with a non-finite entry reach LAPACK's SVD,
which would write a message to standard output: `singular_values_each`
gives it LAPACK's outcome without the call.

Algebra elements, module vectors and module operators are all one
complex matrix per block; `_Blocks` holds that storage, its construction
policy and its blockwise arithmetic for all three.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
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


def rank_cutoff(top: float | np.ndarray, rel_tol: float) -> float | np.ndarray:
    """rel_tol times a block's largest modulus (or an array of them),
    floored at RANK_FLOOR."""
    return rel_tol * np.maximum(top, RANK_FLOOR)


def kept_mask(values: np.ndarray, rel_tol: float) -> np.ndarray:
    """The one rank decision: the singular values or eigenvalues of a block
    (or of a stack of blocks, along the last axis) that count toward its
    rank, those whose modulus exceeds `rank_cutoff` of its largest."""
    mags = np.abs(values)
    return mags > rank_cutoff(mags.max(axis=-1, keepdims=True), rel_tol)


def slack(tol: float, scale: float) -> float:
    """The one residual gate: a residual measured against an operand of
    norm `scale` passes when it is at most this."""
    return tol * (1.0 + scale)


# Relative room each Frobenius bound of `within_slack` is widened by: far
# above the rounding of a sum of squares or of LAPACK's largest singular
# value, far below any slack a gate grants.
BRACKET_ROOM = 1e-6


def _bracket(side) -> tuple[float, float, list]:
    """(lower, upper) bounds on the largest spectral norm of one side of a
    gate, with the matrices that may attain it.

    A float is a norm already measured.  A matrix of Frobenius norm f has
    f / sqrt(min(m, n)) <= |A|_2 <= f, widened by BRACKET_ROOM; its squared
    Frobenius norm is trusted from RANK_FLOOR up, where no square has lost
    precision to underflow, and below infinity.  A zero matrix is exact.
    Any other matrix (non-finite, overflowing or underflowing) gives NaN
    bounds, which settle nothing, and the whole side is measured.
    """
    if isinstance(side, float):
        return side, side, []
    low = high = 0.0
    highs = []
    for mat in side:
        f2 = float(np.vdot(mat, mat).real)
        if RANK_FLOOR <= f2 < np.inf:
            f = f2**0.5
            mat_low = f * (1.0 - BRACKET_ROOM) / min(mat.shape) ** 0.5
            mat_high = f * (1.0 + BRACKET_ROOM)
        elif f2 == 0.0 and not mat.any():
            mat_low = mat_high = 0.0
        else:
            return np.nan, np.nan, list(side)
        low = max(low, mat_low)
        high = max(high, mat_high)
        highs.append(mat_high)
    # a matrix whose upper bound is below another's lower bound is not the max
    return low, high, [mat for mat, mat_high in zip(side, highs) if mat_high >= low]


def _largest(norms: Sequence[float]) -> float:
    """The largest of some norms: NaN when any is (the SVD of an infinite
    entry), wherever it sits, where Python's max keeps a NaN only in
    first place."""
    return np.nan if any(n != n for n in norms) else max(norms)


def within_slack(residuals, tol: float, scales) -> bool:
    """The residual gate, max |R|_2 <= slack(tol, max |T|_2), over matrices
    R of `residuals` and T of `scales`: bitwise the verdict of their
    `spectral_norms`.  Either side may instead be a float, a norm already
    measured.

    Frobenius bounds settle the gate when the residual's upper bound
    passes the slack at the scale's lower bound, or its lower bound fails
    it at the scale's upper bound; this needs only that `slack` grows with
    its scale.  Otherwise one `spectral_norms` call measures the matrices
    still unknown.  A side with a non-finite matrix is measured whole, as
    `spectral_norms` alone would: an infinite entry gives a NaN norm, which
    fails the gate wherever its matrix sits, and a NaN entry raises
    LinAlgError.
    """
    r_low, r_high, r_mats = _bracket(residuals)
    s_low, s_high, s_mats = _bracket(scales)
    if r_high <= slack(tol, s_low):
        return True
    if r_low > slack(tol, s_high):
        return False
    norms = spectral_norms(r_mats + s_mats)
    r_norm = _largest(norms[: len(r_mats)]) if r_mats else r_low
    s_norm = _largest(norms[len(r_mats) :]) if s_mats else s_low
    return r_norm <= slack(tol, s_norm)


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
    are zeros, which is what LAPACK returns for it.  So does a matrix with
    a non-finite entry, which LAPACK would answer by writing a message to
    standard output: where an entry's modulus is NaN, LAPACK refuses the
    matrix and so the whole stack (LinAlgError); where the largest modulus
    is infinite, every singular value is NaN.
    """

    def decompose(stack: np.ndarray) -> np.ndarray:
        if not np.count_nonzero(stack):
            return np.zeros((len(stack), min(stack.shape[1:])))
        if np.isfinite(stack).all():
            return np.linalg.svd(stack, compute_uv=False)
        finite = np.isfinite(stack).all(axis=(1, 2))
        if np.isnan(np.abs(stack[~finite])).any():
            raise np.linalg.LinAlgError("SVD did not converge")
        out = np.full((len(stack), min(stack.shape[1:])), np.nan)
        if finite.any():
            out[finite] = np.linalg.svd(stack[finite], compute_uv=False)
        return out

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


def psd_verdicts(
    block_lists: Sequence[Sequence[np.ndarray]], tol_psd: float = TOL_PSD
) -> list[PositivityVerdict]:
    """Decide blockwise positive semidefiniteness with relative slack, one
    verdict per list of blocks.

    The blocks of every list share one `spectral_norms` call and one
    `eigvalsh_each` call, so each verdict is bitwise what its list alone
    gets.
    """
    blocks = [b for blist in block_lists for b in blist]
    norms = spectral_norms([*blocks, *(b - b.conj().T for b in blocks)])
    spectra = eigvalsh_each([(b + b.conj().T) / 2.0 for b in blocks])
    per_block = zip(norms, norms[len(blocks) :], spectra)
    verdicts = []
    for blist in block_lists:
        herm_ok = positive = True
        worst, worst_margin, worst_eig = 0, np.inf, np.inf
        for k, (norm, herm_gap, lam) in enumerate(islice(per_block, len(blist))):
            lam_min = float(lam[0]) if lam.size else 0.0
            margin = lam_min + slack(tol_psd, norm)
            if not herm_gap <= slack(TOL_HERM, norm):
                herm_ok = positive = False
                margin = -np.inf
            elif margin < 0:
                positive = False
            if margin < worst_margin:
                worst, worst_margin, worst_eig = k, margin, lam_min
        verdicts.append(PositivityVerdict(positive, worst, worst_eig, herm_ok))
    return verdicts


def psd_verdict(
    blocks: Sequence[np.ndarray], tol_psd: float = TOL_PSD
) -> PositivityVerdict:
    """Decide blockwise positive semidefiniteness with relative slack: the
    one verdict of `psd_verdicts` on one list of blocks."""
    return psd_verdicts([blocks], tol_psd=tol_psd)[0]


def _positive(dims: Iterable[int]) -> tuple[int, ...]:
    dims = tuple(map(int, dims))
    if any(d < 1 for d in dims):
        raise ShapeMismatch(f"dimensions must be positive, got {dims}")
    return dims


# One shared tuple per distinct dims: a block object holds no dims tuple of
# its own, so it costs no more memory, and no more objects for the cyclic
# garbage collector to count, than separate int fields would.
_DIMS: dict[tuple[int, ...], tuple[int, ...]] = {}


class _Blocks:
    """One complex matrix per algebra block, immutable: the storage of
    algebra elements, module vectors and module operators.

    `dims` are a kind's sizes beyond the algebra shape: () for an
    element, (rank,) for a vector and (domain_rank, codomain_rank) for an
    operator.  A kind's `_block_shape(n, *dims)` is the shape of its
    matrix on a block of size n.

    Public construction, `Kind(shape, *dims, blocks)`, copies every block
    into a read-only complex C-ordered array (`_freeze`) and checks the
    dims, the block count, each block's shape and that every entry is
    finite.  Results computed from blocks are fresh arrays of that kind
    already, and so are the blocks `zero` and `identity` make once their
    dims pass the check; they go through the trusted `_fresh`, which
    adopts them in place (`_adopt`) with no copy and no check.  Sums,
    differences, negatives and scalings are blockwise, between operands
    of one shape and equal dims.
    """

    __slots__ = ("shape", "dims", "blocks")

    def __init__(self, shape: AlgebraShape, *args):
        *dims, blocks = args
        dims = _positive(dims)
        blocks = tuple(_freeze(b) for b in blocks)
        if len(blocks) != shape.block_count:
            raise ShapeMismatch(
                f"expected {shape.block_count} blocks, got {len(blocks)}"
            )
        for k, (n, blk) in enumerate(zip(shape, blocks)):
            want = self._block_shape(n, *dims)
            if blk.shape != want:
                raise ShapeMismatch(f"block {k} shaped {blk.shape}, expected {want}")
            if not np.isfinite(blk).all():
                raise ValueError(f"block {k} has a non-finite entry")
        self.shape = shape
        self.dims = _DIMS.setdefault(dims, dims)
        self.blocks = blocks

    @classmethod
    def _fresh(
        cls, shape: AlgebraShape, dims: tuple[int, ...], blocks: Iterable[np.ndarray]
    ):
        """Trusted constructor for freshly computed blocks of the right
        shapes: adopted, neither copied nor checked."""
        out = cls.__new__(cls)
        out.shape = shape
        out.dims = _DIMS.setdefault(dims, dims)
        out.blocks = _adopt(blocks)
        return out

    def _like(self, blocks: Iterable[np.ndarray]):
        """Fresh blocks of this one's kind, shape and dims, through `_fresh`."""
        return self._fresh(self.shape, self.dims, blocks)

    @classmethod
    def zero(cls, shape: AlgebraShape, *dims: int):
        dims = _positive(dims)
        return cls._fresh(
            shape,
            dims,
            [np.zeros(cls._block_shape(n, *dims), dtype=complex) for n in shape],
        )

    def _check_compatible(self, other: "_Blocks") -> None:
        _check_same_shape(self.shape, other.shape)
        if self.dims != other.dims:
            raise ShapeMismatch(f"dimensions differ: {self.dims} vs {other.dims}")

    def __add__(self, other):
        self._check_compatible(other)
        return self._like([a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other):
        self._check_compatible(other)
        return self._like([a - b for a, b in zip(self.blocks, other.blocks)])

    def __neg__(self):
        return self._like([-b for b in self.blocks])

    def scale(self, c: complex):
        return self._like([c * b for b in self.blocks])


def _identity(cls, shape: AlgebraShape, *rank: int):
    """The identity matrix on every block: the unit element, or the
    identity operator from rank r onto rank r."""
    dims = _positive(rank * 2)
    return cls._fresh(
        shape,
        dims,
        [np.eye(*cls._block_shape(n, *dims), dtype=complex) for n in shape],
    )


class AlgebraElement(_Blocks):
    """One square complex matrix per block, immutable."""

    __slots__ = ()

    @staticmethod
    def _block_shape(n: int) -> tuple[int, int]:
        return (n, n)

    identity = classmethod(_identity)

    def seminorm(self, k: int) -> float:
        """Spectral norm of block k."""
        return spectral_norms([self.blocks[k]])[0]

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            _check_same_shape(self.shape, other.shape)
            return self._like(
                [_product(a, b) for a, b in zip(self.blocks, other.blocks)]
            )
        if isinstance(other, Number):
            return self.scale(complex(other))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, Number):
            return self.scale(complex(other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"AlgebraElement(shape={self.shape.sizes})"
