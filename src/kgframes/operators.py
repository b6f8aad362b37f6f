"""Adjointable operators between free modules, as per-block realizations.

An operator from rank d to rank c is a d x c array of algebra
coefficients.  Per block k the coefficients tile one complex matrix of
shape (n_k d, n_k c), the realization.  Applying the operator multiplies
a vector's row stack by the realization on the right, so composition in
application order is the matrix product of realizations in the same
order, and the adjoint is the blockwise conjugate transpose.

Spectral norms go through the one stacked kernel,
`algebra.spectral_norms`, Hermitian eigendecompositions through
`algebra.eigh_each`, and range projections and pseudoinverses through
one stacked thin SVD: each makes one LAPACK call per block shape.  An
operator's uniform norm and Hermitian spectrum are computed once and
kept, so the frame operator shared by a frame's bounds, pencil and
square root is decomposed once; `uniform_norms` measures the norms that
a verdict needs together in one kernel call.

Public construction copies the blocks into read-only complex arrays and
checks their shapes.  Composites, sums, scalings, adjoints, inverses,
projections and square roots are fresh arrays of the right shapes, so
they go through the trusted `ModuleOperator._fresh`, which freezes them
in place and skips both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .algebra import (
    INCLUSION_TOL,
    TOL_PSD,
    TOL_RANK,
    AlgebraElement,
    AlgebraShape,
    PositivityVerdict,
    _adopt,
    _check_same_shape,
    _each,
    _freeze,
    eigh_each,
    leq,
    psd_verdict,
    rank_cutoff,
    singular_values_each,
    slack,
    spectral_norms,
)
from .errors import InvertibilityError, ShapeMismatch
from .modules import ModuleVector, inner

TOL_EQ = 1e-8


def _hermitize(mat: np.ndarray) -> np.ndarray:
    return (mat + mat.conj().T) / 2.0


def _absolute_square_blocks(op: "ModuleOperator") -> list[np.ndarray]:
    """Realization of the composite (apply adjoint(op), then op)."""
    return [_hermitize(b.conj().T @ b) for b in op.blocks]


def _row_spaces(stack: np.ndarray):
    _, svals, vh = np.linalg.svd(stack, full_matrices=False)
    return zip(svals, vh)


def _pseudoinverses(rel_tol: float):
    """Stack kernel for `_each`: the pseudoinverse of every matrix, by
    np.linalg.pinv's operations in its order, with `rank_cutoff`."""

    def decompose(stack: np.ndarray) -> np.ndarray:
        u, s, vt = np.linalg.svd(stack.conjugate(), full_matrices=False)
        # LAPACK returns the singular values in descending order
        cutoff = np.array([rank_cutoff(top, rel_tol) for top in s[:, 0].tolist()])
        large = s > cutoff[:, None]
        s = np.divide(1, s, where=large, out=s)
        s[~large] = 0
        return np.matmul(np.swapaxes(vt, -1, -2), s[..., None] * np.swapaxes(u, -1, -2))

    return decompose


class ModuleOperator:
    """Adjointable module map held as one realization matrix per block."""

    __slots__ = (
        "shape",
        "domain_rank",
        "codomain_rank",
        "blocks",
        "_norm",
        "_spectrum",
    )

    def __init__(
        self,
        shape: AlgebraShape,
        domain_rank: int,
        codomain_rank: int,
        blocks: Iterable[np.ndarray],
    ):
        domain_rank = int(domain_rank)
        codomain_rank = int(codomain_rank)
        if domain_rank < 1 or codomain_rank < 1:
            raise ShapeMismatch("operator ranks must be positive")
        blocks = tuple(_freeze(b) for b in blocks)
        if len(blocks) != shape.block_count:
            raise ShapeMismatch(
                f"expected {shape.block_count} realization blocks, got {len(blocks)}"
            )
        for n, blk in zip(shape, blocks):
            want = (n * domain_rank, n * codomain_rank)
            if blk.shape != want:
                raise ShapeMismatch(f"realization shaped {blk.shape}, expected {want}")
        self.shape = shape
        self.domain_rank = domain_rank
        self.codomain_rank = codomain_rank
        self.blocks = blocks
        self._norm: float | None = None
        self._spectrum: tuple | None = None

    @classmethod
    def _fresh(
        cls,
        shape: AlgebraShape,
        domain_rank: int,
        codomain_rank: int,
        blocks: Iterable[np.ndarray],
    ) -> "ModuleOperator":
        """Trusted constructor for freshly computed realizations of the
        right shapes: adopted in place, neither copied nor checked."""
        out = cls.__new__(cls)
        out.shape = shape
        out.domain_rank = domain_rank
        out.codomain_rank = codomain_rank
        out.blocks = _adopt(blocks)
        out._norm = None
        out._spectrum = None
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def from_coeffs(
        cls, coeffs: Sequence[Sequence[AlgebraElement]]
    ) -> "ModuleOperator":
        """Build from a d x c nested list of algebra coefficients."""
        if not coeffs or not coeffs[0]:
            raise ShapeMismatch("coefficient array must be non-empty")
        d = len(coeffs)
        c = len(coeffs[0])
        shape = coeffs[0][0].shape
        for row in coeffs:
            if len(row) != c:
                raise ShapeMismatch("ragged coefficient array")
            for entry in row:
                _check_same_shape(shape, entry.shape)
        blocks = []
        for k, n in enumerate(shape):
            blk = np.zeros((n * d, n * c), dtype=complex)
            for i in range(d):
                for j in range(c):
                    blk[i * n : (i + 1) * n, j * n : (j + 1) * n] = coeffs[i][j].blocks[k]
            blocks.append(blk)
        return cls(shape, d, c, blocks)

    @classmethod
    def identity(cls, shape: AlgebraShape, rank: int) -> "ModuleOperator":
        return cls(shape, rank, rank, [np.eye(n * rank, dtype=complex) for n in shape])

    @classmethod
    def zero(cls, shape: AlgebraShape, domain_rank: int, codomain_rank: int) -> "ModuleOperator":
        return cls(
            shape,
            domain_rank,
            codomain_rank,
            [np.zeros((n * domain_rank, n * codomain_rank), dtype=complex) for n in shape],
        )

    # -- structure ----------------------------------------------------

    def coeff(self, i: int, j: int) -> AlgebraElement:
        if not (0 <= i < self.domain_rank and 0 <= j < self.codomain_rank):
            raise ShapeMismatch(f"coefficient index ({i}, {j}) out of range")
        blocks = []
        for n, blk in zip(self.shape, self.blocks):
            blocks.append(blk[i * n : (i + 1) * n, j * n : (j + 1) * n])
        return AlgebraElement(self.shape, blocks)

    def coeffs(self) -> list[list[AlgebraElement]]:
        return [
            [self.coeff(i, j) for j in range(self.codomain_rank)]
            for i in range(self.domain_rank)
        ]

    def adjoint(self) -> "ModuleOperator":
        """Conjugate transpose of every realization block, exactly."""
        return ModuleOperator._fresh(
            self.shape,
            self.codomain_rank,
            self.domain_rank,
            [np.conjugate(b.T, order="C") for b in self.blocks],
        )

    # -- action and composition ---------------------------------------

    def apply(self, x: ModuleVector) -> ModuleVector:
        _check_same_shape(self.shape, x.shape)
        if x.rank != self.domain_rank:
            raise ShapeMismatch(
                f"vector rank {x.rank} does not match domain rank {self.domain_rank}"
            )
        return ModuleVector._fresh(
            self.shape,
            self.codomain_rank,
            [s @ b for s, b in zip(x.stacks, self.blocks)],
        )

    def apply_componentwise(self, x: ModuleVector) -> ModuleVector:
        """Apply through coefficient products only, bypassing realizations.

        Slow path kept as an independent evaluation route for audits.
        """
        comps = x.components()
        out = []
        for j in range(self.codomain_rank):
            acc = AlgebraElement.zero(self.shape)
            for i in range(self.domain_rank):
                acc = acc + comps[i] * self.coeff(i, j)
            out.append(acc)
        return ModuleVector.from_components(out)

    def then(self, other: "ModuleOperator") -> "ModuleOperator":
        """Composite that applies self first and other second."""
        _check_same_shape(self.shape, other.shape)
        if self.codomain_rank != other.domain_rank:
            raise ShapeMismatch(
                f"cannot chain codomain rank {self.codomain_rank} "
                f"into domain rank {other.domain_rank}"
            )
        return ModuleOperator._fresh(
            self.shape,
            self.domain_rank,
            other.codomain_rank,
            [a @ b for a, b in zip(self.blocks, other.blocks)],
        )

    def __add__(self, other: "ModuleOperator") -> "ModuleOperator":
        self._check_same_dims(other)
        return ModuleOperator._fresh(
            self.shape,
            self.domain_rank,
            self.codomain_rank,
            [a + b for a, b in zip(self.blocks, other.blocks)],
        )

    def __sub__(self, other: "ModuleOperator") -> "ModuleOperator":
        self._check_same_dims(other)
        return ModuleOperator._fresh(
            self.shape,
            self.domain_rank,
            self.codomain_rank,
            [a - b for a, b in zip(self.blocks, other.blocks)],
        )

    def scale(self, c: complex) -> "ModuleOperator":
        return ModuleOperator._fresh(
            self.shape,
            self.domain_rank,
            self.codomain_rank,
            [c * b for b in self.blocks],
        )

    def _check_same_dims(self, other: "ModuleOperator") -> None:
        _check_same_shape(self.shape, other.shape)
        if (self.domain_rank, self.codomain_rank) != (
            other.domain_rank,
            other.codomain_rank,
        ):
            raise ShapeMismatch("operator dimensions differ")

    # -- norms and spectral operations ----------------------------------

    def uniform_norm(self) -> float:
        """Largest spectral norm over the realization blocks, computed once."""
        if self._norm is None:
            self._norm = max(spectral_norms(self.blocks))
        return self._norm

    def pinv(self, rel_tol: float = TOL_RANK) -> "ModuleOperator":
        """Blockwise Moore-Penrose pseudoinverse.

        Singular values up to `rank_cutoff` of the largest one are
        dropped.  One stacked thin SVD per block shape; every block is
        bitwise np.linalg.pinv(b, rcond=rel_tol) wherever the largest
        singular value is at least `RANK_FLOOR`.
        """
        return ModuleOperator._fresh(
            self.shape,
            self.codomain_rank,
            self.domain_rank,
            _each(_pseudoinverses(rel_tol), self.blocks),
        )

    def inverse(self, rel_tol: float = TOL_RANK) -> "ModuleOperator":
        """Blockwise inverse; raises when any block is numerically singular."""
        if self.domain_rank != self.codomain_rank:
            raise InvertibilityError("only square operators can be inverted")
        for k, svals in enumerate(singular_values_each(self.blocks)):
            if svals[-1] <= rank_cutoff(svals[0], rel_tol):
                raise InvertibilityError(f"block {k} is numerically singular")
        return ModuleOperator._fresh(
            self.shape,
            self.domain_rank,
            self.codomain_rank,
            _each(np.linalg.inv, self.blocks),
        )

    def range_projection(self, rel_tol: float = TOL_RANK) -> "ModuleOperator":
        """Self-adjoint idempotent projecting onto the range of this operator.

        Per block this is the orthogonal projector onto the row space of
        the realization, acting on the codomain module.  The blocks are
        decomposed by one stacked thin SVD per block shape, bitwise the
        per-block np.linalg.svd(blk, full_matrices=False).
        """
        blocks = []
        for svals, vh in _each(_row_spaces, self.blocks):
            keep = svals > rank_cutoff(svals[0], rel_tol)
            vr = vh[keep].conj().T
            blocks.append(_hermitize(vr @ vr.conj().T))
        return ModuleOperator._fresh(
            self.shape, self.codomain_rank, self.codomain_rank, blocks
        )

    def rank_profile(self, rel_tol: float = TOL_RANK) -> tuple[int, ...]:
        """Numerical rank of each realization block."""
        return tuple(
            int(np.sum(svals > rank_cutoff(svals[0], rel_tol)))
            for svals in singular_values_each(self.blocks)
        )

    def smallest_singular_value(self) -> float:
        return min(float(svals[-1]) for svals in singular_values_each(self.blocks))

    def hermitian_spectrum(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Ascending eigenvalues and eigenvectors of each block's Hermitian part.

        Decomposed on first use and kept: the blocks are read-only, and
        so are the returned arrays.
        """
        if self.domain_rank != self.codomain_rank:
            raise ShapeMismatch("a spectrum needs a square operator")
        if self._spectrum is None:
            self._spectrum = tuple(eigh_each([_hermitize(b) for b in self.blocks]))
        return self._spectrum

    def hermitian_sqrt(self) -> "ModuleOperator":
        """Square root of a positive semidefinite square operator."""
        if self.domain_rank != self.codomain_rank:
            raise ShapeMismatch("square root needs a square operator")
        blocks = []
        for lam, vecs in self.hermitian_spectrum():
            lam = np.clip(lam, 0.0, None)
            blocks.append(_hermitize((vecs * np.sqrt(lam)) @ vecs.conj().T))
        return ModuleOperator._fresh(
            self.shape, self.domain_rank, self.codomain_rank, blocks
        )

    def positivity(self, tol_psd: float = TOL_PSD) -> PositivityVerdict:
        """Positivity as an operator: every realization block PSD."""
        if self.domain_rank != self.codomain_rank:
            raise ShapeMismatch("positivity needs a square operator")
        return psd_verdict(self.blocks, tol_psd=tol_psd)

    def __repr__(self) -> str:
        return (
            f"ModuleOperator(shape={self.shape.sizes}, "
            f"{self.domain_rank}->{self.codomain_rank})"
        )


def uniform_norms(*ops: ModuleOperator) -> tuple[float, ...]:
    """Uniform norm of every operator, each bitwise its `uniform_norm`.

    The operators not yet measured share one `spectral_norms` call, one
    LAPACK launch per block shape, and keep their norms as `uniform_norm`
    does.
    """
    todo = [op for op in ops if op._norm is None]
    norms = spectral_norms([b for op in todo for b in op.blocks])
    start = 0
    for op in todo:
        stop = start + len(op.blocks)
        op._norm = max(norms[start:stop])
        start = stop
    return tuple(op._norm for op in ops)


def operator_distance(a: ModuleOperator, b: ModuleOperator) -> float:
    return (a - b).uniform_norm()


# -- positive pencils ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class PencilResult:
    """Extremal quotient of two PSD forms over the range of the second.

    `direction` is a unit vector in the range of N (on block `block`)
    attaining the extremal quotient, or None when N vanishes everywhere.
    """

    quotient: float
    included: bool
    gap_ratio: float
    block: int
    direction: np.ndarray | None

    @property
    def lower_scale(self) -> float:
        """Largest s >= 0 with s M <= N: 0 when the range of M escapes
        the range of N (no positive s exists), +inf when M vanishes (the
        constraint is vacuous)."""
        if not self.included:
            return 0.0
        if self.quotient <= 0.0:
            return np.inf
        return 1.0 / self.quotient


def psd_quotient_max(
    m_blocks: Sequence[np.ndarray],
    n_blocks: Sequence[np.ndarray],
    rel_tol: float = TOL_RANK,
) -> PencilResult:
    """Largest value of (x* M x) / (x* N x) over the range of N, per block.

    M and N are Hermitian PSD.  `included` reports whether the range of M
    sits inside the range of N on every block, up to `INCLUSION_TOL`;
    when it does, the returned quotient is the smallest t with M <= t N
    (callers take reciprocals as needed).
    """
    n_spectrum = eigh_each([_hermitize(n) for n in n_blocks])
    return pencil_over_spectrum(m_blocks, n_spectrum, rel_tol)


def pencil_over_spectrum(
    m_blocks: Sequence[np.ndarray],
    n_spectrum: Sequence[tuple[np.ndarray, np.ndarray]],
    rel_tol: float = TOL_RANK,
) -> PencilResult:
    """psd_quotient_max over a given eigendecomposition of each N block.

    `n_spectrum` holds one (eigenvalues, eigenvectors) pair per block, as
    `eigh_each` returns them, so an N decomposed once serves every pencil
    taken against it.
    """
    ms = [_hermitize(m) for m in m_blocks]
    gap_ratio = np.inf
    vanished, leaks, kept, compressed_g = [], [], [], []
    for k, (m, (lam, vecs)) in enumerate(zip(ms, n_spectrum)):
        keep = lam > rank_cutoff(lam[-1], rel_tol)
        if not keep.any():
            vanished.append(k)
            continue
        dropped = lam[~keep]
        largest_dropped = float(np.abs(dropped).max()) if dropped.size else 0.0
        if largest_dropped > 0:
            gap_ratio = min(gap_ratio, float(lam[keep].min()) / largest_dropped)
        vr = vecs[:, keep]
        compressed = vr.conj().T @ m @ vr
        leaks.append(m - vr @ compressed @ vr.conj().T)
        inv_sqrt = 1.0 / np.sqrt(lam[keep])
        compressed_g.append(
            _hermitize((inv_sqrt[:, None] * compressed) * inv_sqrt[None, :])
        )
        kept.append((k, vr, inv_sqrt))
    # one kernel call for both: each leak has the shape of its M block
    norms = spectral_norms(ms + leaks)
    m_scales, leak_norms = norms[: len(ms)], norms[len(ms) :]
    # where N vanishes only M = 0 is compatible; elsewhere M must not
    # leak out of the range of N
    included = not any(m_scales[k] > INCLUSION_TOL for k in vanished) and not any(
        leak > slack(INCLUSION_TOL, m_scales[k])
        for leak, (k, _, _) in zip(leak_norms, kept)
    )
    worst_quot = -1.0
    worst_block = 0
    worst_direction: np.ndarray | None = None
    for (k, vr, inv_sqrt), (g_lam, g_vecs) in zip(kept, eigh_each(compressed_g)):
        quot = max(float(g_lam[-1]), 0.0)
        if quot > worst_quot:
            worst_quot = quot
            worst_block = k
            pulled = vr @ (inv_sqrt * g_vecs[:, -1])
            norm = float(np.linalg.norm(pulled))
            worst_direction = pulled / norm if norm > 0 else None
    return PencilResult(
        quotient=max(worst_quot, 0.0),
        included=included,
        gap_ratio=gap_ratio,
        block=worst_block,
        direction=worst_direction,
    )


# -- majorization / range inclusion certificate -------------------------


@dataclass(frozen=True)
class DouglasCertificate:
    """Joint verdict of the three equivalent range-majorization conditions.

    range_included: projector route (`range_included`), range of T
    inside range of Z.
    alpha_min: smallest a with T T* <= a^2 Z Z* (inf when infeasible).
    factor: operator U with T = (apply U, then Z); residual is the
    uniform norm of the factorization defect.
    """

    range_included: bool
    pencil_included: bool
    alpha_min: float
    factor: "ModuleOperator"
    residual: float
    factor_ok: bool
    gap_ratio: float

    def conditions_agree(self) -> bool:
        finite = np.isfinite(self.alpha_min)
        return self.range_included == self.pencil_included == self.factor_ok and (
            finite == self.range_included
        )


def range_included(
    t_op: ModuleOperator,
    z_op: ModuleOperator,
    tol_eq: float = TOL_EQ,
    rel_tol: float = TOL_RANK,
) -> bool:
    """Whether the range of t_op lies inside the range of z_op.

    Projector route: with P the orthogonal projector onto the range of
    z_op (singular values below rel_tol times the largest one dropped),
    the inclusion holds when the uniform norm of (apply t_op, then I - P)
    is at most slack(tol_eq, |t_op|).  This is route 1 of `douglas`, for
    callers that need the verdict and not the pencil or the factor.
    """
    _check_same_shape(t_op.shape, z_op.shape)
    if t_op.codomain_rank != z_op.codomain_rank:
        raise ShapeMismatch("operators must share their codomain")
    proj = z_op.range_projection(rel_tol=rel_tol)
    complement = ModuleOperator.identity(t_op.shape, t_op.codomain_rank) - proj
    t_norm, leak = uniform_norms(t_op, t_op.then(complement))
    return leak <= slack(tol_eq, t_norm)


def douglas(
    t_op: ModuleOperator,
    z_op: ModuleOperator,
    tol_eq: float = TOL_EQ,
    rel_tol: float = TOL_RANK,
) -> DouglasCertificate:
    """Decide range inclusion of t_op inside z_op three independent ways.

    Route 1 is `range_included`, the projector route; route 2 is the PSD
    pencil of the absolute squares of t_op and z_op; route 3 factors t_op
    through the pseudoinverse of z_op and measures the residual.
    `conditions_agree` reports whether the three verdicts agree.
    """
    # route 1: orthogonal projector onto the range of z_op (checks shapes)
    included = range_included(t_op, z_op, tol_eq=tol_eq, rel_tol=rel_tol)

    # route 2: PSD pencil of the two absolute squares
    pencil = psd_quotient_max(
        _absolute_square_blocks(t_op), _absolute_square_blocks(z_op), rel_tol=rel_tol
    )
    alpha_min = float(np.sqrt(pencil.quotient)) if pencil.included else np.inf

    # route 3: explicit factor through the pseudoinverse
    factor = t_op.then(z_op.pinv(rel_tol=rel_tol))
    residual = operator_distance(factor.then(z_op), t_op)
    factor_ok = residual <= slack(tol_eq, t_op.uniform_norm())

    return DouglasCertificate(
        range_included=included,
        pencil_included=pencil.included,
        alpha_min=alpha_min,
        factor=factor,
        residual=residual,
        factor_ok=factor_ok,
        gap_ratio=pencil.gap_ratio,
    )


# -- invertible sandwich check ------------------------------------------


@dataclass(frozen=True)
class EnvelopeReport:
    ok: bool
    lower_ok: bool
    upper_ok: bool
    lower_scale: float
    upper_scale: float


def norm_envelope_check(
    f_op: ModuleOperator,
    eta: ModuleVector,
    tol_psd: float = TOL_PSD,
    rel_tol: float = TOL_RANK,
) -> EnvelopeReport:
    """Check the two-sided norm envelope for an invertible operator.

    For invertible F the inner product of F eta with itself is squeezed
    between the inner product of eta scaled by the inverse norm and by
    the norm of F.
    """
    inv = f_op.inverse(rel_tol=rel_tol)  # raises when not invertible
    upper_scale = f_op.uniform_norm() ** 2
    lower_scale = 1.0 / (inv.uniform_norm() ** 2)
    image = f_op.apply(eta)
    base = inner(eta, eta)
    lifted = inner(image, image)
    lower_ok = leq(base.scale(lower_scale), lifted, tol_psd=tol_psd)
    upper_ok = leq(lifted, base.scale(upper_scale), tol_psd=tol_psd)
    return EnvelopeReport(
        ok=lower_ok and upper_ok,
        lower_ok=lower_ok,
        upper_ok=upper_ok,
        lower_scale=lower_scale,
        upper_scale=upper_scale,
    )
