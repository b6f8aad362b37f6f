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
kept, so the frame operator shared by a frame's bounds, pencil, square
root and pseudoinverse is decomposed once; `uniform_norms` measures the
norms that a verdict needs together in one kernel call.  An operator
whose blocks are all exactly Hermitian takes its pseudoinverse from
that kept spectrum, not from an SVD.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import (
    INCLUSION_TOL,
    TOL_PSD,
    TOL_RANK,
    AlgebraElement,
    PositivityVerdict,
    _Blocks,
    _check_same_shape,
    _each,
    _identity,
    _largest,
    eigh_each,
    psd_verdict,
    rank_cutoff,
    singular_values_each,
    slack,
    spectral_norms,
    within_slack,
)
from .errors import ShapeMismatch
from .modules import ModuleVector

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


class ModuleOperator(_Blocks):
    """Adjointable module map held as one realization matrix per block.

    Its uniform norm and Hermitian spectrum are measured on first use and
    kept.
    """

    _norm: float | None = None
    _spectrum: tuple | None = None

    @staticmethod
    def _block_shape(n: int, domain_rank: int, codomain_rank: int) -> tuple[int, int]:
        return (n * domain_rank, n * codomain_rank)

    @property
    def domain_rank(self) -> int:
        return self.dims[0]

    @property
    def codomain_rank(self) -> int:
        return self.dims[1]

    identity = classmethod(_identity)

    # -- structure ----------------------------------------------------

    def coeff(self, i: int, j: int) -> AlgebraElement:
        if not (0 <= i < self.domain_rank and 0 <= j < self.codomain_rank):
            raise ShapeMismatch(f"coefficient index ({i}, {j}) out of range")
        blocks = []
        for n, blk in zip(self.shape, self.blocks):
            blocks.append(blk[i * n : (i + 1) * n, j * n : (j + 1) * n])
        return AlgebraElement(self.shape, blocks)

    def adjoint(self) -> "ModuleOperator":
        """Conjugate transpose of every realization block, exactly."""
        blocks = [np.conjugate(b.T, order="C") for b in self.blocks]
        return ModuleOperator._fresh(self.shape, self.dims[::-1], blocks)

    # -- action and composition ---------------------------------------

    def apply(self, x: ModuleVector) -> ModuleVector:
        _check_same_shape(self.shape, x.shape)
        if x.rank != self.domain_rank:
            raise ShapeMismatch(
                f"vector rank {x.rank} does not match domain rank {self.domain_rank}"
            )
        return ModuleVector._fresh(
            self.shape,
            (self.codomain_rank,),
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
            (self.domain_rank, other.codomain_rank),
            [a @ b for a, b in zip(self.blocks, other.blocks)],
        )

    # -- norms and spectral operations ----------------------------------

    def uniform_norm(self) -> float:
        """Largest spectral norm over the realization blocks, computed once."""
        if self._norm is None:
            self._norm = _largest(spectral_norms(self.blocks))
        return self._norm

    def pinv(self, rel_tol: float = TOL_RANK) -> "ModuleOperator":
        """Blockwise Moore-Penrose pseudoinverse.

        Singular values up to `rank_cutoff` of the largest one are
        dropped.  An exactly Hermitian operator inverts its kept
        `hermitian_spectrum`: its singular values are the moduli of its
        eigenvalues, so per block it sums v v* / lam over the eigenpairs
        whose modulus exceeds `rank_cutoff` of the largest modulus.  Any
        other goes through one stacked thin SVD per block shape; every
        block is bitwise np.linalg.pinv(b, rcond=rel_tol) wherever the
        largest singular value is at least `RANK_FLOOR`.
        """
        if not self._exactly_hermitian():
            return ModuleOperator._fresh(
                self.shape, self.dims[::-1], _each(_pseudoinverses(rel_tol), self.blocks)
            )
        blocks = []
        for lam, vecs in self.hermitian_spectrum():
            mags = np.abs(lam)
            keep = mags > rank_cutoff(float(mags.max()), rel_tol)
            vr = vecs[:, keep]
            blocks.append(_hermitize((vr / lam[keep]) @ vr.conj().T))
        return self._like(blocks)

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
            self.shape, (self.codomain_rank, self.codomain_rank), blocks
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

    def _exactly_hermitian(self) -> bool:
        """Whether every block is finite and bitwise its own conjugate
        transpose, as the frame operator and `hermitian_sqrt` build them."""
        return all(
            np.array_equal(b, b.conj().T) and np.isfinite(b).all() for b in self.blocks
        )

    def hermitian_sqrt(self) -> "ModuleOperator":
        """Square root of a positive semidefinite square operator."""
        if self.domain_rank != self.codomain_rank:
            raise ShapeMismatch("square root needs a square operator")
        blocks = []
        for lam, vecs in self.hermitian_spectrum():
            lam = np.clip(lam, 0.0, None)
            blocks.append(_hermitize((vecs * np.sqrt(lam)) @ vecs.conj().T))
        return self._like(blocks)

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
        op._norm = _largest(norms[start:stop])
        start = stop
    return tuple(op._norm for op in ops)


def _norm_or_blocks(op: ModuleOperator) -> float | tuple[np.ndarray, ...]:
    """One side of a `within_slack` gate: the operator's kept uniform
    norm, or else its blocks, whose Frobenius bounds may settle the gate
    without measuring the norm."""
    return op.blocks if op._norm is None else op._norm


def operator_distance(a: ModuleOperator, b: ModuleOperator) -> float:
    return (a - b).uniform_norm()


# -- positive pencils ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class PencilResult:
    """Extremal quotient of two PSD forms over the range of the second.

    When `included`, `direction` is a unit vector in the range of N (on
    block `block`) attaining the extremal quotient, or None when N
    vanishes everywhere.  When not, they are the refusal witness, built
    from the same decomposition of N that decided the range: the top
    eigenvector of M compressed to the complement of the kept range of N
    (all of a vanished block), on the block where that is largest.
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


# an overflowing compression is read as a non-finite block, so numpy's
# overflow and invalid-value warnings would only be noise
@np.errstate(over="ignore", invalid="ignore")
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
    vanished, leaks, kept, compressed_g, ranges = [], [], [], [], []
    for k, (m, (lam, vecs)) in enumerate(zip(ms, n_spectrum)):
        keep = lam > rank_cutoff(lam[-1], rel_tol)
        vr = vecs[:, keep]
        ranges.append(vr)
        if not keep.any():
            vanished.append(k)
            continue
        dropped = lam[~keep]
        largest_dropped = float(np.abs(dropped).max()) if dropped.size else 0.0
        if largest_dropped > 0:
            gap_ratio = min(gap_ratio, float(lam[keep].min()) / largest_dropped)
        compressed = vr.conj().T @ m @ vr
        leaks.append(m - vr @ compressed @ vr.conj().T)
        inv_sqrt = 1.0 / np.sqrt(lam[keep])
        compressed_g.append(
            _hermitize((inv_sqrt[:, None] * compressed) * inv_sqrt[None, :])
        )
        kept.append((k, inv_sqrt))
    # where N vanishes only M = 0 is compatible; elsewhere M must not
    # leak out of the range of N.  Every block is gated, so a NaN block
    # raises LinAlgError wherever it sits.
    gates = [within_slack([ms[k]], INCLUSION_TOL, 0.0) for k in vanished]
    gates += [
        within_slack([leak], INCLUSION_TOL, [ms[k]])
        for leak, (k, _) in zip(leaks, kept)
    ]
    included = all(gates)
    # a compressed block with a non-finite entry has overflowed: no
    # eigensolver sees it, its quotient is inf, and its direction is the
    # kept eigenvector of N with the largest diagonal entry
    finite = [bool(np.isfinite(g).all()) for g in compressed_g]
    spectra = iter(eigh_each([g for g, ok in zip(compressed_g, finite) if ok]))
    worst_quot = -1.0
    worst_block = 0
    worst_direction: np.ndarray | None = None
    for (k, inv_sqrt), g, ok in zip(kept, compressed_g, finite):
        if ok:
            g_lam, g_vecs = next(spectra)
            quot, top = max(float(g_lam[-1]), 0.0), g_vecs[:, -1]
        else:
            quot, top = np.inf, np.eye(len(g))[np.argmax(np.diagonal(g).real)]
        if quot > worst_quot:
            worst_quot = quot
            worst_block = k
            pulled = ranges[k] @ (inv_sqrt * top)
            norm = float(np.linalg.norm(pulled))
            worst_direction = pulled / norm if norm > 0 else None
    if not included:
        # the witness: the top eigenvector of M compressed to the complement
        # of the range of N kept above (all of a vanished block), on the
        # block where that compression is largest
        complements = [np.eye(len(vr)) - vr @ vr.conj().T for vr in ranges]
        leaked = eigh_each([_hermitize(q @ m @ q) for q, m in zip(complements, ms)])
        worst_leak = -1.0
        for k, (lam, vecs) in enumerate(leaked):
            if float(lam[-1]) > worst_leak:
                worst_leak = float(lam[-1])
                worst_block = k
                # a copy: a view would keep the whole stack of eigenvectors
                # alive for as long as the result is kept
                worst_direction = vecs[:, -1].copy()
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
    return within_slack(t_op.then(complement).blocks, tol_eq, _norm_or_blocks(t_op))


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
