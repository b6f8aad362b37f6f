"""Finite operator families over a free module: frames and coordinate bases.

A family {F_i : A^d -> A^{c_i}} is stored with its offset table embedding
the direct sum of the codomains into A^{sum c_i}.  The analysis operator
concatenates the member images at those offsets; its adjoint is the
synthesis operator; their composite is the frame operator.

A family and its members are immutable, so a family keeps what it was
measured to be in one table, behind `GFrame.kept`: its analysis and
frame operators, its basis validation, its square operator against each
basis, its duality residual against each (dual family, K) pair and its
K-g-frame report for each (K, rel_tol) pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate
from operator import add
from typing import Iterable, Sequence

import numpy as np

from .algebra import (
    TOL_RANK,
    AlgebraShape,
    _check_same_shape,
    _largest,
    kept_mask,
    spectral_norms,
)
from .errors import BasisError, PartitionError, ShapeMismatch
from .modules import ModuleVector, vector_seminorm
from .operators import ModuleOperator, _hermitize, uniform_norms

BASIS_TOL = 1e-10
# the frame bounds are tight when their gap is at most this times the upper
TIGHT_TOL = 1e-8


def embed_direction(
    shape: AlgebraShape, rank: int, block: int, direction: np.ndarray
) -> ModuleVector:
    """Module vector whose self inner product reproduces a quadratic form.

    The returned vector has, on the chosen block, the conjugate of
    `direction` as the first row of its stack and zeros elsewhere, so for
    any operator realization R on that block the (0,0) entry of the
    quadratic expression of the vector against R equals v* R v.
    """
    direction = np.asarray(direction, dtype=complex).reshape(-1)
    n = shape.sizes[block]
    if direction.size != n * rank:
        raise ShapeMismatch(
            f"direction has length {direction.size}, expected {n * rank}"
        )
    stacks = [np.zeros((m, m * rank), dtype=complex) for m in shape]
    stacks[block][0, :] = direction.conj()
    return ModuleVector._fresh(shape, (rank,), stacks)


class GFrame:
    """Indexed family of operators out of one common domain module."""

    __slots__ = ("shape", "domain_rank", "members", "offsets", "_kept")

    def __init__(self, members: Iterable[ModuleOperator]):
        members = tuple(members)
        if not members:
            raise ShapeMismatch("a frame needs at least one member")
        shape = members[0].shape
        domain_rank = members[0].domain_rank
        for mem in members[1:]:
            _check_same_shape(shape, mem.shape)
            if mem.domain_rank != domain_rank:
                raise ShapeMismatch("frame members must share their domain rank")
        self.shape = shape
        self.domain_rank = domain_rank
        self.members = members
        self.offsets = (0, *accumulate(mem.codomain_rank for mem in members))
        self._kept: dict = {}

    def kept(self, key, measure):
        """What `measure()` returns, measured on the first call with `key`.

        The one table of what was measured of this family: a key names a
        measurement and its operands, which are immutable and compared as
        objects, e.g. ("g_operator", basis) or ("kg_report", K, rel_tol).
        """
        result = self._kept.get(key)
        if result is None:
            result = self._kept[key] = measure()
        return result

    # -- structure ----------------------------------------------------

    @property
    def codomain_ranks(self) -> tuple[int, ...]:
        return tuple(m.codomain_rank for m in self.members)

    @property
    def total_codomain_rank(self) -> int:
        return self.offsets[-1]

    def __repr__(self) -> str:
        return (
            f"GFrame(shape={self.shape.sizes}, domain_rank={self.domain_rank}, "
            f"members={len(self.members)})"
        )

    # -- derived operators ---------------------------------------------

    def analysis_operator(self) -> ModuleOperator:
        """Stacks all member images: A^d -> A^{sum c_i}."""
        return self.kept(
            "analysis",
            lambda: ModuleOperator._fresh(
                self.shape,
                (self.domain_rank, self.total_codomain_rank),
                [
                    np.hstack([mem.blocks[k] for mem in self.members])
                    for k in range(self.shape.block_count)
                ],
            ),
        )

    def synthesis_operator(self) -> ModuleOperator:
        """Adjoint of the analysis operator: A^{sum c_i} -> A^d."""
        return self.analysis_operator().adjoint()

    def frame_operator(self) -> ModuleOperator:
        """Sum of adjoint(F_i) after F_i; Hermitian PSD by construction."""
        return self.kept(
            "frame_operator",
            lambda: ModuleOperator._fresh(
                self.shape,
                (self.domain_rank, self.domain_rank),
                [_hermitize(b @ b.conj().T) for b in self.analysis_operator().blocks],
            ),
        )


def _check_square_on_domain(frame: GFrame, k_op: ModuleOperator) -> None:
    _check_same_shape(frame.shape, k_op.shape)
    if not (k_op.domain_rank == k_op.codomain_rank == frame.domain_rank):
        raise ShapeMismatch(
            "reference operator must be square on the frame domain: "
            f"got {k_op.domain_rank}->{k_op.codomain_rank} over domain rank "
            f"{frame.domain_rank}"
        )


def _member_sum_blocks(a: GFrame, b: GFrame) -> list[np.ndarray]:
    """Realization blocks of the sum over i of (apply A_i, then adjoint(B_i)),
    accumulated from the first term.

    Against a basis E it is the square operator of a frame F (A = E, B = F)
    and the completeness sum of E (A = B = E); for a K-dual pair it is the
    side of the duality identity that should reproduce K (A = X, B = F).
    """
    pairs = list(zip(a.members, b.members))
    return [
        reduce(add, (x.blocks[k] @ y.blocks[k].conj().T for x, y in pairs))
        for k in range(a.shape.block_count)
    ]


def frame_distance(a: GFrame, b: GFrame) -> float:
    """Largest member-wise uniform-norm difference: NaN when any member's
    is, wherever that member sits."""
    _check_index_compatible(a, b)
    return _largest(uniform_norms(*(x - y for x, y in zip(a.members, b.members))))


@dataclass(frozen=True, eq=False)
class FrameBounds:
    """Optimal two-sided constants of the frame inequality.

    `lower` and `upper` are the extreme eigenvalues of the frame operator
    realizations over all blocks; the witnesses attain them.  Each
    witness is built from its block and eigenvector when first read.
    """

    lower: float
    upper: float
    tight: bool
    lower_block: int
    upper_block: int
    _shape: AlgebraShape
    _rank: int
    _lower_direction: np.ndarray
    _upper_direction: np.ndarray
    _spectra: tuple[np.ndarray, ...]  # each block's eigenvalues, clipped at 0

    @cached_property
    def witness_low(self) -> ModuleVector:
        return embed_direction(
            self._shape, self._rank, self.lower_block, self._lower_direction
        )

    @cached_property
    def witness_high(self) -> ModuleVector:
        return embed_direction(
            self._shape, self._rank, self.upper_block, self._upper_direction
        )

    def is_frame(self, rel_tol: float = TOL_RANK) -> bool:
        """Whether `kept_mask` keeps every eigenvalue of S, block by block."""
        return all(kept_mask(lam, rel_tol).all() for lam in self._spectra)


def optimal_g_bounds(frame: GFrame) -> FrameBounds:
    """Extreme eigenvalues of the frame operator with witness vectors."""
    spectrum = frame.frame_operator().hermitian_spectrum()
    lo_block = min(range(len(spectrum)), key=lambda k: spectrum[k][0][0])
    hi_block = max(range(len(spectrum)), key=lambda k: spectrum[k][0][-1])
    lower = max(float(spectrum[lo_block][0][0]), 0.0)
    upper = float(spectrum[hi_block][0][-1])
    return FrameBounds(
        lower=lower,
        upper=upper,
        tight=(upper - lower) <= TIGHT_TOL * upper,
        lower_block=lo_block,
        upper_block=hi_block,
        _shape=frame.shape,
        _rank=frame.domain_rank,
        # copies: a view would keep the whole stacked eigenvector array alive
        _lower_direction=spectrum[lo_block][1][:, 0].copy(),
        _upper_direction=spectrum[hi_block][1][:, -1].copy(),
        _spectra=tuple(np.maximum(lam, 0.0) for lam, _ in spectrum),
    )


def is_g_complete(frame: GFrame, rel_tol: float = TOL_RANK) -> bool:
    """No nonzero vector is annihilated by every member: in finite
    dimensions the frame property, so this is `FrameBounds.is_frame`."""
    return optimal_g_bounds(frame).is_frame(rel_tol)


# -- coordinate bases ----------------------------------------------------


def canonical_basis(
    shape: AlgebraShape, rank: int, partition: Sequence[int]
) -> GFrame:
    """Coordinate-slice family splitting A^rank along a partition.

    Member i selects the components in its partition window; the family
    satisfies the delta condition and algebra-valued completeness
    exactly.
    """
    partition = tuple(int(c) for c in partition)
    if not partition or any(c < 1 for c in partition):
        raise PartitionError(f"partition parts must be positive, got {partition}")
    if sum(partition) != rank:
        raise PartitionError(
            f"partition {partition} sums to {sum(partition)}, expected {rank}"
        )
    members = []
    offset = 0
    for c in partition:
        # the identity's columns n*offset onward: ones where i = j + n*offset
        blocks = [np.eye(n * rank, n * c, -n * offset, dtype=complex) for n in shape]
        members.append(ModuleOperator._fresh(shape, (rank, c), blocks))
        offset += c
    return GFrame(members)


@dataclass(frozen=True)
class BasisAxiomReport:
    """Separate verdicts for each orthonormal-basis axiom.

    delta_ok: pairwise slices compose to delta_ij times the identity.
    parseval_ok: the members' absolute squares sum to the identity.
    seminorm_additive_ok: the scalar seminorm Pythagoras identity holds
    on the probe vectors; this axiom genuinely fails over matrix blocks,
    so it is reported but never required.
    """

    delta_ok: bool
    delta_violation: float
    parseval_ok: bool
    parseval_violation: float
    seminorm_additive_ok: bool
    seminorm_violation: float
    probe_count: int


def _default_probes(shape: AlgebraShape, rank: int) -> list[ModuleVector]:
    probes = [
        ModuleVector.basis_vector(shape, rank, i) for i in range(min(rank, 2))
    ]
    stacks = []
    for n in shape:
        grid = np.arange(n * n * rank, dtype=float).reshape(n, n * rank)
        stacks.append((1.0 + grid + 1j * (grid % 3)) / (1.0 + n * rank))
    probes.append(ModuleVector(shape, rank, stacks))
    return probes


def basis_axiom_report(
    basis: GFrame, probes: Sequence[ModuleVector] | None = None
) -> BasisAxiomReport:
    """Test each orthonormal-basis axiom separately on a candidate family."""
    shape = basis.shape
    delta_gaps = []
    for i, ei in enumerate(basis.members):
        for j, ej in enumerate(basis.members):
            # realization of: apply adjoint(E_i), then E_j
            for k in range(shape.block_count):
                got = ei.blocks[k].conj().T @ ej.blocks[k]
                delta_gaps.append(got - np.eye(len(got)) if i == j else got)
    delta_violation = _largest([0.0, *spectral_norms(delta_gaps)])
    parseval_gaps = [
        acc - np.eye(acc.shape[0]) for acc in _member_sum_blocks(basis, basis)
    ]
    parseval_violation = _largest([0.0, *spectral_norms(parseval_gaps)])
    if probes is None:
        probes = _default_probes(shape, basis.domain_rank)
    seminorm_gaps = [0.0]
    for x in probes:
        images = [mem.apply(x) for mem in basis.members]
        for k in range(shape.block_count):
            total = sum(vector_seminorm(img, k) ** 2 for img in images)
            base = vector_seminorm(x, k) ** 2
            seminorm_gaps.append(abs(total - base) / (1.0 + base))
    seminorm_violation = _largest(seminorm_gaps)
    return BasisAxiomReport(
        delta_ok=delta_violation <= BASIS_TOL,
        delta_violation=delta_violation,
        parseval_ok=parseval_violation <= BASIS_TOL,
        parseval_violation=parseval_violation,
        seminorm_additive_ok=seminorm_violation <= BASIS_TOL,
        seminorm_violation=seminorm_violation,
        probe_count=len(probes),
    )


def validate_basis(basis: GFrame) -> BasisAxiomReport:
    """Require the two adopted axioms (delta + completeness); report all.

    The report is kept on the immutable family, so a family is measured
    once; a family that fails raises on every call.
    """
    report = basis.kept("basis_report", lambda: basis_axiom_report(basis, probes=()))
    if not (report.delta_ok and report.parseval_ok):
        raise BasisError(
            "candidate family fails the orthonormal-basis axioms: "
            f"delta violation {report.delta_violation:.3e}, "
            f"completeness violation {report.parseval_violation:.3e}"
        )
    return report


def _check_index_compatible(a: GFrame, b: GFrame) -> None:
    """The one index-structure rule for two families taken together: the
    same algebra, domain rank and codomain rank member by member."""
    _check_same_shape(a.shape, b.shape)
    if a.domain_rank != b.domain_rank:
        raise ShapeMismatch(f"domain ranks differ: {a.domain_rank} vs {b.domain_rank}")
    if a.codomain_ranks != b.codomain_ranks:
        raise ShapeMismatch(
            f"codomain ranks differ: {a.codomain_ranks} vs {b.codomain_ranks}"
        )


def g_operator(frame: GFrame, basis: GFrame) -> ModuleOperator:
    """Unique square operator Q with every member F_i = (apply adjoint(Q), then E_i).

    Built as the sum over i of (apply E_i, then adjoint(F_i)); composing
    Q after its own adjoint reproduces the frame operator.  Both families
    are immutable, so Q is built once per basis and kept on the frame.
    """

    def build() -> ModuleOperator:
        _check_index_compatible(frame, basis)
        validate_basis(basis)
        blocks = _member_sum_blocks(basis, frame)
        return ModuleOperator._fresh(frame.shape, (frame.domain_rank,) * 2, blocks)

    return frame.kept(("g_operator", basis), build)


def reconstruct_from_g_operator(q_op: ModuleOperator, basis: GFrame) -> GFrame:
    """Frame with members (apply adjoint(q_op), then E_i)."""
    if q_op.domain_rank != q_op.codomain_rank:
        raise ShapeMismatch("the generating operator must be square")
    if q_op.domain_rank != basis.domain_rank:
        raise BasisError(
            f"operator rank {q_op.domain_rank} != basis rank {basis.domain_rank}"
        )
    adj = q_op.adjoint()
    return GFrame([adj.then(e) for e in basis.members])
