"""Dual families: verification, canonical construction, and transports.

A family {X_i} is a K-dual of {F_i} when the sum over i of (apply X_i,
then adjoint(F_i)) reproduces K.  All residuals here are computed on the
operator level from realizations; constructions never share their
residual computation with the verifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import (
    TOL_RANK,
    _check_same_shape,
    _largest,
    eigvalsh_each,
    kept_mask,
    singular_values_each,
    spectral_norms,
    within_slack,
)
from .errors import CommutationError, DualityError, IsometryError, ShapeMismatch
from .gframes import (
    GFrame,
    _check_index_compatible,
    _check_square_on_domain,
    _member_sum_blocks,
    g_operator,
    optimal_g_bounds,
)
from .kganalysis import KGFrameReport, is_kg_frame
from .operators import (
    TOL_EQ,
    ModuleOperator,
    PencilResult,
    _hermitize,
    _norm_or_blocks,
    psd_quotient_max,
    uniform_norms,
)

CONDITIONING_RATIO = 1e3
# largest spectral-norm defect of an isometry or coisometry from the identity
ISOMETRY_TOL = 1e-10
# largest commutator norm of a transforming operator with K
COMMUTATION_TOL = 1e-10
# largest gap between a transformed frame operator and its sandwich
SANDWICH_TOL = 1e-10
# absolute room the transformed bounds get outside their envelope
ENVELOPE_SLACK = 1e-8


@dataclass(frozen=True)
class DualCertificate:
    """Operator-level residual of the duality identity."""

    residual: float
    is_dual: bool
    construction: str


def verify_k_dual(
    gamma: GFrame,
    xi: GFrame,
    k_op: ModuleOperator,
    tol_eq: float = TOL_EQ,
    construction: str = "given",
) -> DualCertificate:
    """Measure how far the pair is from satisfying the duality identity.

    The residual is kept on the frame, one per (xi, k_op) pair: all three
    are immutable, so a pair is measured once.
    """
    _check_index_compatible(gamma, xi)
    _check_square_on_domain(gamma, k_op)
    residual = gamma.kept(
        ("dual_residual", xi, k_op),
        lambda: (k_op._like(_member_sum_blocks(xi, gamma)) - k_op).uniform_norm(),
    )
    return DualCertificate(
        residual=residual,
        is_dual=within_slack(residual, tol_eq, _norm_or_blocks(k_op)),
        construction=construction,
    )


@dataclass(frozen=True, eq=False)
class CanonicalDualResult:
    """Constructed dual family with its verification and conditioning data."""

    frame: GFrame
    certificate: DualCertificate
    conditioning_warning: bool
    smallest_retained_ratio: float
    kg_report: KGFrameReport


def canonical_k_dual(
    gamma: GFrame,
    k_op: ModuleOperator,
    tol_eq: float = TOL_EQ,
    rel_tol: float = TOL_RANK,
) -> CanonicalDualResult:
    """Dual members: apply K, then the pseudoinverse of the frame
    operator, then the original member.

    Requires the frame property relative to K; the duality identity then
    holds because the range of the absolute square of K sits inside the
    range of the frame operator.  Reduces to composing with the plain
    inverse when the frame operator is nonsingular.  The spectrum of the
    frame operator compressed to the range of K is examined for
    conditioning only.
    """
    kg = is_kg_frame(gamma, k_op, rel_tol=rel_tol)
    if not kg.is_k_g_frame:
        raise DualityError(
            "the family is not a frame relative to the reference operator; "
            f"optimal lower scale {kg.lower_c:.3e}",
            diagnostics=kg,
        )
    s_op = gamma.frame_operator()
    s_pinv = s_op.pinv(rel_tol=rel_tol)
    prefix = k_op.then(s_pinv)
    xi = GFrame([prefix.then(mem) for mem in gamma.members])
    certificate = verify_k_dual(gamma, xi, k_op, tol_eq=tol_eq, construction="canonical")

    proj_k = k_op.range_projection(rel_tol=rel_tol)
    smallest_ratio = np.inf
    for svals in singular_values_each(
        [p_blk @ s_blk for p_blk, s_blk in zip(proj_k.blocks, s_op.blocks)]
    ):
        retained = svals[kept_mask(svals, rel_tol)]
        if retained.size:  # a zero block retains nothing
            smallest_ratio = min(smallest_ratio, float(retained[-1] / svals[0]))
    warning = smallest_ratio < CONDITIONING_RATIO * rel_tol
    return CanonicalDualResult(
        frame=xi,
        certificate=certificate,
        conditioning_warning=bool(warning),
        smallest_retained_ratio=smallest_ratio,
        kg_report=kg,
    )


def dual_via_g_operators(
    gamma: GFrame,
    xi: GFrame,
    basis: GFrame,
    k_op: ModuleOperator,
    tol_eq: float = TOL_EQ,
) -> bool:
    """Product route: extract both square operators against the basis and
    test whether the first composed after the adjoint of the second is K."""
    _check_index_compatible(gamma, xi)
    _check_square_on_domain(gamma, k_op)
    q_op = g_operator(gamma, basis)
    p_op = g_operator(xi, basis)
    product = p_op.adjoint().then(q_op)
    return within_slack((product - k_op).blocks, tol_eq, _norm_or_blocks(k_op))


@dataclass(frozen=True, eq=False)
class TransportedDualResult:
    """Dual pair conjugated onto a smaller module."""

    gamma: GFrame
    xi: GFrame
    k_op: ModuleOperator
    certificate: DualCertificate
    base_certificate: DualCertificate


def _require_isometries(
    w_ops: Sequence[ModuleOperator], adjoint_first: bool
) -> None:
    """Raise IsometryError at the first operator whose composite with its
    own adjoint (adjoint applied first or second) deviates from the
    identity by more than ISOMETRY_TOL.  An operator listed more than once
    is gated once; the defect is measured only for the message."""
    gaps = []
    for w_op in {id(w_op): w_op for w_op in w_ops}.values():
        grams = [b.conj().T @ b if adjoint_first else b @ b.conj().T for b in w_op.blocks]
        gaps.append([g - np.eye(g.shape[0]) for g in grams])
    # every operator is gated before the first failure is raised, so a NaN
    # block raises LinAlgError wherever it sits
    passed = [within_slack(op_gaps, ISOMETRY_TOL, 0.0) for op_gaps in gaps]
    for op_gaps, ok in zip(gaps, passed):
        if not ok:
            defect = _largest(spectral_norms(op_gaps))
            raise IsometryError(
                f"composite with the adjoint deviates from the identity by {defect:.3e}"
            )


def coisometry_transport(
    gamma: GFrame,
    xi: GFrame,
    k_op: ModuleOperator,
    w_op: ModuleOperator,
    tol_eq: float = TOL_EQ,
) -> TransportedDualResult:
    """Conjugate a dual pair by an operator whose composite with its own
    adjoint (adjoint applied first) is the identity.

    The members are pre-composed with the adjoint and the reference
    operator is conjugated onto the new domain, so the duality residual
    can only shrink; strictly smaller codomains shrink the module.
    """
    _check_square_on_domain(gamma, k_op)
    _check_same_shape(gamma.shape, w_op.shape)
    if w_op.domain_rank != gamma.domain_rank:
        raise ShapeMismatch(
            f"transport operator domain rank {w_op.domain_rank} "
            f"!= frame domain rank {gamma.domain_rank}"
        )
    _require_isometries([w_op], adjoint_first=True)
    base = verify_k_dual(gamma, xi, k_op, tol_eq=tol_eq)
    if not base.is_dual:
        raise DualityError(
            f"input pair is not a dual pair (residual {base.residual:.3e})",
            diagnostics=base,
        )
    adj = w_op.adjoint()
    new_gamma = GFrame([adj.then(mem) for mem in gamma.members])
    new_xi = GFrame([adj.then(mem) for mem in xi.members])
    new_k = adj.then(k_op).then(w_op)
    certificate = verify_k_dual(
        new_gamma, new_xi, new_k, tol_eq=tol_eq, construction="transported"
    )
    return TransportedDualResult(
        gamma=new_gamma,
        xi=new_xi,
        k_op=new_k,
        certificate=certificate,
        base_certificate=base,
    )


@dataclass(frozen=True, eq=False)
class CombinedDualResult:
    frame: GFrame
    certificate: DualCertificate


def combine_duals(
    gamma: GFrame,
    phi: GFrame,
    xi: GFrame,
    k_op: ModuleOperator,
    t1: ModuleOperator,
    t2: ModuleOperator,
    tol_eq: float = TOL_EQ,
) -> CombinedDualResult:
    """Mix two duals of the same frame through two square weights.

    Member i of the result applies the first weight then the first
    dual's member, plus the same with the second pair.  When the weights
    sum to the identity the result is again a dual; for an invertible
    reference operator the residual grows at least proportionally to the
    weight-sum gap times its smallest singular value.
    """
    _check_square_on_domain(gamma, k_op)
    for t_op in (t1, t2):
        if not (t_op.domain_rank == t_op.codomain_rank == gamma.domain_rank):
            raise ShapeMismatch("weights must be square on the frame domain")
    for name, cand in (("first", phi), ("second", xi)):
        cert = verify_k_dual(gamma, cand, k_op, tol_eq=tol_eq)
        if not cert.is_dual:
            raise DualityError(
                f"the {name} family is not a dual of the frame "
                f"(residual {cert.residual:.3e})",
                diagnostics=cert,
            )
    members = [
        t1.then(p_mem) + t2.then(x_mem)
        for p_mem, x_mem in zip(phi.members, xi.members)
    ]
    combined = GFrame(members)
    certificate = verify_k_dual(
        gamma, combined, k_op, tol_eq=tol_eq, construction="combined"
    )
    return CombinedDualResult(frame=combined, certificate=certificate)


@dataclass(frozen=True, eq=False)
class PerturbationReport:
    """Adding a second family to a dual: verdict and overlap predicate."""

    is_dual: bool
    certificate: DualCertificate
    overlap_norm: float
    predicate: bool
    agree: bool


def zero_overlap_perturbation(
    gamma: GFrame,
    v_dual: GFrame,
    xi: GFrame,
    basis: GFrame,
    k_op: ModuleOperator,
    tol_eq: float = TOL_EQ,
) -> PerturbationReport:
    """Member-wise sum of a dual and another family stays a dual exactly
    when the two extracted square operators have orthogonal products.

    The overlap predicate measures the composite of the frame's square
    operator after the adjoint of the perturbation's square operator.
    """
    _check_index_compatible(gamma, v_dual)
    _check_index_compatible(gamma, xi)
    base = verify_k_dual(gamma, v_dual, k_op, tol_eq=tol_eq)
    if not base.is_dual:
        raise DualityError(
            f"the given family is not a dual (residual {base.residual:.3e})",
            diagnostics=base,
        )
    perturbed = GFrame(
        [v_mem + x_mem for v_mem, x_mem in zip(v_dual.members, xi.members)]
    )
    certificate = verify_k_dual(
        gamma, perturbed, k_op, tol_eq=tol_eq, construction="perturbed"
    )
    q_op = g_operator(gamma, basis)
    p_op = g_operator(xi, basis)
    overlap_norm = p_op.adjoint().then(q_op).uniform_norm()
    predicate = within_slack(overlap_norm, tol_eq, _norm_or_blocks(k_op))
    return PerturbationReport(
        is_dual=certificate.is_dual,
        certificate=certificate,
        overlap_norm=overlap_norm,
        predicate=predicate,
        agree=certificate.is_dual == predicate,
    )


@dataclass(frozen=True, eq=False)
class TransformReport:
    """Frame pre-composed with the adjoint of a commuting operator.

    Measured bounds are taken on the range of the transforming operator;
    the envelope scales the original constants by the squared norms of
    the operator and of its pseudoinverse.
    """

    frame: GFrame
    sandwich_residual: float
    sandwich_ok: bool
    measured_lower: float
    measured_upper: float
    envelope_lower: float
    envelope_upper: float
    within_envelope: bool
    pencil: PencilResult


def transform_by_q(
    gamma: GFrame,
    k_op: ModuleOperator,
    q_op: ModuleOperator,
    tol_eq: float = TOL_EQ,
    rel_tol: float = TOL_RANK,
) -> TransformReport:
    """Transform members by pre-composing with the adjoint of q_op.

    Requires q_op to commute with the reference operator; the new frame
    operator is the old one conjugated by q_op, and the new optimal
    bounds on the range of q_op stay inside the predicted envelope.
    """
    _check_square_on_domain(gamma, k_op)
    _check_square_on_domain(gamma, q_op)
    comm = (k_op.then(q_op) - q_op.then(k_op)).uniform_norm()
    if comm > COMMUTATION_TOL:
        raise CommutationError(
            f"operators do not commute: commutator norm {comm:.3e}"
        )
    adj = q_op.adjoint()
    new_frame = GFrame([adj.then(mem) for mem in gamma.members])
    s_new = new_frame.frame_operator()
    s_old = gamma.frame_operator()
    sandwich = adj.then(s_old).then(q_op)

    lower_c = is_kg_frame(gamma, k_op, rel_tol=rel_tol).lower_c
    upper_d = optimal_g_bounds(gamma).upper
    proj = q_op.range_projection(rel_tol=rel_tol)
    s_comp = [
        _hermitize(p @ s @ p) for p, s in zip(proj.blocks, s_new.blocks)
    ]
    m_comp = [
        _hermitize(p @ (b.conj().T @ b) @ p)
        for p, b in zip(proj.blocks, k_op.blocks)
    ]
    pencil = psd_quotient_max(m_comp, s_comp, rel_tol=rel_tol)
    measured_lower = pencil.lower_scale
    measured_upper = max(float(lam[-1]) for lam in eigvalsh_each(s_comp))
    sandwich_residual, q_norm, q_pinv_norm = uniform_norms(
        s_new - sandwich, q_op, q_op.pinv(rel_tol=rel_tol)
    )
    # a zero q_op has range {0}, where every lower scale holds
    envelope_lower = (
        lower_c / (q_pinv_norm**2)
        if np.isfinite(lower_c) and q_pinv_norm > 0
        else np.inf
    )
    envelope_upper = upper_d * q_norm**2
    within = (
        measured_lower >= envelope_lower - ENVELOPE_SLACK
        and measured_upper <= envelope_upper + ENVELOPE_SLACK
    )
    return TransformReport(
        frame=new_frame,
        sandwich_residual=sandwich_residual,
        sandwich_ok=sandwich_residual <= SANDWICH_TOL,
        measured_lower=measured_lower,
        measured_upper=measured_upper,
        envelope_lower=envelope_lower,
        envelope_upper=envelope_upper,
        within_envelope=bool(within),
        pencil=pencil,
    )


@dataclass(frozen=True, eq=False)
class IsometryTransformReport:
    """Frame post-composed with isometries: bounds are unchanged."""

    frame: GFrame
    lower_before: float
    lower_after: float
    upper_before: float
    upper_after: float
    max_bound_deviation: float


def isometry_left_transform(
    gamma: GFrame,
    k_op: ModuleOperator,
    w_ops: ModuleOperator | Sequence[ModuleOperator],
    rel_tol: float = TOL_RANK,
) -> IsometryTransformReport:
    """Post-compose every member with an isometry (composite with its own
    adjoint, adjoint applied second, is the identity on the member
    codomain); the frame operator is unchanged, so both optimal bounds
    are preserved."""
    _check_square_on_domain(gamma, k_op)
    if isinstance(w_ops, ModuleOperator):
        w_list = [w_ops] * len(gamma.members)
    else:
        w_list = list(w_ops)
        if len(w_list) != len(gamma.members):
            raise ShapeMismatch(
                f"expected {len(gamma.members)} isometries, got {len(w_list)}"
            )
    for mem, w_op in zip(gamma.members, w_list):
        _check_same_shape(gamma.shape, w_op.shape)
        if w_op.domain_rank != mem.codomain_rank:
            raise ShapeMismatch(
                f"isometry domain rank {w_op.domain_rank} does not match "
                f"member codomain rank {mem.codomain_rank}"
            )
    _require_isometries(w_list, adjoint_first=False)
    new_frame = GFrame(
        [mem.then(w_op) for mem, w_op in zip(gamma.members, w_list)]
    )
    lower_before = is_kg_frame(gamma, k_op, rel_tol=rel_tol).lower_c
    lower_after = is_kg_frame(new_frame, k_op, rel_tol=rel_tol).lower_c
    upper_before = optimal_g_bounds(gamma).upper
    upper_after = optimal_g_bounds(new_frame).upper
    if np.isinf(lower_before) and np.isinf(lower_after):
        lower_dev = 0.0
    else:
        lower_dev = abs(lower_after - lower_before)
    return IsometryTransformReport(
        frame=new_frame,
        lower_before=lower_before,
        lower_after=lower_after,
        upper_before=upper_before,
        upper_after=upper_after,
        max_bound_deviation=max(lower_dev, abs(upper_after - upper_before)),
    )
