"""Frame recognition relative to a reference operator K.

The lower inequality C * <K'x, K'x> <= sum_i <F_i x, F_i x> (K' the
adjoint of K) holds for some C > 0 exactly when the absolute square of K
is majorized by the frame operator S.  The optimal C is the reciprocal
of the largest quotient of the PSD pencil (KK', S) over the range of S;
directions outside that range admit no positive C and yield an explicit
counterexample vector.  The pencil decides that range once, from the kept
eigendecomposition of S, and its refusal carries the witness direction,
so a counterexample is built from the decision that refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .algebra import (
    TOL_RANK,
    rank_cutoff,
    singular_values_each,
    slack,
    spectral_norms,
    within_slack,
)
from .errors import ShapeMismatch
from .gframes import (
    GFrame,
    _check_square_on_domain,
    embed_direction,
    g_operator,
    optimal_g_bounds,
)
from .modules import ModuleVector, inner
from .operators import (
    TOL_EQ,
    DouglasCertificate,
    ModuleOperator,
    PencilResult,
    _absolute_square_blocks,
    _hermitize,
    _norm_or_blocks,
    douglas,
    pencil_over_spectrum,
    psd_quotient_max,
    range_included,
    uniform_norms,
)

# largest gap of a resolution's member sum from the identity
RESOLUTION_SUM_TOL = 1e-10
# largest deviation a re-evaluated counterexample may show from its record
REEVALUATION_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class CounterexampleCertificate:
    """Witness vector on which the lower frame inequality fails.

    lhs_seminorm / rhs_seminorm are the block-`block` seminorms of the
    two sides of the inequality at scale one; admissible_ceiling =
    rhs/lhs bounds every scale the witness tolerates, so a ceiling at or
    below the rank tolerance proves no positive scale works.
    """

    vector: ModuleVector
    block: int
    lhs_seminorm: float
    rhs_seminorm: float
    margin: float
    admissible_ceiling: float


def _certificate_from_direction(
    frame: GFrame, k_op: ModuleOperator, block: int, direction: np.ndarray
) -> CounterexampleCertificate:
    x = embed_direction(frame.shape, frame.domain_rank, block, direction)
    k_image = k_op.adjoint().apply(x)
    images = [mem.apply(x) for mem in frame.members]
    acc = reduce(add, (inner(y, y) for y in images))
    # both seminorms of the block from one kernel call
    lhs, rhs = spectral_norms(
        [inner(k_image, k_image).blocks[block], acc.blocks[block]]
    )
    big = np.inf if lhs <= 0 else rhs / lhs
    return CounterexampleCertificate(
        vector=x,
        block=block,
        lhs_seminorm=lhs,
        rhs_seminorm=rhs,
        margin=lhs - rhs,
        admissible_ceiling=big,
    )


def reevaluate_counterexample(
    frame: GFrame, k_op: ModuleOperator, cert: CounterexampleCertificate
) -> dict:
    """Recompute a certificate's inequality values through coefficient
    arithmetic (no realization products) and report the deviations."""
    x = cert.vector
    k_image = k_op.adjoint().apply_componentwise(x)
    lhs = inner(k_image, k_image).seminorm(cert.block)
    images = [mem.apply_componentwise(x) for mem in frame.members]
    acc = reduce(add, (inner(y, y) for y in images))
    rhs = acc.seminorm(cert.block)
    margin = lhs - rhs
    return {
        "lhs_seminorm": lhs,
        "rhs_seminorm": rhs,
        "margin": margin,
        "lhs_deviation": abs(lhs - cert.lhs_seminorm),
        "rhs_deviation": abs(rhs - cert.rhs_seminorm),
        "margin_deviation": abs(margin - cert.margin),
    }


@dataclass(frozen=True, eq=False)
class KGFrameReport:
    """Verdict and optimal lower constant of the K-weighted frame inequality."""

    is_k_g_frame: bool
    lower_c: float
    degenerate_zero_k: bool
    pencil: PencilResult
    counterexample: CounterexampleCertificate | None


def is_kg_frame(
    frame: GFrame,
    k_op: ModuleOperator,
    rel_tol: float = TOL_RANK,
) -> KGFrameReport:
    """Decide the frame property relative to K with certificates.

    The verdict is true exactly when the pencil finds the range of the
    absolute square of K inside the range of the frame operator, so that
    some C > 0 satisfies the majorization.  C itself is compared with no
    tolerance, so scaling the frame or K moves C and not the verdict.  A
    false verdict carries a witness vector whose inequality values
    demonstrate the failure.

    The report is kept on the frame, one per (K, rel_tol) pair: the frame
    and K are immutable, so a pair is decided once.
    """
    _check_square_on_domain(frame, k_op)
    return frame.kept(
        ("kg_report", k_op, rel_tol), lambda: _kg_report(frame, k_op, rel_tol)
    )


def _kg_report(frame: GFrame, k_op: ModuleOperator, rel_tol: float) -> KGFrameReport:
    s_spectrum = frame.frame_operator().hermitian_spectrum()
    pencil = pencil_over_spectrum(_absolute_square_blocks(k_op), s_spectrum, rel_tol)
    scale = pencil.lower_scale
    degenerate = not any(b.any() for b in k_op.blocks)
    verdict = (pencil.included and scale > 0.0) or degenerate
    counterexample = None
    # refused out of range, or in range with a quotient overflowed to inf
    # (scale 1/quotient = 0): either way the pencil's direction is the witness
    if not verdict and pencil.direction is not None:
        counterexample = _certificate_from_direction(
            frame, k_op, pencil.block, pencil.direction
        )
    return KGFrameReport(
        is_k_g_frame=verdict,
        lower_c=scale,
        degenerate_zero_k=degenerate,
        pencil=pencil,
        counterexample=counterexample,
    )


def kg_via_range(
    frame: GFrame,
    k_op: ModuleOperator,
    basis: GFrame,
    tol_eq: float = TOL_EQ,
    rel_tol: float = TOL_RANK,
) -> bool:
    """Range route: K factors through the frame's generating operator.

    True exactly when the range of K sits inside the range of the square
    operator extracted against the basis; agrees with the pencil route.
    """
    _check_square_on_domain(frame, k_op)
    q_op = g_operator(frame, basis)
    return range_included(k_op, q_op, tol_eq=tol_eq, rel_tol=rel_tol)


@dataclass(frozen=True)
class TightnessReport:
    """Whether one positive scale equates KK' with the frame operator.

    `ranges_match` reports the separate two-sided range-inclusion test
    between K and the synthesis operator, by the projector route
    (`range_included`) both ways; equal ranges do not by themselves imply
    tightness.
    """

    tight: bool
    scale: float
    residual: float
    ranges_match: bool


def tightness_scale(
    frame: GFrame, k_op: ModuleOperator, tol_eq: float = TOL_EQ
) -> tuple[bool, float, float]:
    """Best single scale A with A*KK' = S: (tight, A, residual), without
    the range comparison `tightness_check` adds."""
    _check_square_on_domain(frame, k_op)
    s_op = frame.frame_operator()
    m_blocks = _absolute_square_blocks(k_op)
    num = 0.0
    den = 0.0
    for m_blk, s_blk in zip(m_blocks, s_op.blocks):
        num += float(np.real(np.sum(m_blk.conj() * s_blk)))
        den += float(np.sum(np.abs(m_blk) ** 2))
    if den == 0.0:
        scale = 1.0
        residual = s_op.uniform_norm()
    else:
        scale = max(num / den, 0.0)
        gap = s_op._like(
            [scale * m_blk - s_blk for m_blk, s_blk in zip(m_blocks, s_op.blocks)]
        )
        residual = gap.uniform_norm()
    tight = within_slack(residual, tol_eq, _norm_or_blocks(s_op))
    return bool(tight and scale > 0.0), scale, residual


def tightness_check(
    frame: GFrame,
    k_op: ModuleOperator,
    tol_eq: float = TOL_EQ,
    rel_tol: float = TOL_RANK,
) -> TightnessReport:
    """Best single scale A with A*KK' = S, plus the range comparison.

    The ranges match when `range_included` finds the range of K inside
    that of the synthesis operator and the synthesis operator's inside
    that of K; the second test is skipped when the first fails.
    """
    tight, scale, residual = tightness_scale(frame, k_op, tol_eq=tol_eq)
    synthesis = frame.synthesis_operator()
    ranges_match = range_included(
        k_op, synthesis, tol_eq=tol_eq, rel_tol=rel_tol
    ) and range_included(synthesis, k_op, tol_eq=tol_eq, rel_tol=rel_tol)
    return TightnessReport(
        tight=tight, scale=scale, residual=residual, ranges_match=ranges_match
    )


@dataclass(frozen=True, eq=False)
class FactorReport:
    """Factorization of K through the square root of the frame operator."""

    ok: bool
    factor: ModuleOperator
    residual: float
    sqrt_op: ModuleOperator
    kg_report: KGFrameReport
    diagnostics: DouglasCertificate | None


def sqrt_factor_check(
    frame: GFrame,
    k_op: ModuleOperator,
    tol_eq: float = TOL_EQ,
    rel_tol: float = TOL_RANK,
) -> FactorReport:
    """Express K as (apply factor, then sqrt(S)); refuse when K is not
    majorized by the frame operator."""
    kg = is_kg_frame(frame, k_op, rel_tol=rel_tol)
    sqrt_op = frame.frame_operator().hermitian_sqrt()
    factor = k_op.then(sqrt_op.pinv(rel_tol=rel_tol))
    residual, k_norm = uniform_norms(factor.then(sqrt_op) - k_op, k_op)
    ok = kg.is_k_g_frame and residual <= slack(tol_eq, k_norm)
    diagnostics = None
    if not ok:
        diagnostics = douglas(k_op, sqrt_op, tol_eq=tol_eq, rel_tol=rel_tol)
    return FactorReport(
        ok=ok,
        factor=factor,
        residual=residual,
        sqrt_op=sqrt_op,
        kg_report=kg,
        diagnostics=diagnostics,
    )


@dataclass(frozen=True, eq=False)
class QuotientReport:
    """Well-definedness and boundedness of the map T x -> F x."""

    well_defined: bool
    bounded: bool
    beta: float
    pencil: PencilResult


def quotient_bounded(
    f_op: ModuleOperator, t_op: ModuleOperator, rel_tol: float = TOL_RANK
) -> QuotientReport:
    """Decide whether sending T x to F x is a bounded operator.

    Well-defined exactly when every vector annihilated by T is
    annihilated by F (checked by a rank test on stacked realizations);
    bounded with the smallest beta satisfying the absolute-square
    majorization, read off the PSD pencil.
    """
    if f_op.shape.sizes != t_op.shape.sizes:
        raise ShapeMismatch("operators live over different algebras")
    if f_op.domain_rank != t_op.domain_rank:
        raise ShapeMismatch(
            f"domain ranks differ: {f_op.domain_rank} vs {t_op.domain_rank}"
        )
    well = True
    count = len(t_op.blocks)
    svals = singular_values_each(
        [*t_op.blocks, *(np.hstack([t, f]) for t, f in zip(t_op.blocks, f_op.blocks))]
    )
    for svals_t, svals_s in zip(svals[:count], svals[count:]):
        cutoff = rank_cutoff(svals_s[0], rel_tol)
        rank_t = int(np.sum(svals_t > cutoff))
        rank_s = int(np.sum(svals_s > cutoff))
        if rank_s != rank_t:
            well = False
    ff = [_hermitize(b @ b.conj().T) for b in f_op.blocks]
    tt = [_hermitize(b @ b.conj().T) for b in t_op.blocks]
    pencil = psd_quotient_max(ff, tt, rel_tol=rel_tol)
    bounded = pencil.included
    beta = float(np.sqrt(pencil.quotient)) if bounded else np.inf
    return QuotientReport(well_defined=well, bounded=bounded, beta=beta, pencil=pencil)


@dataclass(frozen=True, eq=False)
class ResolutionReport:
    """Audit of a family of square operators summing to the identity.

    The frame conclusion is evaluated empirically: either it holds, or
    the counterexample's inequality values re-evaluate identically
    through coefficient arithmetic.  `consistent` is false only for an
    unexplained outcome.
    """

    sums_to_identity: bool
    sum_residual: float
    bessel_upper: float | None
    kg_report: KGFrameReport | None
    conclusion_holds: bool | None
    reevaluation: dict | None
    consistent: bool


def resolution_check(
    psi: GFrame,
    k_op: ModuleOperator,
    rel_tol: float = TOL_RANK,
) -> ResolutionReport:
    """Gate on the identity sum, then audit the frame conclusion."""
    for mem in psi.members:
        if mem.codomain_rank != mem.domain_rank:
            raise ShapeMismatch("resolution members must be square")
    _check_square_on_domain(psi, k_op)
    ident = ModuleOperator.identity(psi.shape, psi.domain_rank)
    sum_residual = (reduce(add, psi.members) - ident).uniform_norm()
    if sum_residual > RESOLUTION_SUM_TOL:
        return ResolutionReport(
            sums_to_identity=False,
            sum_residual=sum_residual,
            bessel_upper=None,
            kg_report=None,
            conclusion_holds=None,
            reevaluation=None,
            consistent=True,
        )
    bessel_upper = optimal_g_bounds(psi).upper
    kg = is_kg_frame(psi, k_op, rel_tol=rel_tol)
    if kg.is_k_g_frame:
        return ResolutionReport(
            sums_to_identity=True,
            sum_residual=sum_residual,
            bessel_upper=bessel_upper,
            kg_report=kg,
            conclusion_holds=True,
            reevaluation=None,
            consistent=True,
        )
    reeval = None
    consistent = False
    if kg.counterexample is not None:
        reeval = reevaluate_counterexample(psi, k_op, kg.counterexample)
        consistent = (
            reeval["lhs_deviation"] <= REEVALUATION_TOL
            and reeval["rhs_deviation"] <= REEVALUATION_TOL
            and reeval["margin"] > 0
        )
    return ResolutionReport(
        sums_to_identity=True,
        sum_residual=sum_residual,
        bessel_upper=bessel_upper,
        kg_report=kg,
        conclusion_holds=False,
        reevaluation=reeval,
        consistent=consistent,
    )
