"""Randomized verification suite with re-checkable failure records.

Every registered check states one verifiable property of the library's
constructions and decides it on freshly generated instances.  A check is
a pure function of its `Trial` (config, check id, trial index): every
seed it draws from comes from `Trial.seed`, the suite's one seed rule, so
any failure can be regenerated and re-measured bit for bit.

One check (``identity_resolution``) is an audit rather than an
assertion: its conclusion is expected but not forced, and a disproving
instance is recorded as a counterexample after its inequality values
re-evaluate identically through an independent arithmetic path.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Callable

import numpy as np

from .algebra import TOL_PSD, TOL_RANK, kept_mask, psd_verdicts, slack
from .duality import (
    canonical_k_dual,
    coisometry_transport,
    combine_duals,
    dual_via_g_operators,
    isometry_left_transform,
    transform_by_q,
    verify_k_dual,
    zero_overlap_perturbation,
)
from .errors import CommutationError, IsometryError, KGFrameError
from .generators import (
    GENERATOR_NAME,
    TIGHT_SCALES,
    Caps,
    GenSpec,
    Instance,
    clamped_square,
    draw_spec,
    generate,
    module_projector,
    random_isometry,
    random_vector,
    spec_to_dict,
    sub_seed,
)
from .gframes import (
    GFrame,
    frame_distance,
    g_operator,
    is_g_complete,
    optimal_g_bounds,
    reconstruct_from_g_operator,
)
from .kganalysis import (
    KGFrameReport,
    QuotientReport,
    is_kg_frame,
    kg_via_range,
    quotient_bounded,
    resolution_check,
    sqrt_factor_check,
    tightness_check,
    tightness_scale,
)
from .modules import max_vector_seminorms
from .operators import TOL_EQ, ModuleOperator, uniform_norms
from .version import __version__

FORMAT_VERSION = "1"

REVALIDATION_TOL = 1e-10


@dataclass(frozen=True)
class SuiteConfig:
    """Immutable run parameters; two equal configs give equal documents."""

    trials: int = 50
    seed: int = 0
    check_ids: tuple[str, ...] | None = None
    caps: Caps = field(default_factory=Caps)
    tol_eq: float = TOL_EQ
    tol_psd: float = TOL_PSD
    rel_tol: float = TOL_RANK
    fault_injection: Callable[[str, int, Instance], Instance] | None = None


@dataclass(frozen=True)
class TrialOutcome:
    ok: bool
    measured: dict
    specs: tuple[dict, ...]
    message: str = ""
    audited: dict | None = None


@dataclass(frozen=True)
class FailureRecord:
    """Everything needed to regenerate and re-measure a failed trial."""

    check_id: str
    trial: int
    specs: tuple[dict, ...]
    measured: dict
    message: str


@dataclass(frozen=True)
class TheoremReport:
    check_id: str
    statement: str
    trials: int
    passes: int
    failures: tuple[FailureRecord, ...]
    audited_counterexamples: tuple[dict, ...]


@dataclass(frozen=True)
class SuiteResult:
    config: SuiteConfig
    reports: tuple[TheoremReport, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passes == r.trials for r in self.reports)

    @property
    def audited_total(self) -> int:
        return sum(len(r.audited_counterexamples) for r in self.reports)


# -- helpers --------------------------------------------------------------


def _outcome(
    ok: bool,
    measured: dict,
    message: str,
    *instances: Instance,
    audited: dict | None = None,
) -> TrialOutcome:
    """A trial's outcome: specs from its instances, the message only on a
    failure, and every measured value a plain bool or float."""
    return TrialOutcome(
        ok=ok,
        measured={
            key: bool(val) if isinstance(val, (bool, np.bool_)) else float(val)
            for key, val in measured.items()
        },
        specs=tuple(spec_to_dict(inst.spec) for inst in instances),
        message="" if ok else message,
        audited=audited,
    )


@dataclass(frozen=True)
class Trial:
    """One trial of one check; every draw it makes is seeded through `seed`.

    `seed` is the suite's one seed rule: the first 8 bytes (big-endian)
    of the sha256 of "{seed}:{check_id}[#tag]:{trial}".  The decision
    inputs are read from the config.
    """

    config: SuiteConfig
    check_id: str
    index: int

    @property
    def tol_eq(self) -> float:
        return self.config.tol_eq

    @property
    def tol_psd(self) -> float:
        return self.config.tol_psd

    @property
    def rel_tol(self) -> float:
        return self.config.rel_tol

    def seed(self, tag: str | None = None) -> int:
        name = self.check_id if tag is None else f"{self.check_id}#{tag}"
        return sub_seed(self.config.seed, name, self.index)

    def rng(self, tag: str) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self.seed(tag)))

    def make(self, kind: str, **draw_kwargs) -> Instance:
        return self.generate(
            draw_spec(kind, self.seed(), self.config.caps, **draw_kwargs)
        )

    def generate(self, spec: GenSpec) -> Instance:
        """The instance of `spec`, after the config's fault injection."""
        inst = generate(spec, self.config.caps)
        if self.config.fault_injection is not None:
            injected = self.config.fault_injection(self.check_id, self.index, inst)
            if injected is not None:
                inst = injected
        return inst


def _raises(error: type[Exception], fn: Callable, *args, **kwargs) -> bool:
    """Whether fn(*args, **kwargs) raises `error`."""
    try:
        fn(*args, **kwargs)
    except error:
        return True
    return False


def _abs_square(op: ModuleOperator) -> ModuleOperator:
    return op.adjoint().then(op)


def _order_probe(
    s_op: ModuleOperator, abs_sq: ModuleOperator, lower_c: float, tol_psd: float
) -> tuple[bool, float, float | None]:
    """Whether S - c|K|^2 is positive at c = lower_c (1 - 1e-9) and, when
    lower_c > 1e-5, not positive at c = 2 lower_c; with the minimum
    eigenvalue at each scale probed (None for the second when skipped).
    Both scales are decided by one `psd_verdicts` call."""
    scales = [lower_c * (1.0 - 1e-9)]
    if lower_c > 1e-5:
        scales.append(lower_c * 2.0)
    below, *above = psd_verdicts(
        [(s_op - abs_sq.scale(c)).blocks for c in scales], tol_psd=tol_psd
    )
    if not above:
        return below.is_positive, below.min_eigenvalue, None
    return (
        below.is_positive and not above[0].is_positive,
        below.min_eigenvalue,
        above[0].min_eigenvalue,
    )


# -- checks ---------------------------------------------------------------


def _check_synthesis_bound(t: Trial) -> TrialOutcome:
    inst = t.make("generic")
    frame = inst.frame
    ana = frame.analysis_operator()
    syn = frame.synthesis_operator()
    syn_norm, adjoint_res, s_res = uniform_norms(
        syn, syn - ana.adjoint(), ana.then(syn) - frame.frame_operator()
    )
    upper = optimal_g_bounds(frame).upper
    bessel_dev = abs(syn_norm**2 - upper)
    rng = t.rng("probe")
    g_vecs = [
        random_vector(rng, inst.shape, frame.total_codomain_rank) for _ in range(3)
    ]
    seminorms = max_vector_seminorms(*(syn.apply(g) for g in g_vecs), *g_vecs)
    bound_margin = 0.0
    for out, g_seminorm in zip(seminorms[:3], seminorms[3:]):
        bound_margin = max(bound_margin, out - syn_norm * g_seminorm)
    ok = (
        adjoint_res <= slack(1e-12, syn_norm)
        and s_res <= slack(1e-10, upper)
        and bessel_dev <= slack(t.tol_eq, upper)
        and bound_margin <= slack(1e-9, syn_norm)
    )
    measured = {
        "adjoint_residual": adjoint_res,
        "frame_operator_residual": s_res,
        "bessel_deviation": bessel_dev,
        "sampled_bound_margin": bound_margin,
    }
    return _outcome(ok, measured, "synthesis operator identities violated", inst)


def _psd_agreement(frame: GFrame, k_op: ModuleOperator, t: Trial) -> dict:
    rep = is_kg_frame(frame, k_op, rel_tol=t.rel_tol)
    abs_sq = _abs_square(k_op)
    s_op = frame.frame_operator()
    out = {"verdict": rep.is_k_g_frame, "lower_c": rep.lower_c, "ok": True}
    if rep.is_k_g_frame and np.isfinite(rep.lower_c) and rep.lower_c > 0:
        out["ok"], out["min_eig_at_optimum"], above = _order_probe(
            s_op, abs_sq, rep.lower_c, t.tol_psd
        )
        if above is not None:
            out["min_eig_above_optimum"] = above
    elif not rep.is_k_g_frame:
        probe = slack(1e-3, s_op.uniform_norm()) / (1.0 + abs_sq.uniform_norm())
        verdict_probe = (s_op - abs_sq.scale(probe)).positivity(tol_psd=t.tol_psd)
        out["min_eig_at_probe"] = verdict_probe.min_eigenvalue
        out["ok"] = not verdict_probe.is_positive
    return out


def _check_psd_frame_criterion(t: Trial) -> TrialOutcome:
    inst_a = t.make("generic", rich=True)
    inst_b = t.make("rank_deficient_K", k_inside=(t.index % 2 == 0))
    part_a = _psd_agreement(inst_a.frame, inst_a.k_op, t)
    part_b = _psd_agreement(inst_b.frame, inst_b.k_op, t)
    ok = part_a["ok"] and part_b["ok"]
    measured = {
        "generic_lower_c": part_a["lower_c"],
        "generic_verdict": part_a["verdict"],
        "deficient_lower_c": part_b["lower_c"],
        "deficient_verdict": part_b["verdict"],
    }
    for key in ("min_eig_at_optimum", "min_eig_above_optimum", "min_eig_at_probe"):
        if key in part_a:
            measured[f"generic_{key}"] = part_a[key]
        if key in part_b:
            measured[f"deficient_{key}"] = part_b[key]
    return _outcome(
        ok,
        measured,
        "positivity verdicts disagree with the optimal scale",
        inst_a,
        inst_b,
    )


def _check_completeness_span(t: Trial) -> TrialOutcome:
    inst = t.make("generic")
    frame = inst.frame
    complete = is_g_complete(frame, rel_tol=t.rel_tol)
    bounds = optimal_g_bounds(frame)
    framey = bounds.is_frame(t.rel_tol)
    proj = module_projector(inst.shape, frame.domain_rank, 0)
    killed = GFrame([proj.then(mem) for mem in frame.members])
    killed_complete = is_g_complete(killed, rel_tol=t.rel_tol)
    killed_bounds = optimal_g_bounds(killed)
    ok = (
        complete == framey
        and not killed_complete
        and not killed_bounds.is_frame(t.rel_tol)
    )
    measured = {
        "complete": complete,
        "has_positive_lower_bound": framey,
        "lower_bound": bounds.lower,
        "killed_lower_bound": killed_bounds.lower,
    }
    return _outcome(ok, measured, "completeness and frame verdicts disagree", inst)


def _check_g_operator_roundtrip(t: Trial) -> TrialOutcome:
    inst = t.make("generic", basis_compatible=True)
    rng = t.rng("square")
    q0 = clamped_square(rng, inst.shape, inst.spec.module_rank)
    frame = reconstruct_from_g_operator(q0, inst.basis)
    q_back = g_operator(frame, inst.basis)
    s_op = frame.frame_operator()
    q_dist, product_res, s_norm = uniform_norms(
        q_back - q0, q_back.adjoint().then(q_back) - s_op, s_op
    )
    gaps, lhss = [], []
    for _ in range(2):
        x_vec = random_vector(rng, inst.shape, inst.spec.module_rank)
        lhs = q_back.apply(x_vec)
        rhs = None
        for mem, e_mem in zip(frame.members, inst.basis.members):
            term = mem.adjoint().apply(e_mem.apply(x_vec))
            rhs = term if rhs is None else rhs + term
        gaps.append(lhs - rhs)
        lhss.append(lhs)
    seminorms = max_vector_seminorms(*gaps, *lhss)
    recon_dev = 0.0
    for gap, size in zip(seminorms[:2], seminorms[2:]):
        recon_dev = max(recon_dev, gap / (1.0 + size))
    ok = (
        q_dist <= 1e-10
        and product_res <= slack(1e-10, s_norm)
        and recon_dev <= 1e-12
    )
    measured = {
        "extraction_distance": q_dist,
        "product_residual": product_res,
        "reconstruction_deviation": recon_dev,
    }
    return _outcome(
        ok, measured, "square-operator extraction failed to round-trip", inst
    )


_RANGE_VARIANTS = (
    ("generic", {"basis_compatible": True}),
    ("rank_deficient_K", {"basis_compatible": True, "k_inside": True}),
    ("rank_deficient_K", {"basis_compatible": True, "k_inside": False}),
)


def _check_range_inclusion(t: Trial) -> TrialOutcome:
    kind, kwargs = _RANGE_VARIANTS[t.index % 3]
    inst = t.make(kind, **kwargs)
    rep = is_kg_frame(inst.frame, inst.k_op, rel_tol=t.rel_tol)
    via_range = kg_via_range(
        inst.frame, inst.k_op, inst.basis, tol_eq=t.tol_eq, rel_tol=t.rel_tol
    )
    ok = rep.is_k_g_frame == via_range
    measured = {
        "pencil_verdict": rep.is_k_g_frame,
        "range_verdict": via_range,
        "lower_c": rep.lower_c,
    }
    return _outcome(ok, measured, "pencil and range routes disagree", inst)


def _parseval_signature(
    base: GFrame, k_op: ModuleOperator, t: Trial
) -> tuple[bool, float, float]:
    """Tightness verdict and scale of {member after adjoint(K)} against K."""
    weighted = GFrame([k_op.adjoint().then(mem) for mem in base.members])
    tight, scale, residual = tightness_scale(weighted, k_op, tol_eq=t.tol_eq)
    parseval = tight and abs(scale - 1.0) <= 1e-8
    return parseval, scale, residual


def _check_coisometric_parseval(t: Trial) -> TrialOutcome:
    inst = t.make("coisometry", basis_compatible=True)
    q_uni = inst.extras["q_unitary"]
    k_op = inst.k_op
    ident = ModuleOperator.identity(inst.shape, inst.spec.module_rank)

    frame_pos = reconstruct_from_g_operator(q_uni, inst.basis)
    parseval_pos, scale_pos, residual_pos = _parseval_signature(frame_pos, k_op, t)

    q_scaled = q_uni.scale(1.3)
    frame_scaled = reconstruct_from_g_operator(q_scaled, inst.basis)
    parseval_scaled, scale_scaled, _ = _parseval_signature(frame_scaled, k_op, t)

    rng = t.rng("skew")
    q_generic = clamped_square(rng, inst.shape, inst.spec.module_rank)
    frame_generic = reconstruct_from_g_operator(q_generic, inst.basis)
    parseval_generic, _, _ = _parseval_signature(frame_generic, k_op, t)
    # distance of each Q* Q from the identity, from one kernel call
    defect_pos, defect_scaled, defect_generic = uniform_norms(
        *(q.adjoint().then(q) - ident for q in (q_uni, q_scaled, q_generic))
    )

    ok = (
        defect_pos <= 1e-10
        and parseval_pos
        and defect_scaled > 1e-6
        and not parseval_scaled
        and (parseval_generic == (defect_generic <= 1e-10))
    )
    measured = {
        "unitary_defect": defect_pos,
        "parseval_scale": scale_pos,
        "parseval_residual": residual_pos,
        "scaled_defect": defect_scaled,
        "scaled_scale": scale_scaled,
        "generic_defect": defect_generic,
        "generic_parseval": parseval_generic,
    }
    return _outcome(
        ok, measured, "co-isometry and unit-scale tightness disagree", inst
    )


def _check_dual_product(t: Trial) -> TrialOutcome:
    inst = t.make("generic", basis_compatible=True)
    rng = t.rng("pair")
    d = inst.spec.module_rank
    q0 = clamped_square(rng, inst.shape, d)
    p0 = clamped_square(rng, inst.shape, d)
    gamma = reconstruct_from_g_operator(q0, inst.basis)
    xi = reconstruct_from_g_operator(p0, inst.basis)
    k_op = p0.adjoint().then(q0)
    cert = verify_k_dual(gamma, xi, k_op, tol_eq=t.tol_eq)
    via = dual_via_g_operators(gamma, xi, inst.basis, k_op, tol_eq=t.tol_eq)
    k_bad = k_op.scale(1.01)
    cert_bad = verify_k_dual(gamma, xi, k_bad, tol_eq=t.tol_eq)
    via_bad = dual_via_g_operators(gamma, xi, inst.basis, k_bad, tol_eq=t.tol_eq)
    ok = (
        cert.is_dual
        and via
        and not cert_bad.is_dual
        and not via_bad
    )
    measured = {
        "residual": cert.residual,
        "product_route": via,
        "off_target_residual": cert_bad.residual,
        "off_target_product_route": via_bad,
    }
    return _outcome(
        ok, measured, "duality and operator-product routes disagree", inst
    )


def _check_canonical_dual(t: Trial) -> TrialOutcome:
    if t.index % 2 == 0:
        inst = t.make("generic", basis_compatible=True)
        rng = t.rng("square")
        q0 = clamped_square(rng, inst.shape, inst.spec.module_rank)
        frame = reconstruct_from_g_operator(q0, inst.basis)
        k_op = inst.k_op
        result = canonical_k_dual(frame, k_op, tol_eq=t.tol_eq, rel_tol=t.rel_tol)
        # S^-1 by np.linalg.inv alone, sharing nothing with the pseudoinverse
        s_op = frame.frame_operator()
        s_inv = ModuleOperator(
            s_op.shape, *s_op.dims, [np.linalg.inv(b) for b in s_op.blocks]
        )
        prefix = k_op.then(s_inv)
        direct = GFrame([prefix.then(mem) for mem in frame.members])
        direct_dist = frame_distance(result.frame, direct)
        ok = (
            result.certificate.is_dual
            and result.certificate.residual <= slack(t.tol_eq, k_op.uniform_norm())
            and direct_dist <= 1e-9
        )
        measured = {
            "residual": result.certificate.residual,
            "plain_inverse_distance": direct_dist,
            "retained_ratio": result.smallest_retained_ratio,
        }
    else:
        inst = t.make("rank_deficient_K", k_inside=True, rich=True)
        result = canonical_k_dual(
            inst.frame, inst.k_op, tol_eq=t.tol_eq, rel_tol=t.rel_tol
        )
        ok = result.certificate.is_dual and result.certificate.residual <= slack(
            t.tol_eq, inst.k_op.uniform_norm()
        )
        measured = {
            "residual": result.certificate.residual,
            "retained_ratio": result.smallest_retained_ratio,
            "conditioning_warning": result.conditioning_warning,
        }
    return _outcome(
        ok, measured, "canonical dual construction failed verification", inst
    )


def _orthogonal_complement_square(
    q_op: ModuleOperator, rng, rel_tol: float
) -> ModuleOperator:
    """Square operator whose realization columns live in the orthogonal
    complement of the realization columns of q_op (zero where full rank)."""
    blocks = []
    for blk in q_op.blocks:
        dim = blk.shape[0]
        u, svals, _ = np.linalg.svd(blk)
        rank = int(np.sum(kept_mask(svals, rel_tol)))
        null_basis = u[:, rank:]
        if null_basis.shape[1] == 0:
            blocks.append(np.zeros((dim, dim), dtype=complex))
            continue
        mix = (
            rng.standard_normal((null_basis.shape[1], dim))
            + 1j * rng.standard_normal((null_basis.shape[1], dim))
        ) / np.sqrt(dim)
        blocks.append(null_basis @ mix)
    return q_op._like(blocks)


def _check_zero_overlap(t: Trial) -> TrialOutcome:
    inst = t.make("rank_deficient_K", basis_compatible=True, k_inside=True)
    frame, k_op, basis = inst.frame, inst.k_op, inst.basis
    v_dual = canonical_k_dual(frame, k_op, tol_eq=t.tol_eq, rel_tol=t.rel_tol).frame
    q_op = g_operator(frame, basis)
    rng = t.rng("complement")
    p_op = _orthogonal_complement_square(q_op, rng, t.rel_tol)
    xi = reconstruct_from_g_operator(p_op, basis)
    rep_pos = zero_overlap_perturbation(frame, v_dual, xi, basis, k_op, tol_eq=t.tol_eq)
    xi_bad = GFrame(
        [x_mem + f_mem for x_mem, f_mem in zip(xi.members, frame.members)]
    )
    rep_neg = zero_overlap_perturbation(
        frame, v_dual, xi_bad, basis, k_op, tol_eq=t.tol_eq
    )
    ok = (
        rep_pos.predicate
        and rep_pos.is_dual
        and rep_pos.agree
        and not rep_neg.predicate
        and not rep_neg.is_dual
        and rep_neg.agree
    )
    measured = {
        "overlap": rep_pos.overlap_norm,
        "residual": rep_pos.certificate.residual,
        "bad_overlap": rep_neg.overlap_norm,
        "bad_residual": rep_neg.certificate.residual,
    }
    return _outcome(
        ok, measured, "overlap predicate disagrees with the duality verdict", inst
    )


def _check_dual_combination(t: Trial) -> TrialOutcome:
    inst = t.make("generic", basis_compatible=True)
    rng = t.rng("weights")
    d = inst.spec.module_rank
    q0 = clamped_square(rng, inst.shape, d)
    frame = reconstruct_from_g_operator(q0, inst.basis)
    k_op = inst.k_op
    xi = canonical_k_dual(frame, k_op, tol_eq=t.tol_eq, rel_tol=t.rel_tol).frame
    ident = ModuleOperator.identity(inst.shape, d)
    half = ident.scale(0.5)
    mid = combine_duals(frame, xi, xi, k_op, half, half, tol_eq=t.tol_eq)
    t1 = clamped_square(rng, inst.shape, d).scale(0.5)
    t2 = ident - t1
    rand = combine_duals(frame, xi, xi, k_op, t1, t2, tol_eq=t.tol_eq)
    gap_dir = clamped_square(rng, inst.shape, d)
    t2_bad = t2 + gap_dir.scale(1e-3)
    bad = combine_duals(frame, xi, xi, k_op, t1, t2_bad, tol_eq=t.tol_eq)
    ok = (
        mid.certificate.is_dual
        and rand.certificate.is_dual
        and not bad.certificate.is_dual
        and bad.certificate.residual >= 1e-4
    )
    measured = {
        "midpoint_residual": mid.certificate.residual,
        "random_residual": rand.certificate.residual,
        "gap_residual": bad.certificate.residual,
    }
    return _outcome(
        ok, measured, "weight-mixing of duals behaved unexpectedly", inst
    )


def _check_order_chain(t: Trial) -> TrialOutcome:
    inst = t.make("generic", rich=True)
    frame, k_op = inst.frame, inst.k_op
    rep = is_kg_frame(frame, k_op, rel_tol=t.rel_tol)
    bounds = optimal_g_bounds(frame)
    s_op = frame.frame_operator()
    abs_sq = _abs_square(k_op)
    ident = ModuleOperator.identity(inst.shape, frame.domain_rank)
    tol_psd = t.tol_psd
    ok = True
    measured = {"lower_c": rep.lower_c, "upper_d": bounds.upper}
    if rep.is_k_g_frame and np.isfinite(rep.lower_c) and rep.lower_c > 0:
        ok, measured["lower_min_eig"], over = _order_probe(
            s_op, abs_sq, rep.lower_c, tol_psd
        )
        if over is not None:
            measured["lower_overshoot_min_eig"] = over
    scales = [bounds.upper]
    if bounds.upper > 1e-6:
        scales.append(bounds.upper * 0.99)
    upper_diff, *under = psd_verdicts(
        [(ident.scale(c) - s_op).blocks for c in scales], tol_psd=tol_psd
    )
    measured["upper_min_eig"] = upper_diff.min_eigenvalue
    ok = ok and upper_diff.is_positive
    if under:
        measured["upper_undershoot_min_eig"] = under[0].min_eigenvalue
        ok = ok and not under[0].is_positive
    return _outcome(
        ok, measured, "operator order chain violated at the optimal constants", inst
    )


_SQRT_VARIANTS = (
    ("generic", {"rich": True}),
    ("rank_deficient_K", {"k_inside": True, "rich": True}),
    ("rank_deficient_K", {"k_inside": False}),
)


def _check_sqrt_factor(t: Trial) -> TrialOutcome:
    kind, kwargs = _SQRT_VARIANTS[t.index % 3]
    inst = t.make(kind, **kwargs)
    rep = sqrt_factor_check(inst.frame, inst.k_op, tol_eq=t.tol_eq, rel_tol=t.rel_tol)
    measured = {"residual": rep.residual, "verdict": rep.kg_report.is_k_g_frame}
    if rep.kg_report.is_k_g_frame:
        factor_norm_sq = rep.factor.uniform_norm() ** 2
        ceiling = np.inf
        if np.isfinite(rep.kg_report.lower_c) and rep.kg_report.lower_c > 0:
            ceiling = 1.0 / rep.kg_report.lower_c
        measured["factor_norm_squared"] = factor_norm_sq
        measured["norm_ceiling"] = ceiling
        ok = (
            rep.ok
            and rep.residual <= slack(t.tol_eq, inst.k_op.uniform_norm())
            and factor_norm_sq - ceiling <= slack(1e-8, ceiling)
        )
    else:
        diag = rep.diagnostics
        measured["diag_included"] = diag.range_included if diag else True
        ok = (
            not rep.ok
            and diag is not None
            and not diag.range_included
            and diag.conditions_agree()
        )
    return _outcome(
        ok, measured, "square-root factorization verdict incoherent", inst
    )


def _check_commuting_transform(t: Trial) -> TrialOutcome:
    inst = t.make("commuting_pair", rich=True)
    q_op = inst.extras["q"]
    rep = transform_by_q(
        inst.frame,
        inst.k_op,
        q_op,
        tol_eq=t.tol_eq,
        rel_tol=t.rel_tol,
    )
    rng = t.rng("noncommuting")
    stray = clamped_square(rng, inst.shape, inst.spec.module_rank)
    commutator = (
        inst.k_op.then(stray) - stray.then(inst.k_op)
    ).uniform_norm()
    if commutator > 1e-6:
        rejected = _raises(
            CommutationError, transform_by_q,
            inst.frame, inst.k_op, stray, tol_eq=t.tol_eq, rel_tol=t.rel_tol,
        )
    else:  # freak commuting draw: nothing to reject
        rejected = True
    ok = rep.sandwich_ok and rep.within_envelope and rejected
    measured = {
        "sandwich_residual": rep.sandwich_residual,
        "measured_lower": rep.measured_lower,
        "measured_upper": rep.measured_upper,
        "envelope_lower": rep.envelope_lower,
        "envelope_upper": rep.envelope_upper,
        "stray_commutator": commutator,
    }
    return _outcome(
        ok, measured, "commuting transform left the predicted envelope", inst
    )


def _check_isometry_transform(t: Trial) -> TrialOutcome:
    inst = t.make("isometry")
    w_op = inst.extras["w"]
    rep_shared = isometry_left_transform(inst.frame, inst.k_op, w_op, rel_tol=t.rel_tol)
    rng = t.rng("per_member")
    c = inst.spec.codomain_ranks[0]
    per_member = [
        random_isometry(rng, inst.shape, c, c + 2)
        for _ in inst.frame.members
    ]
    rep_list = isometry_left_transform(
        inst.frame, inst.k_op, per_member, rel_tol=t.rel_tol
    )
    rejected = _raises(
        IsometryError, isometry_left_transform,
        inst.frame, inst.k_op, w_op.scale(1.2), rel_tol=t.rel_tol,
    )
    ok = (
        rep_shared.max_bound_deviation <= 1e-8
        and rep_list.max_bound_deviation <= 1e-8
        and rejected
    )
    measured = {
        "shared_deviation": rep_shared.max_bound_deviation,
        "per_member_deviation": rep_list.max_bound_deviation,
    }
    return _outcome(
        ok, measured, "isometry post-composition moved the optimal bounds", inst
    )


_REDRAWS = 8


def _non_tight_spec(t: Trial) -> GenSpec | None:
    """Spec of tightness_scaling's generic negative instance.

    A realization of total dimension one makes every complete frame
    tight, so only such a draw is drawn again, under a second tag; after
    _REDRAWS of them the last draw is widened to dimension two.  None
    when the caps admit dimension one only.
    """
    caps = t.config.caps
    rank_cap = min(caps.max_module_rank, caps.max_members * caps.max_codomain_rank)
    if max(caps.max_blocks, caps.max_block_dim, rank_cap) == 1:
        return None
    for redraw in range(_REDRAWS + 1):
        tag = f"redraw{redraw}" if redraw else None
        spec = draw_spec("generic", t.seed(tag), caps, rich=True)
        if sum(spec.block_sizes) * spec.module_rank > 1:
            return spec
    if caps.max_block_dim > 1:
        return replace(spec, block_sizes=(2,))
    if caps.max_blocks > 1:
        return replace(spec, block_sizes=(1, 1))
    ranks = (2,) if caps.max_codomain_rank > 1 else (1, 1)
    return replace(spec, module_rank=2, codomain_ranks=ranks)


def _check_tightness_scaling(t: Trial) -> TrialOutcome:
    scale_choice = TIGHT_SCALES[t.index % len(TIGHT_SCALES)]
    inst = t.make("tight", tight_scale=scale_choice)
    rep = tightness_check(inst.frame, inst.k_op, tol_eq=t.tol_eq, rel_tol=t.rel_tol)
    neg_spec = _non_tight_spec(t)
    measured = {
        "target_scale": scale_choice,
        "recovered_scale": rep.scale,
        "residual": rep.residual,
        "ranges_match": rep.ranges_match,
    }
    instances = [inst]
    neg_tight = False
    if neg_spec is None:
        measured["generic_skipped"] = True
    else:
        neg = t.generate(neg_spec)
        neg_tight, _, neg_residual = tightness_scale(
            neg.frame, neg.k_op, tol_eq=t.tol_eq
        )
        measured["generic_residual"] = neg_residual
        instances.append(neg)
    ok = (
        rep.tight
        and abs(rep.scale - scale_choice) <= 1e-8
        and rep.ranges_match
        and not neg_tight
    )
    return _outcome(ok, measured, "tightness scale recovery failed", *instances)


def _check_identity_resolution(t: Trial) -> TrialOutcome:
    inst = t.make("resolution")
    rep = resolution_check(inst.frame, inst.k_op, rel_tol=t.rel_tol)
    ok = rep.sums_to_identity and rep.consistent
    audited = None
    if rep.sums_to_identity and rep.conclusion_holds is False and rep.consistent:
        audited = {
            "trial": t.index,
            "spec": spec_to_dict(inst.spec),
            "lower_c": float(rep.kg_report.lower_c),
            "reevaluation": {
                key: float(val) for key, val in (rep.reevaluation or {}).items()
            },
        }
    measured = {
        "sum_residual": rep.sum_residual,
        "conclusion_holds": bool(rep.conclusion_holds),
        "lower_c": np.inf if rep.kg_report is None else rep.kg_report.lower_c,
    }
    return _outcome(
        ok,
        measured,
        "resolution audit found an unexplained outcome",
        inst,
        audited=audited,
    )


def _quotient_agreement(
    qrep: QuotientReport, kg: KGFrameReport
) -> tuple[bool, float]:
    """The quotient route's verdict, and the relative deviation of 1/beta^2
    from the pencil's lower_c (0 unless both are positive and finite)."""
    verdict = qrep.well_defined and qrep.bounded
    ratio_dev = 0.0
    if verdict and np.isfinite(kg.lower_c) and kg.lower_c > 0 and qrep.beta > 0:
        recovered = 1.0 / qrep.beta**2
        if np.isfinite(recovered):
            ratio_dev = abs(recovered - kg.lower_c) / kg.lower_c
    return verdict, ratio_dev


def _check_quotient_criterion(t: Trial) -> TrialOutcome:
    kind, kwargs = _SQRT_VARIANTS[t.index % 3]
    inst = t.make(kind, **kwargs)
    sqrt_op = inst.frame.frame_operator().hermitian_sqrt()
    qrep = quotient_bounded(inst.k_op.adjoint(), sqrt_op, rel_tol=t.rel_tol)
    kg = is_kg_frame(inst.frame, inst.k_op, rel_tol=t.rel_tol)
    quotient_verdict, ratio_dev = _quotient_agreement(qrep, kg)
    ok = quotient_verdict == kg.is_k_g_frame and ratio_dev <= 1e-6
    measured = {
        "quotient_verdict": quotient_verdict,
        "pencil_verdict": kg.is_k_g_frame,
        "beta": qrep.beta,
        "ratio_deviation": ratio_dev,
    }
    return _outcome(
        ok, measured, "quotient-boundedness route disagrees with the pencil", inst
    )


def _check_quotient_transform(t: Trial) -> TrialOutcome:
    inst = t.make("generic", rich=True)
    rng = t.rng("square")
    q_op = clamped_square(rng, inst.shape, inst.spec.module_rank)
    moved = GFrame([q_op.then(mem) for mem in inst.frame.members])
    kg_moved = is_kg_frame(moved, inst.k_op, rel_tol=t.rel_tol)
    top = q_op.then(inst.frame.frame_operator().hermitian_sqrt())
    qrep = quotient_bounded(inst.k_op.adjoint(), top, rel_tol=t.rel_tol)
    quotient_verdict, ratio_dev = _quotient_agreement(qrep, kg_moved)
    kg_base = is_kg_frame(inst.frame, inst.k_op, rel_tol=t.rel_tol)
    ok = (
        quotient_verdict == kg_moved.is_k_g_frame
        and kg_moved.is_k_g_frame == kg_base.is_k_g_frame
        and ratio_dev <= 1e-6
    )
    measured = {
        "quotient_verdict": quotient_verdict,
        "moved_verdict": kg_moved.is_k_g_frame,
        "base_verdict": kg_base.is_k_g_frame,
        "ratio_deviation": ratio_dev,
    }
    return _outcome(
        ok, measured, "transformed quotient route disagrees with the pencil", inst
    )


def _check_dual_transport(t: Trial) -> TrialOutcome:
    inst = t.make("coisometry", basis_compatible=True)
    rng = t.rng("square")
    q0 = clamped_square(rng, inst.shape, inst.spec.module_rank)
    frame = reconstruct_from_g_operator(q0, inst.basis)
    k_op = inst.k_op
    xi = canonical_k_dual(frame, k_op, tol_eq=t.tol_eq, rel_tol=t.rel_tol).frame
    w_op = inst.extras["w"]
    rep = coisometry_transport(frame, xi, k_op, w_op, tol_eq=t.tol_eq)
    rejected = _raises(
        IsometryError, coisometry_transport,
        frame, xi, k_op, w_op.scale(1.2), tol_eq=t.tol_eq,
    )
    ok = (
        rep.certificate.is_dual
        and rep.certificate.residual <= rep.base_certificate.residual + 1e-12
        and rejected
    )
    measured = {
        "base_residual": rep.base_certificate.residual,
        "transported_residual": rep.certificate.residual,
    }
    return _outcome(
        ok, measured, "transported pair lost the duality identity", inst
    )


@dataclass(frozen=True)
class CheckDef:
    statement: str
    fn: Callable[[Trial], TrialOutcome]


CHECKS: dict[str, CheckDef] = {
    "synthesis_bound": CheckDef(
        "the coefficient-summing operator is the adjoint of analysis, "
        "composes with analysis to the frame operator, and its norm squared "
        "is the optimal upper bound",
        _check_synthesis_bound,
    ),
    "psd_frame_criterion": CheckDef(
        "the frame verdict relative to K matches positivity of the frame "
        "operator minus the scaled absolute square of K at, and only up to, "
        "the optimal scale",
        _check_psd_frame_criterion,
    ),
    "completeness_span": CheckDef(
        "analysis has full rank exactly when the optimal lower bound is "
        "positive, and killing a module direction destroys both",
        _check_completeness_span,
    ),
    "g_operator_roundtrip": CheckDef(
        "extracting the square operator against an orthonormal family "
        "inverts the member construction, reconstructs vectors, and its "
        "absolute square is the frame operator",
        _check_g_operator_roundtrip,
    ),
    "range_inclusion_criterion": CheckDef(
        "the pencil verdict equals range inclusion of K inside the "
        "extracted square operator",
        _check_range_inclusion,
    ),
    "coisometric_parseval": CheckDef(
        "the K-weighted family is unit-scale tight exactly when the "
        "generating square operator composed with its adjoint is the "
        "identity",
        _check_coisometric_parseval,
    ),
    "dual_product_criterion": CheckDef(
        "two families are a K-dual pair exactly when K is the composite of "
        "one extracted square operator after the adjoint of the other",
        _check_dual_product,
    ),
    "canonical_dual_residual": CheckDef(
        "the pseudoinverse dual construction always verifies, and reduces "
        "to the plain-inverse formula when the frame operator is "
        "nonsingular",
        _check_canonical_dual,
    ),
    "zero_overlap": CheckDef(
        "adding a family preserves duality exactly when the two extracted "
        "square operators have vanishing adjoint-product",
        _check_zero_overlap,
    ),
    "dual_combination": CheckDef(
        "weights summing to the identity mix two duals into a dual; a "
        "weight-sum gap forces a proportional residual for invertible K",
        _check_dual_combination,
    ),
    "operator_order_chain": CheckDef(
        "the frame operator sits between the optimally scaled absolute "
        "square of K and the optimally scaled identity in positive order",
        _check_order_chain,
    ),
    "sqrt_factor": CheckDef(
        "K factors through the square root of the frame operator with "
        "norm governed by the optimal lower scale, and refusal is "
        "certified by range diagnostics",
        _check_sqrt_factor,
    ),
    "commuting_transform": CheckDef(
        "pre-composing with the adjoint of a commuting invertible operator "
        "conjugates the frame operator and keeps the measured bounds in "
        "the predicted envelope",
        _check_commuting_transform,
    ),
    "isometry_transform": CheckDef(
        "post-composing members with isometries leaves both optimal "
        "bounds unchanged",
        _check_isometry_transform,
    ),
    "tightness_scaling": CheckDef(
        "constructed tight families report tight with the planted scale, "
        "generic families do not",
        _check_tightness_scaling,
    ),
    "identity_resolution": CheckDef(
        "families of square members summing to the identity are audited: "
        "the frame conclusion holds or a counterexample re-evaluates "
        "identically through coefficient arithmetic",
        _check_identity_resolution,
    ),
    "quotient_criterion": CheckDef(
        "boundedness of the map sending root-frame-operator images to "
        "adjoint-K images decides the frame property with matching "
        "optimal constant",
        _check_quotient_criterion,
    ),
    "quotient_transform_criterion": CheckDef(
        "the quotient route applied through an invertible square operator "
        "decides the frame property of the transformed family",
        _check_quotient_transform,
    ),
    "dual_transport": CheckDef(
        "conjugating a dual pair by an operator with orthonormal "
        "realization columns preserves duality without growing the "
        "residual",
        _check_dual_transport,
    ),
}

AUDITED_CHECKS = frozenset({"identity_resolution"})


def list_check_ids() -> tuple[str, ...]:
    return tuple(CHECKS)


def _require_known(check_id: str) -> None:
    if check_id not in CHECKS:
        raise ValueError(
            f"unknown check id {check_id!r}; known: {', '.join(CHECKS)}"
        )


def run_check(config: SuiteConfig, check_id: str, trial: int) -> TrialOutcome:
    """Run one trial of one check; pure in (config, check_id, trial)."""
    _require_known(check_id)
    try:
        return CHECKS[check_id].fn(Trial(config, check_id, trial))
    except (KGFrameError, np.linalg.LinAlgError) as exc:
        return _outcome(False, {}, f"unexpected error: {type(exc).__name__}: {exc}")


def run_theorem_suite(config: SuiteConfig) -> SuiteResult:
    """Run every selected check for the configured number of trials."""
    if config.trials < 1:
        raise ValueError("trials must be at least 1")
    config.caps.validate()
    selected = config.check_ids if config.check_ids is not None else list_check_ids()
    for check_id in selected:
        _require_known(check_id)
    reports = []
    for check_id in selected:
        passes = 0
        failures: list[FailureRecord] = []
        audited: list[dict] = []
        for trial in range(config.trials):
            outcome = run_check(config, check_id, trial)
            if outcome.ok:
                passes += 1
            else:
                failures.append(
                    FailureRecord(
                        check_id=check_id,
                        trial=trial,
                        specs=outcome.specs,
                        measured=outcome.measured,
                        message=outcome.message,
                    )
                )
            if outcome.audited is not None:
                audited.append(outcome.audited)
        reports.append(
            TheoremReport(
                check_id=check_id,
                statement=CHECKS[check_id].statement,
                trials=config.trials,
                passes=passes,
                failures=tuple(failures),
                audited_counterexamples=tuple(audited),
            )
        )
    return SuiteResult(config=config, reports=tuple(reports))


def revalidate(record: FailureRecord, config: SuiteConfig) -> dict:
    """Re-run a failed trial and compare every measured value.

    Returns reproduction deviations; `ok` means every recorded number was
    reproduced within tolerance and the trial still fails.
    """
    outcome = run_check(config, record.check_id, record.trial)
    deviations: dict[str, float] = {}
    reproduced = True
    for key, val in record.measured.items():
        if key not in outcome.measured:
            reproduced = False
            continue
        new = outcome.measured[key]
        if isinstance(val, bool) or isinstance(new, bool):
            deviations[key] = 0.0 if val == new else 1.0
            reproduced = reproduced and val == new
        else:
            old_f, new_f = float(val), float(new)
            if np.isinf(old_f) or np.isinf(new_f):
                same = old_f == new_f
                deviations[key] = 0.0 if same else np.inf
                reproduced = reproduced and same
            else:
                dev = abs(old_f - new_f)
                deviations[key] = dev
                reproduced = reproduced and dev <= slack(REVALIDATION_TOL, abs(old_f))
    return {
        "ok": reproduced and not outcome.ok,
        "still_fails": not outcome.ok,
        "reproduced": reproduced,
        "deviations": deviations,
        "measured": outcome.measured,
    }


# -- deterministic document ------------------------------------------------


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        f = float(value)
        if np.isnan(f):
            return "NaN"
        if np.isinf(f):
            return "Infinity" if f > 0 else "-Infinity"
        return f
    return value


def result_to_document(result: SuiteResult) -> dict:
    config = result.config
    doc = {
        "format_version": FORMAT_VERSION,
        "tool": {"name": "kgframes", "version": __version__},
        "generator": GENERATOR_NAME,
        "seed": config.seed,
        "trials_per_check": config.trials,
        "tolerances": {
            "tol_eq": config.tol_eq,
            "tol_psd": config.tol_psd,
            "tol_rank": config.rel_tol,
        },
        "caps": asdict(config.caps),
        "checks": [
            {
                "id": rep.check_id,
                "statement": rep.statement,
                "audited": rep.check_id in AUDITED_CHECKS,
                "trials": rep.trials,
                "passes": rep.passes,
                "failures": [
                    {
                        "trial": f.trial,
                        "specs": list(f.specs),
                        "measured": f.measured,
                        "message": f.message,
                    }
                    for f in rep.failures
                ],
                "audited_counterexamples": list(rep.audited_counterexamples),
            }
            for rep in result.reports
        ],
        "all_passed": result.all_passed,
        "audited_counterexample_total": result.audited_total,
    }
    return _jsonable(doc)


def document_json(result: SuiteResult) -> str:
    return json.dumps(result_to_document(result), sort_keys=True, indent=2) + "\n"
