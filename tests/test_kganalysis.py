"""Frame verdicts relative to a reference operator: bounds, tightness,
square-root factorization, quotient boundedness, resolutions."""

import warnings

import numpy as np
import pytest

import kgframes as kg
from kgframes.algebra import TOL_RANK, rank_cutoff
from kgframes.generators import clamped_square, draw_spec, generate
from kgframes.kganalysis import tightness_scale
from helpers import column_member, pinned_example, single_block_shape, square_op


# -- verdicts and optimal scales -------------------------------------------


def test_pinned_example_lower_scale():
    _, frame, k_op = pinned_example()
    report = kg.is_kg_frame(frame, k_op)
    assert report.is_k_g_frame
    assert report.lower_c == pytest.approx(1.5, abs=1e-9)
    assert kg.optimal_g_bounds(frame).upper == pytest.approx(3.0, abs=1e-9)
    assert not report.degenerate_zero_k
    assert report.counterexample is None


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the pencil's inclusion slack 1e-12*(1+|M|) has an absolute floor",
)
def test_small_reference_outside_the_frame_range_is_refused():
    shape = kg.AlgebraShape((2,))
    frame = kg.GFrame([kg.ModuleOperator(shape, 1, 1, [np.diag([1.0, 0.0])])])
    k_op = kg.ModuleOperator(shape, 1, 1, [1e-6 * np.diag([0.0, 1.0])])
    assert not kg.is_kg_frame(frame, k_op).is_k_g_frame


def test_an_overflowing_quotient_is_refused_along_the_pencil_direction():
    # S = 1e-200 and |K|^2 = 1e200: the range is included, but the quotient
    # overflows to inf, so the lower scale 1/quotient is 0
    shape = single_block_shape()
    frame = kg.GFrame([square_op(shape, [[1e-100]])])
    k_op = square_op(shape, [[1e100]])
    with np.errstate(over="ignore", invalid="ignore"):
        report = kg.is_kg_frame(frame, k_op)
    assert report.pencil.included and report.pencil.quotient == np.inf
    assert not report.is_k_g_frame and report.lower_c == 0.0
    cert = report.counterexample
    assert cert.block == report.pencil.block
    assert cert.margin > 0 and cert.admissible_ceiling == 0.0


def test_an_overflowing_compressed_pencil_is_refused_with_a_finite_witness():
    # S = 1e-200 I and |K|^2 = diag(1e200, 0) on one 2x2 block: the
    # compressed pencil overflows, which an eigensolver would turn to NaN
    shape = kg.AlgebraShape((2,))
    frame = kg.GFrame([kg.ModuleOperator(shape, 1, 1, [1e-100 * np.eye(2)])])
    k_op = kg.ModuleOperator(shape, 1, 1, [np.diag([1e100, 0.0])])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow is no numpy warning
        report = kg.is_kg_frame(frame, k_op)
    assert report.pencil.included and report.pencil.quotient == np.inf
    assert not report.is_k_g_frame and report.lower_c == 0.0
    assert np.array_equal(report.pencil.direction, [1.0, 0.0])
    cert = report.counterexample
    assert all(np.isfinite(blk).all() for blk in cert.vector.blocks)
    assert np.isfinite([cert.lhs_seminorm, cert.rhs_seminorm, cert.margin]).all()
    assert cert.margin > 0 and cert.admissible_ceiling == 0.0


def test_a_one_by_one_overflowing_pencil_is_refused_without_a_warning():
    # the pencil above on one 1x1 block: its compression overflows too
    shape = kg.AlgebraShape((1,))
    frame = kg.GFrame([kg.ModuleOperator(shape, 1, 1, [[[1e-100]]])])
    k_op = kg.ModuleOperator(shape, 1, 1, [[[1e100]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = kg.is_kg_frame(frame, k_op)
    assert report.pencil.included and report.pencil.quotient == np.inf
    assert not report.is_k_g_frame and report.lower_c == 0.0
    cert = report.counterexample
    assert np.array_equal(cert.vector.blocks[0], [[1.0]])
    assert cert.lhs_seminorm == pytest.approx(1e200, rel=1e-12)
    assert cert.rhs_seminorm == pytest.approx(1e-200, rel=1e-12)


def test_a_refusal_at_the_rank_cutoff_gets_a_witness_from_the_kept_range():
    # S = Q diag(1, delta) Q* with delta straddling the cutoff 1e-10, and K
    # the projector onto delta's eigenvector: where eigenvalues and singular
    # values of S keep different ranks (441 of these 4,000 draws), a range
    # decided apart from the pencil's gives a witness refuting nothing
    rng = np.random.default_rng(1)
    shape = kg.AlgebraShape((1,))
    ceilings = []
    for _ in range(4000):
        q = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        delta = 1e-10 * (1.0 + rng.uniform(-3e-6, 3e-6))
        f = q * np.array([1.0, np.sqrt(delta)])
        s = f @ f.conj().T
        s = (s + s.conj().T) / 2.0
        lam = np.linalg.eigvalsh(s)
        svals = np.linalg.svd(s, compute_uv=False)
        if np.sum(lam > rank_cutoff(lam[-1], TOL_RANK)) == np.sum(
            svals > rank_cutoff(svals[0], TOL_RANK)
        ):
            continue
        v = q[:, 1:]
        report = kg.is_kg_frame(
            kg.GFrame([kg.ModuleOperator(shape, 2, 2, [f])]),
            kg.ModuleOperator(shape, 2, 2, [v @ v.conj().T]),
        )
        if not report.is_k_g_frame:
            ceilings.append(report.counterexample.admissible_ceiling)
    assert ceilings and max(ceilings) <= 1e-8


def test_identity_reference_recovers_frame_bound():
    _, frame, _ = pinned_example()
    shape = single_block_shape()
    report = kg.is_kg_frame(frame, kg.ModuleOperator.identity(shape, 2))
    assert report.is_k_g_frame
    assert report.lower_c == pytest.approx(1.0, abs=1e-9)


def test_verdict_is_invariant_under_scaling_frame_or_reference():
    shape, frame, k_op = pinned_example()
    small = kg.GFrame([mem.scale(1e-6) for mem in frame.members])
    for report in (kg.is_kg_frame(small, k_op), kg.is_kg_frame(frame, k_op.scale(1e6))):
        assert report.is_k_g_frame
        assert report.counterexample is None
        assert report.lower_c == pytest.approx(1.5e-12, rel=1e-9)


def test_zero_reference_is_degenerate():
    shape, frame, _ = pinned_example()
    zero = kg.ModuleOperator.zero(shape, 2, 2)
    report = kg.is_kg_frame(frame, zero)
    assert report.is_k_g_frame
    assert report.degenerate_zero_k
    assert report.lower_c == np.inf


def test_failed_verdict_carries_reproducible_counterexample():
    shape = single_block_shape()
    # every member vanishes on the second coordinate, reference sees it
    frame = kg.GFrame([column_member(shape, 1, 0)])
    k_op = kg.ModuleOperator.identity(shape, 2)
    report = kg.is_kg_frame(frame, k_op)
    assert not report.is_k_g_frame
    cert = report.counterexample
    assert cert is not None
    assert cert.margin > 0
    assert cert.lhs_seminorm > cert.admissible_ceiling
    reeval = kg.reevaluate_counterexample(frame, k_op, cert)
    assert reeval["lhs_deviation"] <= 1e-10
    assert reeval["rhs_deviation"] <= 1e-10
    assert reeval["margin_deviation"] <= 1e-10


def test_generated_failures_reevaluate_consistently():
    for seed in range(5):
        inst = generate(
            draw_spec("rank_deficient_K", seed, basis_compatible=True, k_inside=False)
        )
        report = kg.is_kg_frame(inst.frame, inst.k_op)
        assert not report.is_k_g_frame
        cert = report.counterexample
        assert cert is not None
        reeval = kg.reevaluate_counterexample(inst.frame, inst.k_op, cert)
        assert reeval["margin_deviation"] <= 1e-10


def test_range_route_agrees_with_pencil_route():
    for seed, kind, inside in (
        (0, "generic", False),
        (1, "rank_deficient_K", True),
        (2, "rank_deficient_K", False),
        (3, "generic", False),
    ):
        inst = generate(
            draw_spec(kind, seed, basis_compatible=True, k_inside=inside)
        )
        pencil_verdict = kg.is_kg_frame(inst.frame, inst.k_op).is_k_g_frame
        range_verdict = kg.kg_via_range(inst.frame, inst.k_op, inst.basis)
        assert pencil_verdict == range_verdict


# -- tightness ---------------------------------------------------------------


def test_pinned_example_is_not_tight_despite_equal_ranges():
    shape, frame, _ = pinned_example()
    ident = kg.ModuleOperator.identity(shape, 2)
    report = kg.tightness_check(frame, ident)
    assert not report.tight
    assert report.ranges_match
    assert report.residual > 1e-2
    assert tightness_scale(frame, ident) == (False, report.scale, report.residual)


def test_scaled_coordinate_frame_is_tight():
    shape = single_block_shape()
    root2 = np.sqrt(2.0)
    frame = kg.GFrame(
        [column_member(shape, root2, 0), column_member(shape, 0, root2)]
    )
    ident = kg.ModuleOperator.identity(shape, 2)
    report = kg.tightness_check(frame, ident)
    assert report.tight
    assert report.scale == pytest.approx(2.0, abs=1e-12)
    assert report.residual <= 1e-12
    assert report.ranges_match
    assert tightness_scale(frame, ident) == (True, report.scale, report.residual)


def test_generated_tight_families_recover_their_scale():
    for seed, scale in ((0, 0.25), (1, 1.0), (2, 4.0)):
        inst = generate(draw_spec("tight", seed, tight_scale=scale))
        report = kg.tightness_check(inst.frame, inst.k_op)
        assert report.tight
        assert report.scale == pytest.approx(scale, abs=1e-8)
        assert report.ranges_match


# -- square-root factorization ------------------------------------------------


def test_sqrt_factor_pinned_example():
    _, frame, k_op = pinned_example()
    report = kg.sqrt_factor_check(frame, k_op)
    assert report.ok
    assert report.residual <= 1e-12
    s = frame.frame_operator()
    assert kg.operator_distance(report.sqrt_op.then(report.sqrt_op), s) <= 1e-12
    assert kg.operator_distance(report.factor.then(report.sqrt_op), k_op) <= 1e-12
    # the factor norm is controlled by the optimal lower scale: 1/sqrt(3/2)
    assert report.factor.uniform_norm() <= 1.0 / np.sqrt(1.5) + 1e-9


def test_sqrt_factor_rejects_when_no_frame():
    inst = generate(
        draw_spec("rank_deficient_K", 9, basis_compatible=True, k_inside=False)
    )
    report = kg.sqrt_factor_check(inst.frame, inst.k_op)
    assert not report.ok
    assert report.diagnostics is not None
    assert not report.diagnostics.range_included
    assert report.diagnostics.conditions_agree()


# -- quotient boundedness ------------------------------------------------------


def test_quotient_bound_pinned_example():
    _, frame, k_op = pinned_example()
    sqrt_op = frame.frame_operator().hermitian_sqrt()
    report = kg.quotient_bounded(k_op.adjoint(), sqrt_op)
    assert report.well_defined and report.bounded
    assert 1.0 / report.beta**2 == pytest.approx(1.5, rel=1e-9)
    assert report.pencil.included


def test_quotient_unbounded_when_ranges_leak():
    inst = generate(
        draw_spec("rank_deficient_K", 9, basis_compatible=True, k_inside=False)
    )
    sqrt_op = inst.frame.frame_operator().hermitian_sqrt()
    report = kg.quotient_bounded(inst.k_op.adjoint(), sqrt_op)
    assert not report.well_defined
    assert not report.bounded
    assert report.beta == np.inf


def test_quotient_matches_verdict_across_kinds():
    for seed, kind, inside in (
        (4, "generic", False),
        (5, "rank_deficient_K", True),
        (6, "rank_deficient_K", False),
    ):
        inst = generate(draw_spec(kind, seed, basis_compatible=True, k_inside=inside))
        verdict = kg.is_kg_frame(inst.frame, inst.k_op)
        sqrt_op = inst.frame.frame_operator().hermitian_sqrt()
        quotient = kg.quotient_bounded(inst.k_op.adjoint(), sqrt_op)
        assert (quotient.well_defined and quotient.bounded) == verdict.is_k_g_frame
        if verdict.is_k_g_frame and np.isfinite(verdict.lower_c):
            assert 1.0 / quotient.beta**2 == pytest.approx(
                verdict.lower_c, rel=1e-6
            )


# -- resolutions of the identity ----------------------------------------------


def test_resolution_confirms_conclusion():
    shape = single_block_shape()
    p = square_op(shape, [[1, 0], [0, 0]])
    q = kg.ModuleOperator.identity(shape, 2) - p
    k_op = square_op(shape, [[1.0, 0.5], [0.25, 2.0]])
    report = kg.resolution_check(kg.GFrame([p, q]), k_op)
    assert report.sums_to_identity
    assert report.sum_residual <= 1e-12
    assert report.conclusion_holds is True
    assert report.consistent
    assert report.kg_report is not None and report.kg_report.is_k_g_frame
    assert report.bessel_upper is not None and report.bessel_upper > 0


def test_resolution_gate_on_bad_sum():
    shape = single_block_shape()
    p = square_op(shape, [[1, 0], [0, 0]])
    k_op = kg.ModuleOperator.identity(shape, 2)
    report = kg.resolution_check(kg.GFrame([p, p]), k_op)
    assert not report.sums_to_identity
    assert report.conclusion_holds is None
    assert report.kg_report is None
    assert report.reevaluation is None
    assert report.consistent


def test_generated_resolutions_hold():
    for seed in range(4):
        inst = generate(draw_spec("resolution", seed))
        report = kg.resolution_check(inst.frame, inst.k_op)
        assert report.sums_to_identity
        assert report.conclusion_holds is True
        assert report.consistent


def test_invertible_s_verdict_survives_conditioning():
    # frames built from an invertible square operator keep verdicts stable
    rng = np.random.default_rng(50)
    inst = generate(draw_spec("generic", 51, basis_compatible=True))
    q0 = clamped_square(rng, inst.shape, inst.frame.domain_rank)
    frame = kg.reconstruct_from_g_operator(q0, inst.basis)
    report = kg.is_kg_frame(frame, inst.k_op)
    assert report.is_k_g_frame
    assert np.isfinite(report.lower_c) and report.lower_c > 0
