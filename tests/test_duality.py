"""Dual families: verification, canonical construction, perturbation,
combination, and transport along co-isometries and isometries."""

import numpy as np
import pytest

import kgframes as kg
from kgframes import duality
from kgframes.generators import (
    clamped_square,
    draw_spec,
    generate,
    random_isometry,
)
from helpers import (
    column_member,
    pinned_example,
    plain_inverse,
    single_block_shape,
    square_op,
)


# -- verification and canonical construction --------------------------------


def test_coordinate_frame_canonical_dual_is_reference_composition():
    # For the coordinate frame the frame operator is the identity, so the
    # canonical dual members are exactly reference-then-coordinate-slice.
    shape = single_block_shape()
    basis = kg.canonical_basis(shape, 2, (1, 1))
    frame = kg.GFrame([basis.members[0], basis.members[1]])
    k_op = square_op(shape, [[1.0, 0.5], [0.25, 2.0]])
    result = kg.canonical_k_dual(frame, k_op)
    hand = kg.GFrame([k_op.then(basis.members[0]), k_op.then(basis.members[1])])
    assert kg.frame_distance(result.frame, hand) <= 1e-14
    assert result.certificate.is_dual
    assert result.certificate.residual <= 1e-14
    assert result.certificate.construction == "canonical"
    assert not result.conditioning_warning


def test_pinned_example_canonical_dual():
    _, frame, k_op = pinned_example()
    result = kg.canonical_k_dual(frame, k_op)
    assert result.certificate.is_dual
    assert result.certificate.residual <= 1e-12
    # invertible frame operator: members match frame-inverse composition
    s_inv = plain_inverse(frame.frame_operator())
    direct = kg.GFrame([k_op.then(s_inv).then(m) for m in frame.members])
    assert kg.frame_distance(result.frame, direct) <= 1e-12
    # independent verification agrees
    cert = kg.verify_k_dual(frame, result.frame, k_op)
    assert cert.is_dual and cert.residual <= 1e-12


def test_verify_k_dual_measures_the_defect():
    shape = single_block_shape()
    basis = kg.canonical_basis(shape, 2, (1, 1))
    frame = kg.GFrame([basis.members[0], basis.members[1]])
    k_op = square_op(shape, [[1, 0], [0, 1]])
    xi = kg.GFrame([basis.members[0], basis.members[1]])
    good = kg.verify_k_dual(frame, xi, k_op)
    assert good.is_dual and good.residual <= 1e-14
    bad = kg.verify_k_dual(frame, xi, k_op.scale(1.5))
    assert not bad.is_dual
    assert bad.residual == pytest.approx(0.5, rel=1e-12)


def test_canonical_dual_refuses_outside_range():
    shape = single_block_shape()
    frame = kg.GFrame([column_member(shape, 1, 0)])
    with pytest.raises(kg.DualityError):
        kg.canonical_k_dual(frame, kg.ModuleOperator.identity(shape, 2))


def test_dual_via_square_operators_matches_member_sum():
    inst = generate(draw_spec("generic", 60, basis_compatible=True, rich=True))
    rng = np.random.default_rng(61)
    q0 = clamped_square(rng, inst.shape, inst.frame.domain_rank)
    frame = kg.reconstruct_from_g_operator(q0, inst.basis)
    k_op = clamped_square(rng, inst.shape, inst.frame.domain_rank)
    xi = kg.canonical_k_dual(frame, k_op).frame
    assert kg.dual_via_g_operators(frame, xi, inst.basis, k_op)
    assert not kg.dual_via_g_operators(frame, xi, inst.basis, k_op.scale(1.01))


# -- zero-overlap perturbations ----------------------------------------------


def _overlap_fixture():
    shape = single_block_shape()
    basis = kg.canonical_basis(shape, 2, (1, 1))
    gamma = kg.GFrame([column_member(shape, 1, 0), column_member(shape, 1, 0)])
    k_op = square_op(shape, [[1, 0], [0, 0]])
    dual = kg.canonical_k_dual(gamma, k_op).frame
    return shape, basis, gamma, k_op, dual


def test_zero_overlap_perturbation_preserves_duality():
    shape, basis, gamma, k_op, dual = _overlap_fixture()
    pert = kg.GFrame([column_member(shape, 0, 1), column_member(shape, 0, -1)])
    report = kg.zero_overlap_perturbation(gamma, dual, pert, basis, k_op)
    assert report.predicate
    assert report.overlap_norm <= 1e-14
    assert report.is_dual
    assert report.agree


def test_nonzero_overlap_breaks_duality_by_the_same_amount():
    shape, basis, gamma, k_op, dual = _overlap_fixture()
    pert = kg.GFrame([column_member(shape, 0, 1), column_member(shape, 0, 1)])
    report = kg.zero_overlap_perturbation(gamma, dual, pert, basis, k_op)
    assert not report.predicate
    assert report.overlap_norm == pytest.approx(2.0, rel=1e-12)
    assert not report.is_dual
    # the overlap operator *is* the duality defect
    assert report.certificate.residual == pytest.approx(
        report.overlap_norm, rel=1e-12
    )
    assert report.agree


def test_every_family_pairing_refuses_a_mismatched_index_structure_alike():
    shape, basis, gamma, k_op, dual = _overlap_fixture()
    short = kg.GFrame([column_member(shape, 1, 0)])
    for pairing in (
        lambda: kg.g_operator(short, basis),
        lambda: kg.dual_via_g_operators(gamma, short, basis, k_op),
        lambda: kg.zero_overlap_perturbation(gamma, dual, short, basis, k_op),
    ):
        with pytest.raises(kg.ShapeMismatch, match="codomain ranks differ"):
            pairing()


def test_perturbation_requires_a_dual_to_start_from():
    shape, basis, gamma, k_op, dual = _overlap_fixture()
    not_dual = kg.GFrame([m.scale(3.0) for m in dual.members])
    pert = kg.GFrame([column_member(shape, 0, 1), column_member(shape, 0, -1)])
    with pytest.raises(kg.DualityError):
        kg.zero_overlap_perturbation(gamma, not_dual, pert, basis, k_op)


# -- combinations of duals ----------------------------------------------------


def _combination_fixture(seed):
    inst = generate(draw_spec("generic", seed, basis_compatible=True, rich=True))
    rng = np.random.default_rng(seed + 1000)
    q0 = clamped_square(rng, inst.shape, inst.frame.domain_rank)
    frame = kg.reconstruct_from_g_operator(q0, inst.basis)
    k_op = clamped_square(rng, inst.shape, inst.frame.domain_rank)
    xi = kg.canonical_k_dual(frame, k_op).frame
    return rng, inst.shape, frame, k_op, xi


def test_midpoint_combination_is_dual():
    rng, shape, frame, k_op, xi = _combination_fixture(62)
    d = frame.domain_rank
    half = kg.ModuleOperator.identity(shape, d).scale(0.5)
    combined = kg.combine_duals(frame, xi, xi, k_op, half, half)
    assert combined.certificate.is_dual
    assert combined.certificate.residual <= 1e-10
    assert combined.certificate.construction == "combined"
    assert kg.frame_distance(combined.frame, xi) <= 1e-12


def test_random_identity_split_combination_is_dual():
    rng, shape, frame, k_op, xi = _combination_fixture(63)
    d = frame.domain_rank
    t1 = clamped_square(rng, shape, d).scale(0.5)
    t2 = kg.ModuleOperator.identity(shape, d) - t1
    combined = kg.combine_duals(frame, xi, xi, k_op, t1, t2)
    assert combined.certificate.is_dual
    assert combined.certificate.residual <= 1e-8


def test_weights_missing_identity_break_duality():
    rng, shape, frame, k_op, xi = _combination_fixture(64)
    d = frame.domain_rank
    t1 = clamped_square(rng, shape, d).scale(0.5)
    t2 = kg.ModuleOperator.identity(shape, d) - t1
    gap = clamped_square(rng, shape, d).scale(1e-3)
    combined = kg.combine_duals(frame, xi, xi, k_op, t1, t2 + gap)
    assert not combined.certificate.is_dual
    assert combined.certificate.residual >= 1e-4


def test_combination_rejects_non_dual_inputs():
    rng, shape, frame, k_op, xi = _combination_fixture(65)
    d = frame.domain_rank
    half = kg.ModuleOperator.identity(shape, d).scale(0.5)
    broken = kg.GFrame([xi.members[0].scale(1.5)] + list(xi.members[1:]))
    with pytest.raises(kg.DualityError):
        kg.combine_duals(frame, broken, xi, k_op, half, half)


# -- transport along a co-isometry ---------------------------------------------


def test_coisometry_transport_conjugates_the_reference():
    inst = generate(draw_spec("coisometry", 70, basis_compatible=True))
    w = inst.extras["w"]
    xi = kg.canonical_k_dual(inst.frame, inst.k_op).frame
    moved = kg.coisometry_transport(inst.frame, xi, inst.k_op, w)
    assert moved.certificate.is_dual
    assert moved.certificate.construction == "transported"
    # the new pair lives on the smaller module and the reference is conjugated
    conjugated = w.adjoint().then(inst.k_op).then(w)
    assert kg.operator_distance(moved.k_op, conjugated) <= 1e-13
    for old, new in zip(inst.frame.members, moved.gamma.members):
        assert kg.operator_distance(new, w.adjoint().then(old)) <= 1e-13
    for old, new in zip(xi.members, moved.xi.members):
        assert kg.operator_distance(new, w.adjoint().then(old)) <= 1e-13
    # transport can only help: the moved residual stays near the base one
    assert moved.certificate.residual <= moved.base_certificate.residual + 1e-12


def test_transport_rejects_non_coisometry():
    inst = generate(draw_spec("coisometry", 71, basis_compatible=True))
    w = inst.extras["w"]
    xi = kg.canonical_k_dual(inst.frame, inst.k_op).frame
    with pytest.raises(kg.IsometryError):
        kg.coisometry_transport(inst.frame, xi, inst.k_op, w.scale(1.2))


# -- transform by a commuting operator ------------------------------------------


def test_commuting_transform_diagonal_oracle():
    shape = single_block_shape()
    basis = kg.canonical_basis(shape, 2, (1, 1))
    frame = kg.GFrame([basis.members[0], basis.members[1]])  # frame operator = identity
    k_op = kg.ModuleOperator.identity(shape, 2)
    q_op = square_op(shape, [[2, 0], [0, 1]])
    report = kg.transform_by_q(frame, k_op, q_op)
    assert report.sandwich_ok
    assert report.sandwich_residual <= 1e-12
    assert report.measured_lower == pytest.approx(1.0, abs=1e-9)
    assert report.measured_upper == pytest.approx(4.0, abs=1e-9)
    assert report.within_envelope


def test_commuting_transform_generated_pairs():
    for seed in range(3):
        inst = generate(draw_spec("commuting_pair", seed, rich=True))
        report = kg.transform_by_q(inst.frame, inst.k_op, inst.extras["q"])
        assert report.sandwich_ok
        assert report.within_envelope
        assert report.envelope_lower <= report.measured_lower + 1e-8
        assert report.measured_upper <= report.envelope_upper + 1e-8


def test_a_zero_transform_has_an_infinite_lower_envelope():
    # a zero Q has range {0}: the pencil and the envelope both read inf
    _, frame, k_op = pinned_example()
    zero = kg.ModuleOperator.zero(frame.shape, 2, 2)
    report = kg.transform_by_q(frame, k_op, zero)
    assert report.measured_lower == np.inf
    assert report.envelope_lower == np.inf
    assert report.measured_upper == 0.0
    assert report.envelope_upper == 0.0
    assert report.within_envelope


def test_transform_rejects_non_commuting_operator():
    shape = single_block_shape()
    basis = kg.canonical_basis(shape, 2, (1, 1))
    frame = kg.GFrame([basis.members[0], basis.members[1]])
    k_op = square_op(shape, [[1, 0], [0, 2]])
    swap = square_op(shape, [[0, 1], [1, 0]])
    with pytest.raises(kg.CommutationError):
        kg.transform_by_q(frame, k_op, swap)


# -- transform by isometries on the codomain side --------------------------------


def test_isometry_transform_preserves_bounds():
    inst = generate(draw_spec("isometry", 72))
    rng = np.random.default_rng(73)
    c = inst.frame.codomain_ranks[0]
    w = random_isometry(rng, inst.shape, c, c + 2)
    report = kg.isometry_left_transform(inst.frame, inst.k_op, w)
    assert report.max_bound_deviation <= 1e-8
    assert report.lower_after == pytest.approx(report.lower_before, abs=1e-8)
    assert report.upper_after == pytest.approx(report.upper_before, abs=1e-8)
    # members are post-composed with the isometry
    for old, new in zip(inst.frame.members, report.frame.members):
        assert kg.operator_distance(new, old.then(w)) <= 1e-13


def test_isometry_transform_per_member_list():
    inst = generate(draw_spec("isometry", 74))
    rng = np.random.default_rng(75)
    ws = [
        random_isometry(rng, inst.shape, c, c + 1)
        for c in inst.frame.codomain_ranks
    ]
    report = kg.isometry_left_transform(inst.frame, inst.k_op, ws)
    assert report.max_bound_deviation <= 1e-8


def test_isometry_transform_rejects_non_isometry():
    inst = generate(draw_spec("isometry", 76))
    rng = np.random.default_rng(77)
    c = inst.frame.codomain_ranks[0]
    w = random_isometry(rng, inst.shape, c, c + 2)
    with pytest.raises(kg.IsometryError):
        kg.isometry_left_transform(inst.frame, inst.k_op, w.scale(1.2))


def test_a_shared_isometry_is_measured_once(monkeypatch):
    inst = generate(draw_spec("isometry", 78))
    rng = np.random.default_rng(79)
    c = inst.frame.codomain_ranks[0]
    w = random_isometry(rng, inst.shape, c, c + 1)
    gated, measured = [], []
    gate, norms = duality.within_slack, duality.spectral_norms

    def counting_gate(residuals, tol, scales):
        gated.append(len(residuals))
        return gate(residuals, tol, scales)

    def counting_norms(mats):
        measured.append(len(mats))
        return norms(mats)

    monkeypatch.setattr(duality, "within_slack", counting_gate)
    monkeypatch.setattr(duality, "spectral_norms", counting_norms)
    kg.isometry_left_transform(inst.frame, inst.k_op, w)
    assert gated == [inst.shape.block_count]
    # an isometry passes on its Frobenius bound: the defect is never measured
    assert measured == []


def test_an_overflowing_isometry_is_refused():
    # its Gram block overflows to inf, whose SVD gives a NaN defect: the
    # gate reads that as a failure, not as an isometry
    shape = kg.AlgebraShape((1,))
    w = kg.ModuleOperator(shape, 1, 1, [np.array([[1e200]])])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(kg.IsometryError, match="by nan"):
            duality._require_isometries([w], adjoint_first=True)


def test_an_overflowing_block_is_refused_wherever_it_sits():
    # one isometric block and one whose Gram block overflows to inf: the
    # NaN defect refuses the operator whether its block comes first or not
    shape = kg.AlgebraShape((1, 1))
    gamma = kg.GFrame([kg.ModuleOperator(shape, 1, 1, [[[1.0]], [[1.0]]])])
    k_op = kg.ModuleOperator.identity(shape, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for blocks in ([[[1.0]], [[1e200]]], [[[1e200]], [[1.0]]]):
            w = kg.ModuleOperator(shape, 1, 1, blocks)
            with pytest.raises(kg.IsometryError, match="by nan"):
                kg.isometry_left_transform(gamma, k_op, w)


def test_a_repeated_isometry_still_fails_first_with_its_message():
    shape = kg.AlgebraShape((2,))
    rng = np.random.default_rng(80)
    good = random_isometry(rng, shape, 1, 2)
    bad = good.scale(1.5)
    worse = good.scale(3.0)
    blk = bad.blocks[0]
    defect = float(np.linalg.norm(blk @ blk.conj().T - np.eye(2), 2))
    message = f"composite with the adjoint deviates from the identity by {defect:.3e}"
    for listed in ([good, bad, bad, worse], [good, bad, worse, bad], [bad, good, bad]):
        with pytest.raises(kg.IsometryError) as err:
            duality._require_isometries(listed, adjoint_first=False)
        assert str(err.value) == message
    duality._require_isometries([good, good, good], adjoint_first=False)
