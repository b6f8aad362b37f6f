"""Frames of operators: analysis/synthesis, bounds, bases, square operators."""

import numpy as np
import pytest

import kgframes as kg
from kgframes.generators import draw_spec, generate, random_vector
from helpers import column_member, pinned_example, single_block_shape


def test_frame_operator_pinned_example():
    _, frame, _ = pinned_example()
    s = frame.frame_operator()
    assert np.allclose(s.blocks[0], np.array([[2, 1], [1, 2]]), atol=1e-14)


def test_optimal_bounds_pinned_example():
    _, frame, _ = pinned_example()
    bounds = kg.optimal_g_bounds(frame)
    assert bounds.lower == pytest.approx(1.0, abs=1e-9)
    assert bounds.upper == pytest.approx(3.0, abs=1e-9)
    assert not bounds.tight


def test_bound_witnesses_saturate_their_bounds():
    _, frame, _ = pinned_example()
    bounds = kg.optimal_g_bounds(frame)
    s = frame.frame_operator()
    for witness, value in ((bounds.witness_low, bounds.lower), (bounds.witness_high, bounds.upper)):
        num = kg.inner(s.apply(witness), witness).blocks[0].real[0, 0]
        den = kg.inner(witness, witness).blocks[0].real[0, 0]
        assert den > 0
        assert num / den == pytest.approx(value, rel=1e-9)


def test_bound_witnesses_are_built_when_first_read(monkeypatch):
    _, frame, _ = pinned_example()
    embed = kg.gframes.embed_direction
    calls = []

    def counting(*args):
        calls.append(args)
        return embed(*args)

    monkeypatch.setattr(kg.gframes, "embed_direction", counting)
    bounds = kg.optimal_g_bounds(frame)
    assert not calls
    low = bounds.witness_low
    assert bounds.witness_low is low and len(calls) == 1
    spectrum = frame.frame_operator().hermitian_spectrum()
    for witness, block, column in (
        (low, bounds.lower_block, 0),
        (bounds.witness_high, bounds.upper_block, -1),
    ):
        want = embed(frame.shape, frame.domain_rank, block, spectrum[block][1][:, column])
        assert [s.tobytes() for s in witness.stacks] == [s.tobytes() for s in want.stacks]


def test_analysis_synthesis_adjoint_pair():
    rng = np.random.default_rng(40)
    inst = generate(draw_spec("generic", 40))
    frame = inst.frame
    ana = frame.analysis_operator()
    syn = frame.synthesis_operator()
    assert kg.operator_distance(syn, ana.adjoint()) < 1e-12
    x = random_vector(rng, inst.shape, frame.domain_rank)
    g = ana.apply(x)
    assert g.rank == frame.total_codomain_rank
    back = syn.apply(g)
    s_x = frame.frame_operator().apply(x)
    for k in range(inst.shape.block_count):
        assert np.allclose(back.stacks[k], s_x.stacks[k], atol=1e-10)


def test_frame_operator_is_analysis_then_synthesis():
    inst = generate(draw_spec("generic", 41))
    frame = inst.frame
    composed = frame.analysis_operator().then(frame.synthesis_operator())
    s = frame.frame_operator()
    assert kg.operator_distance(composed, s) < 1e-10 * (1.0 + s.uniform_norm())
    # the frame operator is hermitian PSD by construction
    assert s.positivity().is_positive
    assert kg.operator_distance(s.adjoint(), s) == 0.0


def test_analysis_pieces_partition_the_coefficients():
    rng = np.random.default_rng(42)
    inst = generate(draw_spec("generic", 42))
    frame = inst.frame
    x = random_vector(rng, inst.shape, frame.domain_rank)
    g = frame.analysis_operator().apply(x)
    assert g.rank == frame.total_codomain_rank
    for i, member in enumerate(frame.members):
        lo, hi = frame.offsets[i], frame.offsets[i + 1]
        direct = member.apply(x)
        assert direct.rank == hi - lo
        for k, n in enumerate(inst.shape):
            piece = g.stacks[k][:, n * lo : n * hi]
            assert np.allclose(piece, direct.stacks[k], atol=1e-12)


def test_completeness():
    _, frame, _ = pinned_example()
    assert kg.is_g_complete(frame)
    shape = single_block_shape()
    # all members vanish on the second module coordinate
    partial = kg.GFrame([column_member(shape, 1, 0), column_member(shape, 2, 0)])
    assert not kg.is_g_complete(partial)
    bounds = kg.optimal_g_bounds(partial)
    assert bounds.lower == 0.0


def test_completeness_and_the_frame_verdict_agree_near_the_cutoff():
    # in finite dimensions a complete family is a frame; singular values
    # (1, 1e-7) would keep full rank under the cutoff, but both verdicts
    # cut the eigenvalues (1, 1e-14) of S
    shape = kg.AlgebraShape((2,))
    frame = kg.GFrame([kg.ModuleOperator(shape, 1, 1, [np.diag([1.0, 1e-7])])])
    assert kg.is_g_complete(frame) == kg.optimal_g_bounds(frame).is_frame()


def _three_routes(frame):
    identity = kg.ModuleOperator.identity(frame.shape, frame.domain_rank)
    return (
        kg.optimal_g_bounds(frame).is_frame(),
        kg.is_kg_frame(frame, identity).is_k_g_frame,
        kg.is_g_complete(frame),
    )


def test_the_frame_property_is_read_per_block_on_every_route():
    # S = [[1]] ⊕ [[1e-12]]: each block is nonsingular on its own scale,
    # though 1e-12 is below the cutoff of the largest eigenvalue overall
    shape = kg.AlgebraShape((1, 1))
    member = kg.ModuleOperator(shape, 1, 1, [np.eye(1), 1e-6 * np.eye(1)])
    assert _three_routes(kg.GFrame([member])) == (True, True, True)
    # one block with eigenvalues (1, 1e-14) is singular on its own scale
    single = kg.AlgebraShape((2,))
    member = kg.ModuleOperator(single, 1, 1, [np.diag([1.0, 1e-7])])
    assert _three_routes(kg.GFrame([member])) == (False, False, False)


def test_frame_requires_uniform_domain():
    shape = single_block_shape()
    a = column_member(shape, 1, 0)
    b = kg.ModuleOperator(shape, 3, 1, [np.ones((3, 1), dtype=complex)])
    with pytest.raises(kg.ShapeMismatch):
        kg.GFrame([a, b])
    with pytest.raises(kg.ShapeMismatch):
        kg.GFrame([])


def test_canonical_basis_axioms():
    shape = kg.AlgebraShape((2, 3))
    basis = kg.canonical_basis(shape, 5, (2, 2, 1))
    report = kg.basis_axiom_report(basis)
    assert report.delta_ok and report.parseval_ok
    assert report.delta_violation < 1e-14
    assert report.parseval_violation < 1e-14
    # reconstruction: the adjoint-composed members sum to the identity
    total = None
    for member in basis.members:
        term = member.then(member.adjoint())
        total = term if total is None else total + term
    ident = kg.ModuleOperator.identity(shape, 5)
    assert kg.operator_distance(total, ident) < 1e-14


def test_seminorm_additivity_is_reported_but_not_required():
    # over 1x1 blocks the scalar seminorms add up on every probe
    scalar = kg.canonical_basis(kg.AlgebraShape((1,)), 3, (1, 1, 1))
    report = kg.basis_axiom_report(scalar)
    assert report.seminorm_additive_ok
    assert report.seminorm_violation < 1e-14
    assert report.probe_count == 3
    # over a 2x2 block the two adopted axioms hold and additivity fails
    matrix = kg.canonical_basis(kg.AlgebraShape((2,)), 2, (1, 1))
    report = kg.basis_axiom_report(matrix)
    assert report.delta_ok and report.parseval_ok
    assert not report.seminorm_additive_ok
    assert report.seminorm_violation == pytest.approx(6.054e-3, rel=1e-3)
    assert report.probe_count == 3
    assert kg.validate_basis(matrix).delta_ok


def test_canonical_basis_partition_errors():
    shape = kg.AlgebraShape((2,))
    with pytest.raises(kg.PartitionError):
        kg.canonical_basis(shape, 3, (1, 1))
    with pytest.raises(kg.PartitionError):
        kg.canonical_basis(shape, 3, (4, -1))


def test_validate_basis_rejects_non_basis():
    shape = single_block_shape()
    skew = kg.GFrame([column_member(shape, 1, 1), column_member(shape, 0, 1)])
    for _ in range(3):  # the kept report still raises on every call
        with pytest.raises(kg.BasisError):
            kg.validate_basis(skew)


def test_validate_basis_rejects_a_basis_scaled_past_overflow():
    # scaled by 3 the axioms fail by 8; scaled by 1e200 their defects
    # overflow to NaN norms, which fail them too
    basis = kg.canonical_basis(kg.AlgebraShape((2,)), 2, (1, 1))
    for t in (3.0, 1e200):
        scaled = kg.GFrame([member.scale(t) for member in basis.members])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(kg.BasisError):
                kg.validate_basis(scaled)
            assert not kg.basis_axiom_report(scaled).seminorm_additive_ok


def test_a_basis_scaled_past_overflow_writes_nothing(capfd):
    # the overflowing axiom gaps are non-finite matrices, which LAPACK would
    # answer with " ** On entry to DLASCL ..." on standard output
    basis = kg.canonical_basis(kg.AlgebraShape((2,)), 2, (1, 1))
    scaled = kg.GFrame([member.scale(1e200) for member in basis.members])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(kg.BasisError):
            kg.validate_basis(scaled)
    out, err = capfd.readouterr()
    assert "DLASCL" not in out and "DLASCL" not in err


def test_validate_basis_keeps_one_report():
    basis = kg.canonical_basis(kg.AlgebraShape((2, 1)), 3, (2, 1))
    first = kg.validate_basis(basis)
    assert kg.validate_basis(basis) is first
    assert first.delta_ok and first.parseval_ok


def test_g_operator_round_trip_is_exact():
    inst = generate(draw_spec("generic", 43, basis_compatible=True))
    q = kg.g_operator(inst.frame, inst.basis)
    rebuilt = kg.reconstruct_from_g_operator(q, inst.basis)
    assert kg.frame_distance(rebuilt, inst.frame) == 0.0
    s = inst.frame.frame_operator()
    assert kg.operator_distance(q.adjoint().then(q), s) < 1e-10 * (1.0 + s.uniform_norm())


def test_g_operator_reconstruction_identity():
    rng = np.random.default_rng(44)
    inst = generate(draw_spec("generic", 44, basis_compatible=True))
    q = kg.g_operator(inst.frame, inst.basis)
    x = random_vector(rng, inst.shape, inst.frame.domain_rank)
    lhs = q.apply(x)
    rhs = None
    for member, e_op in zip(inst.frame.members, inst.basis.members):
        term = member.adjoint().apply(e_op.apply(x))
        rhs = term if rhs is None else rhs + term
    for k in range(inst.shape.block_count):
        assert np.allclose(lhs.stacks[k], rhs.stacks[k], atol=1e-12)


def test_g_operator_rejects_mismatched_basis():
    inst = generate(draw_spec("generic", 45, basis_compatible=True))
    d = inst.frame.domain_rank
    wrong = kg.canonical_basis(inst.shape, d + 1, (d + 1,))
    with pytest.raises(kg.ShapeMismatch):
        kg.g_operator(inst.frame, wrong)


def test_frame_distance_properties():
    _, frame, _ = pinned_example()
    assert kg.frame_distance(frame, frame) == 0.0
    shape = single_block_shape()
    other = kg.GFrame(
        [column_member(shape, 1, 0), column_member(shape, 0, 1), column_member(shape, 1, 2)]
    )
    d1 = kg.frame_distance(frame, other)
    assert d1 == pytest.approx(1.0, rel=1e-12)  # members differ by (0,1) in one slot
    assert kg.frame_distance(other, frame) == d1


def test_an_infinite_member_difference_makes_the_distance_nan_wherever_it_sits():
    shape = kg.AlgebraShape((1,))
    big = kg.ModuleOperator(shape, 1, 1, [[[1e200]]])
    with np.errstate(over="ignore"):
        members = [kg.ModuleOperator.identity(shape, 1), big.then(big)]
    zeros = kg.GFrame([kg.ModuleOperator.zero(shape, 1, 1)] * 2)
    with np.errstate(invalid="ignore"):
        for ordered in (members, members[::-1]):
            assert np.isnan(kg.frame_distance(kg.GFrame(ordered), zeros))
