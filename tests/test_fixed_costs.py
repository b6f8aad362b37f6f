"""Fixed costs cut without changing a bit of any result.

Products, sums, adjoints, pseudoinverses and the frame's derived
operators are adopted without a copy, so they must already be what a
copy would have made: read-only, complex and C-ordered; public
construction still copies.  Norms that are known without LAPACK make no
call, norms needed together share one, and a frame keeps what it was
measured against.
"""

import collections

import numpy as np
import pytest

import kgframes as kg
from kgframes.algebra import singular_values_each
from kgframes.generators import clamped_square, random_operator, random_vector
from helpers import pinned_example, random_element


def _assert_fresh(arrays):
    for arr in arrays:
        assert not arr.flags.writeable
        assert arr.flags.c_contiguous
        assert arr.dtype == complex


def _producers():
    """Every trusted result, by name, on one random instance."""
    rng = np.random.default_rng(40)
    shape = kg.AlgebraShape((2, 1, 3))
    f = random_operator(rng, shape, 2, 3)
    g = random_operator(rng, shape, 3, 2)
    k_op = clamped_square(rng, shape, 2)
    psd = f.then(f.adjoint())
    x = random_vector(rng, shape, 2)
    a = random_element(rng, shape)
    b = random_element(rng, shape)
    frame = kg.GFrame([random_operator(rng, shape, 2, 1) for _ in range(3)])
    basis = kg.canonical_basis(shape, 2, (1, 1))
    small = kg.GFrame(frame.members[:2])
    ops = {
        "then": f.then(g),
        "add": k_op + k_op,
        "sub": k_op - psd,
        "scale": f.scale(2.0 - 1.0j),
        "adjoint": f.adjoint(),
        "pinv": f.pinv(),
        "range_projection": f.range_projection(),
        "hermitian_sqrt": psd.hermitian_sqrt(),
        "analysis_operator": frame.analysis_operator(),
        "frame_operator": frame.frame_operator(),
        "g_operator": kg.g_operator(small, basis),
    }
    vectors = {
        "apply": f.apply(x),
        "vector_add": x + x,
        "vector_sub": x - x,
        "vector_scale": x.scale(1.0j),
        "embed_direction": kg.embed_direction(shape, 2, 2, np.arange(6.0) + 1j),
    }
    elements = {
        "inner": kg.inner(x, x),
        "element_add": a + b,
        "element_sub": a - b,
        "element_neg": -a,
        "element_mul": a * b,
        "element_scale": a.scale(3.0),
    }
    return ops, vectors, elements


def test_fresh_blocks_and_stacks_are_read_only():
    ops, vectors, elements = _producers()
    for op in ops.values():
        _assert_fresh(op.blocks)
    for vec in vectors.values():
        _assert_fresh(vec.stacks)
    for elem in elements.values():
        _assert_fresh(elem.blocks)


def test_adjoint_and_star_are_exact_conjugate_transposes():
    ops, _, _ = _producers()
    f = ops["adjoint"].adjoint()
    for got, blk in zip(ops["adjoint"].blocks, f.blocks):
        assert np.array_equal(got, blk.conj().T)


def test_public_constructors_copy_their_input():
    shape = kg.AlgebraShape((2,))
    mat = np.arange(16.0).reshape(4, 4) + 0j
    stack = np.arange(4.0).reshape(2, 2) + 0j
    op = kg.ModuleOperator(shape, 2, 2, [mat])
    vec = kg.ModuleVector(shape, 1, [stack])
    elem = kg.AlgebraElement(shape, [stack])
    before = (op.blocks[0].copy(), vec.stacks[0].copy(), elem.blocks[0].copy())
    mat[0, 0] = stack[0, 0] = 99.0
    assert mat.flags.writeable and stack.flags.writeable
    assert np.array_equal(op.blocks[0], before[0])
    assert np.array_equal(vec.stacks[0], before[1])
    assert np.array_equal(elem.blocks[0], before[2])


@pytest.fixture()
def svd_calls(monkeypatch):
    calls = collections.Counter()
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls["svd"] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def test_an_all_zero_group_makes_no_svd_call(svd_calls):
    zeros = [np.zeros((3, 3), dtype=complex), np.zeros((3, 3), dtype=complex)]
    assert kg.spectral_norms(zeros) == [0.0, 0.0]
    # nor for its singular values, LAPACK's bitwise, or its ranks
    stacks = [
        np.zeros(dims, dtype=dtype)
        for dims in ((1, 1), (4, 2), (3, 5), (24, 24))
        for dtype in (complex, float)
    ]
    values = singular_values_each(stacks)
    zero_op = kg.ModuleOperator.zero(kg.AlgebraShape((2, 3)), 2, 1)
    assert zero_op.rank_profile() == (0, 0)
    assert svd_calls["svd"] == 0
    for got, mat in zip(values, stacks):
        assert got.tobytes() == np.linalg.svd(mat, compute_uv=False).tobytes()
    svd_calls.clear()
    # a group with one nonzero matrix is decomposed whole, zeros included
    norms = kg.spectral_norms([*zeros, np.eye(3, dtype=complex)])
    assert norms == [0.0, 0.0, 1.0]
    assert svd_calls["svd"] == 1
    assert not any(np.signbit(norms))


def test_canonical_basis_validates_without_svd(svd_calls):
    basis = kg.canonical_basis(kg.AlgebraShape((2, 3)), 3, (1, 2))
    report = kg.validate_basis(basis)
    assert report.delta_violation == report.parseval_violation == 0.0
    assert svd_calls["svd"] == 0


def test_zero_reference_is_degenerate_and_a_tiny_one_is_not():
    shape, frame, _ = pinned_example()
    zero = kg.is_kg_frame(frame, kg.ModuleOperator.zero(shape, 2, 2))
    assert zero.degenerate_zero_k and zero.is_k_g_frame
    tiny = kg.ModuleOperator.identity(shape, 2).scale(1e-300)
    assert tiny.uniform_norm() > 0.0
    assert not kg.is_kg_frame(frame, tiny).degenerate_zero_k


def test_uniform_norms_match_uniform_norm_and_fill_the_cache():
    rng = np.random.default_rng(42)
    shape = kg.AlgebraShape((2, 1, 2))
    ops = [random_operator(rng, shape, 2, c) for c in (1, 2, 2)]
    ops.append(kg.ModuleOperator.zero(shape, 2, 2))
    twins = [
        kg.ModuleOperator(shape, op.domain_rank, op.codomain_rank, op.blocks)
        for op in ops
    ]
    norms = kg.uniform_norms(*ops)
    assert all(op._norm is not None for op in ops)
    assert norms == tuple(twin.uniform_norm() for twin in twins)
    # kept norms are read back, not measured again
    assert kg.uniform_norms(ops[1], ops[0]) == (norms[1], norms[0])


def test_a_dual_pair_is_measured_once(svd_calls):
    shape, frame, k_op = pinned_example()
    dual = kg.canonical_k_dual(frame, k_op).frame
    svd_calls.clear()
    first = kg.verify_k_dual(frame, dual, k_op)
    assert svd_calls["svd"] == 0
    # the kept residual is judged afresh at each tolerance
    strict = kg.verify_k_dual(frame, dual, k_op, tol_eq=-1.0)
    assert strict.residual == first.residual and first.is_dual and not strict.is_dual
    # another reference operator is another pair
    other = kg.ModuleOperator(shape, 2, 2, k_op.blocks)
    assert kg.verify_k_dual(frame, dual, other).residual == first.residual
    assert svd_calls["svd"] == 1


def test_a_k_g_frame_report_is_kept_per_reference_and_cutoff():
    shape, frame, k_op = pinned_example()
    first = kg.is_kg_frame(frame, k_op)
    assert kg.is_kg_frame(frame, k_op) is first
    assert kg.is_kg_frame(frame, k_op, rel_tol=1e-10) is first
    # another cutoff, or another reference operator, is decided afresh
    coarse = kg.is_kg_frame(frame, k_op, rel_tol=1e-6)
    twin = kg.is_kg_frame(frame, kg.ModuleOperator(shape, 2, 2, k_op.blocks))
    for report in (coarse, twin):
        assert report is not first and report.lower_c == first.lower_c


def test_the_square_operator_is_built_once_per_basis():
    shape, frame, _ = pinned_example()
    basis = kg.canonical_basis(shape, 2, (1, 1))
    pair = kg.GFrame(frame.members[:2])
    q_op = kg.g_operator(pair, basis)
    assert kg.g_operator(pair, basis) is q_op
    twin = kg.canonical_basis(shape, 2, (1, 1))
    again = kg.g_operator(pair, twin)
    assert again is not q_op and np.array_equal(again.blocks[0], q_op.blocks[0])
    with pytest.raises(kg.ShapeMismatch):
        kg.g_operator(frame, basis)
