"""Adjointable operators: calculus, factorization, and PSD pencil bounds."""

import numpy as np
import pytest

import kgframes as kg
from kgframes.generators import clamped_square, random_operator, random_vector
from helpers import square_op, single_block_shape


# -- realization calculus -------------------------------------------------


def test_apply_is_right_multiplication_bitwise():
    rng = np.random.default_rng(20)
    shape = kg.AlgebraShape((2, 3))
    f = random_operator(rng, shape, 3, 2)
    x = random_vector(rng, shape, 3)
    image = f.apply(x)
    for k in range(shape.block_count):
        assert np.array_equal(image.stacks[k], x.stacks[k] @ f.blocks[k])


def test_then_composes_realizations_bitwise():
    rng = np.random.default_rng(21)
    shape = kg.AlgebraShape((2, 3))
    f = random_operator(rng, shape, 3, 2)
    g = random_operator(rng, shape, 2, 4)
    chain = f.then(g)
    for k in range(shape.block_count):
        assert np.array_equal(chain.blocks[k], f.blocks[k] @ g.blocks[k])
    x = random_vector(rng, shape, 3)
    lhs = chain.apply(x)
    rhs = g.apply(f.apply(x))
    for k in range(shape.block_count):
        assert np.allclose(lhs.stacks[k], rhs.stacks[k], atol=1e-13)


def test_then_shape_check():
    rng = np.random.default_rng(22)
    shape = kg.AlgebraShape((2,))
    f = random_operator(rng, shape, 3, 2)
    with pytest.raises(kg.ShapeMismatch):
        f.then(f)


def test_adjoint_is_conjugate_transpose_and_defining_identity():
    rng = np.random.default_rng(23)
    shape = kg.AlgebraShape((2, 3))
    f = random_operator(rng, shape, 3, 2)
    for k in range(shape.block_count):
        assert np.array_equal(f.adjoint().blocks[k], f.blocks[k].conj().T)
    x = random_vector(rng, shape, 3)
    z = random_vector(rng, shape, 2)
    lhs = kg.inner(f.apply(x), z)
    rhs = kg.inner(x, f.adjoint().apply(z))
    for k in range(shape.block_count):
        assert np.allclose(lhs.block(k), rhs.block(k), atol=1e-12)


def test_coeff_extraction_round_trip():
    rng = np.random.default_rng(24)
    shape = kg.AlgebraShape((2, 2))
    f = random_operator(rng, shape, 2, 3)
    rebuilt = kg.ModuleOperator.from_coeffs(f.coeffs())
    for blk, back in zip(f.blocks, rebuilt.blocks, strict=True):
        assert blk.shape == back.shape
        assert np.allclose(blk, back, rtol=0.0, atol=1e-14)
    # componentwise application agrees with the realization route
    x = random_vector(rng, shape, 2)
    a = f.apply(x)
    b = f.apply_componentwise(x)
    for k in range(shape.block_count):
        assert np.allclose(a.stacks[k], b.stacks[k], atol=1e-12)


def test_uniform_norm_and_smallest_singular_value():
    rng = np.random.default_rng(25)
    shape = kg.AlgebraShape((2, 3))
    f = random_operator(rng, shape, 3, 2)
    svals = [np.linalg.svd(b, compute_uv=False) for b in f.blocks]
    assert f.uniform_norm() == pytest.approx(max(s[0] for s in svals), rel=1e-12)
    assert f.smallest_singular_value() == pytest.approx(
        min(s[-1] for s in svals), rel=1e-12
    )


def test_inverse_and_invertibility_error():
    rng = np.random.default_rng(26)
    shape = kg.AlgebraShape((2, 3))
    f = clamped_square(rng, shape, 3)
    ident = kg.ModuleOperator.identity(shape, 3)
    assert kg.operator_distance(f.then(f.inverse()), ident) < 1e-12
    assert kg.operator_distance(f.inverse().then(f), ident) < 1e-12
    singular = square_op(single_block_shape(), [[1, 0], [0, 0]])
    with pytest.raises(kg.InvertibilityError):
        singular.inverse()
    rect = random_operator(rng, shape, 3, 2)
    with pytest.raises(kg.InvertibilityError):
        rect.inverse()


def test_pinv_satisfies_penrose_identities():
    rng = np.random.default_rng(27)
    shape = kg.AlgebraShape((2, 3))
    f = random_operator(rng, shape, 4, 2)
    p = f.pinv()
    assert kg.operator_distance(f.then(p).then(f), f) < 1e-12
    assert kg.operator_distance(p.then(f).then(p), p) < 1e-12
    for k in range(shape.block_count):
        proj1 = f.blocks[k] @ p.blocks[k]
        proj2 = p.blocks[k] @ f.blocks[k]
        assert np.allclose(proj1, proj1.conj().T, atol=1e-12)
        assert np.allclose(proj2, proj2.conj().T, atol=1e-12)


def _gaussian(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


@pytest.mark.parametrize("rel_tol", [kg.TOL_RANK, 1e-3])
def test_pinv_is_numpy_pinv_bitwise(rel_tol):
    # three blocks of one size share a stacked SVD: a full-rank, a
    # rank-deficient and a zero realization, from 1x1 up to 24x24
    rng = np.random.default_rng(29)
    for n in (1, 2, 3, 4, 8):
        shape = kg.AlgebraShape((n, n, n))
        for d, c in ((1, 1), (2, 3), (3, 2), (3, 3)):
            rows, cols = n * d, n * c
            low = max(1, min(rows, cols) // 2)
            blocks = [
                _gaussian(rng, rows, cols),
                _gaussian(rng, rows, low) @ _gaussian(rng, low, cols),
                np.zeros((rows, cols), dtype=complex),
            ]
            op = kg.ModuleOperator(shape, d, c, blocks)
            for got, blk in zip(op.pinv(rel_tol).blocks, op.blocks):
                want = np.linalg.pinv(blk, rcond=rel_tol)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()


def test_hermitian_sqrt():
    rng = np.random.default_rng(28)
    shape = kg.AlgebraShape((3,))
    a = random_operator(rng, shape, 2, 2)
    s = a.then(a.adjoint())
    root = s.hermitian_sqrt()
    assert kg.operator_distance(root.then(root), s) < 1e-12
    rect = random_operator(rng, shape, 2, 3)
    with pytest.raises(kg.ShapeMismatch):
        rect.hermitian_sqrt()


def test_range_projection_and_rank_profile():
    shape = single_block_shape()
    f = square_op(shape, [[1, 0, 0], [0, 2, 0], [0, 0, 0]])
    proj = f.range_projection()
    assert kg.operator_distance(proj.then(proj), proj) < 1e-13
    assert kg.operator_distance(proj.adjoint(), proj) < 1e-13
    assert kg.operator_distance(f.then(proj), f) < 1e-13
    assert f.rank_profile() == (2,)
    assert square_op(shape, [[0, 0], [0, 0]]).rank_profile() == (0,)


def test_stacked_range_projection_matches_per_block_svd_bitwise():
    rng = np.random.default_rng(32)
    # mixed block sizes, two blocks sharing a shape, one rank-deficient
    shape = kg.AlgebraShape((3, 1, 3, 2))
    low = random_operator(rng, shape, 3, 1).then(random_operator(rng, shape, 1, 2))
    for op in (random_operator(rng, shape, 2, 3), low):
        proj = op.range_projection()
        for blk, got in zip(op.blocks, proj.blocks):
            _, svals, vh = np.linalg.svd(blk, full_matrices=False)
            vr = vh[svals > kg.TOL_RANK * max(float(svals[0]), 1e-300)].conj().T
            want = vr @ vr.conj().T
            assert np.array_equal(got, (want + want.conj().T) / 2.0)


def test_operator_distance_and_arithmetic():
    rng = np.random.default_rng(29)
    shape = kg.AlgebraShape((2, 2))
    f = random_operator(rng, shape, 2, 2)
    g = random_operator(rng, shape, 2, 2)
    assert kg.operator_distance(f, f) == 0.0
    assert kg.operator_distance(f, g) == kg.operator_distance(g, f)
    diff = f - g
    for k in range(2):
        assert np.array_equal(diff.blocks[k], f.blocks[k] - g.blocks[k])
    assert kg.operator_distance(f + g - g, f) < 1e-13
    assert kg.operator_distance(f.scale(2.0), f + f) < 1e-13


# -- PSD pencil bounds ----------------------------------------------------


def test_largest_lower_scale_pinned_values():
    # N = [[2,1],[1,2]], M = diag(1,0): the best C with C*M <= N is 3/2.
    n_mat = np.array([[2, 1], [1, 2]], dtype=complex)
    m_mat = np.diag([1.0, 0.0]).astype(complex)
    pencil = kg.psd_quotient_max([m_mat], [n_mat])
    scale = pencil.lower_scale
    assert scale == pytest.approx(1.5, abs=1e-9)
    assert pencil.included
    assert pencil.quotient == pytest.approx(2.0 / 3.0, abs=1e-12)
    # At the optimum the pencil direction is tangent: v*(N - C*M)v = 0.
    v = pencil.direction
    assert v is not None
    tangent = (v.conj() @ (n_mat - scale * m_mat) @ v).real
    assert abs(tangent) < 1e-12


def test_largest_lower_scale_range_leak_gives_zero():
    pencil = kg.psd_quotient_max(
        [np.diag([1.0, 0.0]).astype(complex)], [np.diag([0.0, 1.0]).astype(complex)]
    )
    assert pencil.lower_scale == 0.0
    assert not pencil.included


def test_largest_lower_scale_zero_reference_gives_infinity():
    pencil = kg.psd_quotient_max(
        [np.zeros((2, 2), dtype=complex)], [np.eye(2, dtype=complex)]
    )
    assert pencil.lower_scale == np.inf
    assert pencil.included


def test_psd_quotient_max_matches_reciprocal():
    n_mat = np.array([[2, 1], [1, 2]], dtype=complex)
    m_mat = np.diag([1.0, 0.0]).astype(complex)
    pencil = kg.psd_quotient_max([m_mat], [n_mat])
    assert pencil.included
    assert pencil.quotient == pytest.approx(2.0 / 3.0, abs=1e-12)
    scale = kg.psd_quotient_max([m_mat], [n_mat]).lower_scale
    assert scale == pytest.approx(1.0 / pencil.quotient, rel=1e-12)


def test_pencil_worst_block_is_reported():
    easy = np.eye(2, dtype=complex)
    hard = np.diag([1.0, 10.0]).astype(complex)
    # block 1 forces the smaller admissible scale
    pencil = kg.psd_quotient_max([easy, hard], [easy, easy])
    assert pencil.lower_scale == pytest.approx(0.1, rel=1e-12)
    assert pencil.block == 1


# -- range factorization --------------------------------------------------


def test_factorization_diagonal_oracle():
    shape = single_block_shape()
    z = square_op(shape, np.diag([1.0, 2.0, 0.0]))
    t = square_op(shape, np.diag([0.5, 1.0, 0.0]))
    cert = kg.douglas(t, z)
    assert kg.range_included(t, z) == cert.range_included
    assert cert.range_included and cert.pencil_included and cert.factor_ok
    assert cert.conditions_agree()
    assert cert.alpha_min == pytest.approx(0.5, rel=1e-12)
    assert cert.factor.uniform_norm() == pytest.approx(0.5, rel=1e-12)
    assert cert.residual < 1e-12
    assert kg.operator_distance(cert.factor.then(z), t) < 1e-12


def test_factorization_rejects_range_leak():
    shape = single_block_shape()
    z = square_op(shape, np.diag([1.0, 2.0, 0.0]))
    t = square_op(shape, np.diag([0.0, 0.0, 1.0]))
    cert = kg.douglas(t, z)
    assert kg.range_included(t, z) == cert.range_included
    assert not cert.range_included
    assert not cert.pencil_included
    assert not cert.factor_ok
    assert cert.conditions_agree()
    assert cert.alpha_min == np.inf


def test_factorization_by_construction_inclusion():
    rng = np.random.default_rng(30)
    shape = kg.AlgebraShape((2, 3))
    for _ in range(10):
        x = random_operator(rng, shape, 2, 3)
        z = random_operator(rng, shape, 3, 2)
        t = x.then(z)
        cert = kg.douglas(t, z)
        assert kg.range_included(t, z) == cert.range_included
        assert cert.range_included and cert.conditions_agree()
        assert cert.residual <= 1e-8
        assert kg.operator_distance(cert.factor.then(z), t) <= 1e-8
        assert cert.factor.uniform_norm() <= cert.alpha_min + 1e-6


def test_factorization_requires_matching_codomains():
    rng = np.random.default_rng(31)
    shape = kg.AlgebraShape((2,))
    t = random_operator(rng, shape, 2, 3)
    z = random_operator(rng, shape, 2, 2)
    with pytest.raises(kg.ShapeMismatch):
        kg.douglas(t, z)
    with pytest.raises(kg.ShapeMismatch):
        kg.range_included(t, z)


# -- invertible norm envelope ----------------------------------------------


def test_norm_envelope_for_invertible_operator():
    rng = np.random.default_rng(32)
    shape = kg.AlgebraShape((2, 3))
    f = clamped_square(rng, shape, 3)
    eta = random_vector(rng, shape, 3)
    report = kg.norm_envelope_check(f, eta)
    assert report.ok and report.lower_ok and report.upper_ok
    assert report.upper_scale == pytest.approx(f.uniform_norm() ** 2, rel=1e-12)
    assert report.lower_scale == pytest.approx(
        1.0 / f.inverse().uniform_norm() ** 2, rel=1e-12
    )
    assert report.lower_scale <= report.upper_scale


def test_norm_envelope_requires_invertibility():
    rng = np.random.default_rng(33)
    shape = kg.AlgebraShape((2,))
    rect = random_operator(rng, shape, 3, 2)
    eta = random_vector(rng, shape, 3)
    with pytest.raises(kg.InvertibilityError):
        kg.norm_envelope_check(rect, eta)
