"""Adjointable operators: calculus, factorization, and PSD pencil bounds."""

import numpy as np
import pytest

import kgframes as kg
from kgframes.generators import random_operator, random_vector
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
        assert np.allclose(lhs.blocks[k], rhs.blocks[k], atol=1e-12)


def test_coeff_extraction_round_trip():
    rng = np.random.default_rng(24)
    shape = kg.AlgebraShape((2, 2))
    f = random_operator(rng, shape, 2, 3)
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
    assert f.uniform_norm() == max(s[0] for s in svals)
    assert f.smallest_singular_value() == pytest.approx(
        min(s[-1] for s in svals), rel=1e-12
    )


@pytest.mark.parametrize("entries", [(1.0, 1e200), (1e200, 1.0)])
def test_an_infinite_block_makes_the_uniform_norm_nan_wherever_it_sits(entries):
    shape = kg.AlgebraShape((1, 1))
    a = kg.ModuleOperator(shape, 1, 1, [[[entries[0]]], [[entries[1]]]])
    with np.errstate(over="ignore"):
        squares = [a.then(a) for _ in range(2)]
    assert np.isnan(squares[0].uniform_norm())
    assert np.isnan(kg.uniform_norms(squares[1], a)[0])


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


def _exact_hermitian(mat):
    # (a + a*) / 2 is bitwise its own conjugate transpose
    return (mat + mat.conj().T) / 2.0


def _hermitian_blocks(rng, n):
    """Exactly Hermitian blocks with eigenvalue moduli in [1e-3, 2] or zero:
    PSD full rank, PSD rank-deficient, indefinite and zero.  The 1e-3 is
    kept at rel_tol 1e-10 and dropped at 1e-3 unless it is the largest.
    Also returns, for a rel_tol, each block rebuilt from the eigenvalues
    that `kept_mask` keeps."""
    q, _ = np.linalg.qr(_gaussian(rng, n, n))
    full = rng.uniform(0.5, 2.0, n)
    full[0] = 1e-3
    deficient = full.copy()
    deficient[: n // 2] = 0.0
    indefinite = full * np.where(np.arange(n) % 2, -1.0, 1.0)
    spectra = [full, deficient, indefinite, np.zeros(n)]

    def build(lam):
        return _exact_hermitian((q * lam) @ q.conj().T)

    def kept(rel_tol):
        out = []
        for lam in spectra:
            cut = rel_tol * max(float(np.abs(lam).max()), 1e-300)
            out.append(build(np.where(np.abs(lam) > cut, lam, 0.0)))
        return out

    return [build(lam) for lam in spectra], kept


def _close(got, want):
    return np.linalg.norm(got - want, 2) <= 1e-12 * np.linalg.norm(want, 2)


@pytest.mark.parametrize("rel_tol", [kg.TOL_RANK, 1e-3])
@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_a_hermitian_pinv_comes_from_the_spectrum(rel_tol, n):
    rng = np.random.default_rng(30 + n)
    blocks, kept = _hermitian_blocks(rng, n)
    op = kg.ModuleOperator(kg.AlgebraShape((n,) * len(blocks)), 1, 1, blocks)
    p = op.pinv(rel_tol)
    for blk, a, got in zip(blocks, kept(rel_tol), p.blocks):
        assert np.array_equal(got, got.conj().T)
        # Penrose identities of the block with its dropped eigenvalues cut
        assert _close(a @ got @ a, a)
        assert _close(got @ a @ got, got)
        for prod in (a @ got, got @ a):
            assert _close(prod.conj().T, prod)
        want = np.linalg.pinv(blk, rcond=rel_tol)
        assert _close(got, want)
        assert np.linalg.matrix_rank(got) == np.linalg.matrix_rank(want)
    # the route does not depend on whether the spectrum was read before
    read_first = kg.ModuleOperator(op.shape, 1, 1, blocks)
    read_first.hermitian_spectrum()
    for a, b in zip(read_first.pinv(rel_tol).blocks, p.blocks):
        assert a.tobytes() == b.tobytes()


def test_a_block_hermitian_only_to_roundoff_keeps_the_svd_route():
    rng = np.random.default_rng(50)
    blk = _exact_hermitian(_gaussian(rng, 4, 4))
    blk[0, 1] += 1e-15
    op = kg.ModuleOperator(kg.AlgebraShape((4,)), 1, 1, [blk])
    assert op.pinv().blocks[0].tobytes() == np.linalg.pinv(blk, rcond=kg.TOL_RANK).tobytes()


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


def test_range_projection_and_its_traces():
    shape = single_block_shape()
    f = square_op(shape, [[1, 0, 0], [0, 2, 0], [0, 0, 0]])
    proj = f.range_projection()
    assert kg.operator_distance(proj.then(proj), proj) < 1e-13
    assert kg.operator_distance(proj.adjoint(), proj) < 1e-13
    assert kg.operator_distance(f.then(proj), f) < 1e-13
    assert np.trace(proj.blocks[0]).real == pytest.approx(2.0, abs=1e-13)
    zero = square_op(shape, [[0, 0], [0, 0]]).range_projection()
    assert np.trace(zero.blocks[0]).real == 0.0


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
    # the refusal witness is the direction M sees outside the range of N
    assert pencil.block == 0 and abs(pencil.direction[0]) == 1.0


def test_a_refused_pencil_finds_its_witness_on_a_vanished_block():
    m_blocks = [np.eye(2, dtype=complex), np.diag([0.0, 3.0]).astype(complex)]
    n_blocks = [np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)]
    pencil = kg.psd_quotient_max(m_blocks, n_blocks)
    assert not pencil.included and pencil.lower_scale == 0.0
    assert pencil.block == 1 and abs(pencil.direction[1]) == 1.0


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
