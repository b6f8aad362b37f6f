"""Block-diagonal *-algebra: arithmetic, involution, seminorms, positivity."""

import numpy as np
import pytest

import kgframes as kg
from kgframes.algebra import eigh_each, eigvalsh_each
from helpers import hermitian_element, psd_element, random_element


def test_shape_validation():
    shape = kg.AlgebraShape((2, 3))
    assert shape.sizes == (2, 3)
    assert shape.block_count == 2
    with pytest.raises(kg.ShapeMismatch):
        kg.AlgebraShape(())
    with pytest.raises(kg.ShapeMismatch):
        kg.AlgebraShape((0,))
    with pytest.raises(kg.ShapeMismatch):
        kg.AlgebraShape((2, -1))


def test_element_block_shapes_enforced():
    shape = kg.AlgebraShape((2, 3))
    good = [np.zeros((2, 2), dtype=complex), np.zeros((3, 3), dtype=complex)]
    kg.AlgebraElement(shape, good)
    with pytest.raises(kg.ShapeMismatch):
        kg.AlgebraElement(shape, [np.zeros((2, 2)), np.zeros((2, 2))])
    with pytest.raises(kg.ShapeMismatch):
        kg.AlgebraElement(shape, [np.zeros((2, 2))])


def test_identity_and_zero():
    shape = kg.AlgebraShape((2, 3))
    one = kg.AlgebraElement.identity(shape)
    zero = kg.AlgebraElement.zero(shape)
    for k, n in enumerate(shape.sizes):
        assert np.array_equal(one.block(k), np.eye(n))
        assert np.array_equal(zero.block(k), np.zeros((n, n)))
    assert one.max_seminorm() == 1.0
    assert zero.max_seminorm() == 0.0


def test_product_matches_blockwise_matmul():
    rng = np.random.default_rng(1)
    shape = kg.AlgebraShape((2, 4))
    a = random_element(rng, shape)
    b = random_element(rng, shape)
    prod = a * b
    for k in range(shape.block_count):
        assert np.allclose(prod.block(k), a.block(k) @ b.block(k), atol=1e-13)


def test_addition_subtraction_negation_scale():
    rng = np.random.default_rng(2)
    shape = kg.AlgebraShape((3,))
    a = random_element(rng, shape)
    b = random_element(rng, shape)
    assert np.array_equal((a + b).block(0), a.block(0) + b.block(0))
    assert np.array_equal((a - b).block(0), a.block(0) - b.block(0))
    assert np.array_equal((-a).block(0), -a.block(0))
    assert np.allclose(a.scale(2.5j).block(0), 2.5j * a.block(0), atol=0)


def test_star_is_conjugate_transpose_exactly():
    rng = np.random.default_rng(3)
    shape = kg.AlgebraShape((2, 3))
    a = random_element(rng, shape)
    for k in range(2):
        assert np.array_equal(a.star().block(k), a.block(k).conj().T)
    # involution
    for k in range(2):
        assert np.array_equal(a.star().star().block(k), a.block(k))


def test_star_antimultiplicative_bitwise():
    # The product is evaluated with a fixed reduction order so that the
    # adjoint identity holds bitwise, not merely within rounding.
    rng = np.random.default_rng(4)
    shape = kg.AlgebraShape((3, 2))
    a = random_element(rng, shape)
    b = random_element(rng, shape)
    lhs = (a * b).star()
    rhs = b.star() * a.star()
    for k in range(2):
        assert np.array_equal(lhs.block(k), rhs.block(k))


def test_seminorms_are_spectral_norms():
    rng = np.random.default_rng(5)
    shape = kg.AlgebraShape((2, 4))
    a = random_element(rng, shape)
    for k in range(2):
        assert a.seminorm(k) == pytest.approx(
            np.linalg.norm(a.block(k), 2), rel=1e-12
        )
    assert a.max_seminorm() == max(a.seminorms())
    assert a.seminorms() == tuple(a.seminorm(k) for k in range(2))


def test_positivity_verdict():
    shape = kg.AlgebraShape((2,))
    psd = kg.AlgebraElement(shape, [np.diag([2.0, 0.0]).astype(complex)])
    verdict = psd.is_positive()
    assert verdict.is_positive and verdict.hermitian_ok
    assert verdict.min_eigenvalue == pytest.approx(0.0, abs=1e-12)

    neg = kg.AlgebraElement(shape, [np.diag([1.0, -1e-3]).astype(complex)])
    assert not neg.is_positive().is_positive

    skew = kg.AlgebraElement(shape, [np.array([[1, 1e-5], [0, 1]], dtype=complex)])
    v = skew.is_positive()
    assert not v.is_positive and not v.hermitian_ok


def test_positivity_tolerance_is_relative():
    shape = kg.AlgebraShape((2,))
    # A -1e-3 eigenvalue is negligible against a 1e8 norm but decisive at norm 1.
    big = kg.AlgebraElement(shape, [np.diag([1e8, -1e-3]).astype(complex)])
    small = kg.AlgebraElement(shape, [np.diag([1.0, -1e-3]).astype(complex)])
    assert big.is_positive().is_positive
    assert not small.is_positive().is_positive


@pytest.mark.xfail(
    strict=True,
    reason="the PSD slack tol_psd*(1+|a|) has an absolute floor",
)
def test_small_negative_element_is_not_positive():
    assert not kg.psd_verdict([np.array([[-5e-10]], dtype=complex)]).is_positive


def test_psd_verdict_reports_worst_block():
    blocks = [np.eye(2, dtype=complex), np.diag([1.0, -1.0]).astype(complex)]
    verdict = kg.psd_verdict(blocks)
    assert not verdict.is_positive
    assert verdict.worst_block == 1
    assert verdict.min_eigenvalue == pytest.approx(-1.0, rel=1e-12)


def test_leq_partial_order():
    rng = np.random.default_rng(6)
    shape = kg.AlgebraShape((3,))
    a = psd_element(rng, shape)
    bump = kg.AlgebraElement.identity(shape)
    assert kg.leq(a, a + bump)
    assert not kg.leq(a + bump, a)
    # reflexive within tolerance
    assert kg.leq(a, a)


def test_hermitian_element_self_adjoint():
    rng = np.random.default_rng(7)
    shape = kg.AlgebraShape((2, 2))
    h = hermitian_element(rng, shape)
    for k in range(2):
        assert np.allclose(h.block(k), h.block(k).conj().T, atol=0)


def test_mixed_shape_rejection():
    rng = np.random.default_rng(8)
    shape = kg.AlgebraShape((2,))
    other = kg.AlgebraShape((3,))
    a = random_element(rng, shape)
    b = random_element(rng, other)
    with pytest.raises(kg.ShapeMismatch):
        a + b  # noqa: B018 - the addition itself must raise


def _mixed_matrices(rng):
    """Shapes from 1x1 to 24x24 (some rectangular, some repeated), real
    and complex, interleaved so equal shapes are not adjacent."""
    mats = []
    for n in (1, 24, 2, 4, 1, 3, 4, 24, 2, 7):
        mats.append(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        mats.append(rng.standard_normal((n, n + 2)))
    mats.insert(5, np.zeros((4, 4), dtype=complex))
    return mats


def _empty_matrices():
    return [np.zeros((0, 0), dtype=complex), np.zeros((2, 0)), np.zeros((0, 3))]


def test_spectral_norms_match_numpy_bitwise_in_input_order():
    mats = _mixed_matrices(np.random.default_rng(11))
    got = kg.spectral_norms(mats)
    want = [float(np.linalg.norm(m, 2)) for m in mats]
    assert [v.hex() for v in got] == [v.hex() for v in want]
    assert got[5] == 0.0
    assert kg.spectral_norms([]) == []
    empty = _empty_matrices()
    got = kg.spectral_norms([mats[0], *empty, mats[1]])
    want = [float(np.linalg.norm(m, 2)) for m in (mats[0], *empty, mats[1])]
    assert [v.hex() for v in got] == [v.hex() for v in want]


def test_psd_verdict_reads_an_empty_block_as_zero():
    verdict = kg.psd_verdict([np.zeros((0, 0)), np.eye(2)])
    assert verdict.is_positive and verdict.hermitian_ok
    assert verdict.worst_block == 0
    assert verdict.min_eigenvalue == 0.0
    assert not kg.psd_verdict([np.zeros((0, 0)), -np.eye(2)]).is_positive


def test_stacked_hermitian_kernels_match_numpy_bitwise():
    mats = _mixed_matrices(np.random.default_rng(12))
    herm = [(m + m.conj().T) / 2.0 for m in mats if m.shape[0] == m.shape[1]]
    herm += [h.real for h in herm[:4]]
    for (lam, vecs), h in zip(eigh_each(herm), herm):
        want_lam, want_vecs = np.linalg.eigh(h)
        assert lam.tobytes() == want_lam.tobytes()
        assert vecs.tobytes() == want_vecs.tobytes()
        assert not vecs.flags.writeable
    for lam, h in zip(eigvalsh_each(herm), herm):
        assert lam.tobytes() == np.linalg.eigvalsh(h).tobytes()
