"""Block-diagonal *-algebra: arithmetic, seminorms, positivity."""

import numpy as np
import pytest

import kgframes as kg
from kgframes.algebra import eigh_each, eigvalsh_each, singular_values_each
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
        assert np.array_equal(one.blocks[k], np.eye(n))
        assert np.array_equal(zero.blocks[k], np.zeros((n, n)))
    assert [one.seminorm(k) for k in range(2)] == [1.0, 1.0]
    assert [zero.seminorm(k) for k in range(2)] == [0.0, 0.0]


def test_product_matches_blockwise_matmul():
    rng = np.random.default_rng(1)
    shape = kg.AlgebraShape((2, 4))
    a = random_element(rng, shape)
    b = random_element(rng, shape)
    prod = a * b
    for k in range(shape.block_count):
        assert np.allclose(prod.blocks[k], a.blocks[k] @ b.blocks[k], atol=1e-13)


def test_addition_subtraction_negation_scale():
    rng = np.random.default_rng(2)
    shape = kg.AlgebraShape((3,))
    a = random_element(rng, shape)
    b = random_element(rng, shape)
    assert np.array_equal((a + b).blocks[0], a.blocks[0] + b.blocks[0])
    assert np.array_equal((a - b).blocks[0], a.blocks[0] - b.blocks[0])
    assert np.array_equal((-a).blocks[0], -a.blocks[0])
    assert np.allclose(a.scale(2.5j).blocks[0], 2.5j * a.blocks[0], atol=0)


def test_star_antimultiplicative_bitwise():
    # The product is evaluated with a fixed reduction order so that the
    # adjoint identity holds bitwise, not merely within rounding.
    rng = np.random.default_rng(4)
    shape = kg.AlgebraShape((3, 2))
    a = random_element(rng, shape)
    b = random_element(rng, shape)
    b_star = kg.AlgebraElement(shape, [blk.conj().T for blk in b.blocks])
    a_star = kg.AlgebraElement(shape, [blk.conj().T for blk in a.blocks])
    rhs = b_star * a_star
    for k in range(2):
        assert np.array_equal((a * b).blocks[k].conj().T, rhs.blocks[k])


def test_seminorms_are_spectral_norms():
    rng = np.random.default_rng(5)
    shape = kg.AlgebraShape((2, 4))
    a = random_element(rng, shape)
    for k in range(2):
        assert a.seminorm(k) == pytest.approx(
            np.linalg.norm(a.blocks[k], 2), rel=1e-12
        )


def test_positivity_verdict():
    shape = kg.AlgebraShape((2,))
    psd = kg.AlgebraElement(shape, [np.diag([2.0, 0.0]).astype(complex)])
    verdict = kg.psd_verdict(psd.blocks)
    assert verdict.is_positive and verdict.hermitian_ok
    assert verdict.min_eigenvalue == pytest.approx(0.0, abs=1e-12)

    neg = kg.AlgebraElement(shape, [np.diag([1.0, -1e-3]).astype(complex)])
    assert not kg.psd_verdict(neg.blocks).is_positive

    skew = kg.AlgebraElement(shape, [np.array([[1, 1e-5], [0, 1]], dtype=complex)])
    v = kg.psd_verdict(skew.blocks)
    assert not v.is_positive and not v.hermitian_ok


def test_positivity_tolerance_is_relative():
    shape = kg.AlgebraShape((2,))
    # A -1e-3 eigenvalue is negligible against a 1e8 norm but decisive at norm 1.
    big = kg.AlgebraElement(shape, [np.diag([1e8, -1e-3]).astype(complex)])
    small = kg.AlgebraElement(shape, [np.diag([1.0, -1e-3]).astype(complex)])
    assert kg.psd_verdict(big.blocks).is_positive
    assert not kg.psd_verdict(small.blocks).is_positive


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
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


def test_hermitian_element_self_adjoint():
    rng = np.random.default_rng(7)
    shape = kg.AlgebraShape((2, 2))
    h = hermitian_element(rng, shape)
    for k in range(2):
        assert np.allclose(h.blocks[k], h.blocks[k].conj().T, atol=0)


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


@pytest.mark.parametrize(
    "entry", [np.inf, -np.inf, complex(np.inf, np.nan), complex(1.0, -np.inf)]
)
def test_an_infinite_matrix_has_nan_singular_values_and_no_lapack_message(
    entry, capfd
):
    rng = np.random.default_rng(13)
    tame = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    # LAPACK answers two (inf + nan j) diagonal entries with a DLASCL message
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 0] = bad[1, 1] = entry
    got = singular_values_each([tame, bad, tame])
    assert np.isnan(got[1]).all() and got[1].shape == (4,)
    want = np.linalg.svd(tame, compute_uv=False).tobytes()
    assert got[0].tobytes() == got[2].tobytes() == want
    out, err = capfd.readouterr()
    assert "DLASCL" not in out + err


def test_a_nan_modulus_refuses_the_stack_as_lapack_does():
    mats = _mixed_matrices(np.random.default_rng(14))
    bad = np.array(mats[2], dtype=complex)
    bad[0, 0] = np.inf  # a NaN modulus elsewhere decides, wherever it sits
    bad[-1, -1] = complex(np.nan, 1.0)
    for stack in ([bad], [mats[2], bad]):
        with pytest.raises(np.linalg.LinAlgError):
            singular_values_each(stack)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.svd(np.array(stack), compute_uv=False)


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


def _public_constructions(shape, entry):
    """Each public constructor of a block kind, on blocks holding `entry`."""
    mat = np.eye(2, dtype=complex)
    mat[0, 1] = entry
    return {
        "element": lambda: kg.AlgebraElement(shape, [mat]),
        "vector": lambda: kg.ModuleVector(shape, 1, [mat]),
        "operator": lambda: kg.ModuleOperator(shape, 1, 1, [mat]),
    }


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", ["element", "vector", "operator"])
def test_public_construction_rejects_non_finite_entries(kind, entry):
    shape = kg.AlgebraShape((2,))
    with pytest.raises(ValueError, match="block 0 has a non-finite entry"):
        _public_constructions(shape, entry)[kind]()
    _public_constructions(shape, 1.0)[kind]()


def test_the_three_kinds_share_one_blockwise_arithmetic():
    rng = np.random.default_rng(13)
    shape = kg.AlgebraShape((2, 1))
    a, b = random_element(rng, shape), random_element(rng, shape)
    x = kg.ModuleVector.from_components([a, b])
    y = kg.ModuleVector.from_components([b, a])
    f = kg.ModuleOperator(shape, 1, 2, x.stacks)
    g = kg.ModuleOperator(shape, 1, 2, y.stacks)
    for p, q in ((a, b), (x, y), (f, g)):
        for got, want in (
            (p + q, [u + v for u, v in zip(p.blocks, q.blocks)]),
            (p - q, [u - v for u, v in zip(p.blocks, q.blocks)]),
            (-p, [-u for u in p.blocks]),
            (p.scale(2.0 - 1.0j), [(2.0 - 1.0j) * u for u in p.blocks]),
        ):
            assert type(got) is type(p) and got.dims == p.dims
            assert [u.tobytes() for u in got.blocks] == [u.tobytes() for u in want]
    assert x.stacks is x.blocks
    # operands of another kind or other dims do not combine
    for p, q in ((a, x), (x, kg.ModuleVector.zero(shape, 3)), (f, f.adjoint())):
        with pytest.raises(kg.ShapeMismatch):
            p + q  # noqa: B018 - the addition itself must raise
    with pytest.raises(kg.ShapeMismatch):
        kg.ModuleOperator.zero(shape, 0, 1)


def test_psd_verdicts_are_bitwise_the_separate_verdicts():
    rng = np.random.default_rng(14)
    lists = [
        [psd_element(rng, kg.AlgebraShape((2, 3))).blocks[k] for k in range(2)],
        [hermitian_element(rng, kg.AlgebraShape((3, 2))).blocks[k] for k in range(2)],
        [np.zeros((2, 2), dtype=complex)],
        list(random_element(rng, kg.AlgebraShape((2,))).blocks),
    ]
    together = kg.algebra.psd_verdicts(lists, tol_psd=1e-9)
    for verdict, blocks in zip(together, lists, strict=True):
        alone = kg.psd_verdict(blocks, tol_psd=1e-9)
        assert repr(verdict) == repr(alone)
        assert verdict.min_eigenvalue.hex() == alone.min_eigenvalue.hex()
