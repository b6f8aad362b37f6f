"""Finite-rank Hilbert modules: inner products, module action, seminorms."""

import numpy as np
import pytest

import kgframes as kg
from kgframes.generators import random_vector
from helpers import random_element


def test_inner_product_is_row_stack_gram():
    rng = np.random.default_rng(10)
    shape = kg.AlgebraShape((2, 3))
    x = random_vector(rng, shape, 3)
    y = random_vector(rng, shape, 3)
    g = kg.inner(x, y)
    for k in range(shape.block_count):
        oracle = x.stacks[k] @ y.stacks[k].conj().T
        assert np.allclose(g.blocks[k], oracle, atol=1e-13)


def test_inner_conjugate_symmetry_bitwise():
    rng = np.random.default_rng(11)
    shape = kg.AlgebraShape((3, 2))
    x = random_vector(rng, shape, 4)
    y = random_vector(rng, shape, 4)
    lhs = kg.inner(x, y)
    rhs = kg.inner(y, x)
    for k in range(shape.block_count):
        assert np.array_equal(lhs.blocks[k].conj().T, rhs.blocks[k])


def test_inner_self_is_positive():
    rng = np.random.default_rng(12)
    shape = kg.AlgebraShape((2, 4))
    x = random_vector(rng, shape, 2)
    assert kg.psd_verdict(kg.inner(x, x).blocks).is_positive


def test_module_action_compatibility():
    rng = np.random.default_rng(13)
    shape = kg.AlgebraShape((2, 3))
    x = random_vector(rng, shape, 3)
    y = random_vector(rng, shape, 3)
    a = random_element(rng, shape)
    ax = kg.ModuleVector(
        shape, 3, [blk @ stack for blk, stack in zip(a.blocks, x.stacks)]
    )
    lhs = kg.inner(ax, y)
    rhs = a * kg.inner(x, y)
    for k in range(shape.block_count):
        assert np.allclose(lhs.blocks[k], rhs.blocks[k], atol=1e-12)


def test_additivity_and_scaling():
    rng = np.random.default_rng(14)
    shape = kg.AlgebraShape((3,))
    x = random_vector(rng, shape, 2)
    y = random_vector(rng, shape, 2)
    z = random_vector(rng, shape, 2)
    lhs = kg.inner(x + y, z)
    rhs = kg.inner(x, z) + kg.inner(y, z)
    assert np.allclose(lhs.blocks[0], rhs.blocks[0], atol=1e-13)
    sx = x.scale(2.0 - 1.0j)
    assert np.allclose(
        kg.inner(sx, z).blocks[0], (2.0 - 1.0j) * kg.inner(x, z).blocks[0], atol=1e-13
    )


def test_vector_seminorm_matches_inner_product():
    rng = np.random.default_rng(15)
    shape = kg.AlgebraShape((2, 3))
    x = random_vector(rng, shape, 4)
    for k in range(shape.block_count):
        assert kg.vector_seminorm(x, k) == pytest.approx(
            np.sqrt(kg.inner(x, x).seminorm(k)), rel=1e-12
        )
    largest = max(kg.vector_seminorm(x, k) for k in range(shape.block_count))
    assert kg.max_vector_seminorms(x)[0] == largest
    # several vectors share one kernel call and keep their own values
    y = random_vector(rng, shape, 4)
    both = kg.max_vector_seminorms(x, y, x)
    assert both == (largest, kg.max_vector_seminorms(y)[0], largest)


def test_an_infinite_gram_block_makes_the_seminorm_nan_wherever_it_sits():
    shape = kg.AlgebraShape((1, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for stacks in ([[[1.0]], [[1e200]]], [[[1e200]], [[1.0]]]):
            x = kg.ModuleVector(shape, 1, stacks)
            assert np.isnan(kg.max_vector_seminorms(x)[0])


def test_basis_vectors_and_components():
    shape = kg.AlgebraShape((2, 3))
    e1 = kg.ModuleVector.basis_vector(shape, 3, 1)
    for k, n in enumerate(shape.sizes):
        assert np.array_equal(e1.component(1).blocks[k], np.eye(n))
        assert np.array_equal(e1.component(0).blocks[k], np.zeros((n, n)))
        assert np.array_equal(e1.component(2).blocks[k], np.zeros((n, n)))


def test_component_round_trip():
    rng = np.random.default_rng(16)
    shape = kg.AlgebraShape((2, 2))
    x = random_vector(rng, shape, 3)
    rebuilt = kg.ModuleVector.from_components(x.components())
    for k in range(shape.block_count):
        assert np.array_equal(rebuilt.stacks[k], x.stacks[k])


def test_zero_vector():
    shape = kg.AlgebraShape((2,))
    z = kg.ModuleVector.zero(shape, 3)
    assert kg.max_vector_seminorms(z)[0] == 0.0
    assert z.rank == 3


def test_rank_mismatch_rejected():
    rng = np.random.default_rng(17)
    shape = kg.AlgebraShape((2,))
    x = random_vector(rng, shape, 2)
    y = random_vector(rng, shape, 3)
    with pytest.raises(kg.ShapeMismatch):
        kg.inner(x, y)
    with pytest.raises(kg.ShapeMismatch):
        x + y  # noqa: B018 - the addition itself must raise


def test_embed_direction_round_trip():
    # A counterexample direction lives in one block; embedding it gives a
    # module vector whose seminorm is carried by that block alone.
    shape = kg.AlgebraShape((2, 3))
    direction = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)  # block 0: rank*size = 4
    v = kg.embed_direction(shape, 2, 0, direction)
    assert kg.vector_seminorm(v, 0) > 0
    assert kg.vector_seminorm(v, 1) == 0.0
