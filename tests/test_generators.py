"""Deterministic instance generation: seeding, caps, and family kinds."""

import dataclasses
import hashlib

import numpy as np
import pytest

import kgframes as kg
from kgframes.generators import (
    GENERATOR_NAME,
    KINDS,
    TIGHT_SCALES,
    clamped_square,
    draw_spec,
    generate,
    module_projector,
    polynomial_in,
    random_isometry,
    random_operator,
    spec_to_dict,
    sub_seed,
)


def _instances_equal(a, b) -> bool:
    frames = all(
        np.array_equal(x, y)
        for ma, mb in zip(a.frame.members, b.frame.members)
        for x, y in zip(ma.blocks, mb.blocks)
    )
    refs = all(np.array_equal(x, y) for x, y in zip(a.k_op.blocks, b.k_op.blocks))
    return frames and refs


def test_sub_seed_matches_hash_oracle():
    digest = hashlib.sha256(b"7:canonical_dual_residual:3").digest()
    expected = int.from_bytes(digest[:8], "big")
    assert sub_seed(7, "canonical_dual_residual", 3) == expected
    assert sub_seed(7, "canonical_dual_residual", 4) != expected
    assert sub_seed(8, "canonical_dual_residual", 3) != expected


def test_generation_is_deterministic_bitwise():
    for kind in ("generic", "tight", "coisometry", "resolution"):
        spec = draw_spec(kind, 42)
        assert _instances_equal(generate(spec), generate(spec))


def test_generation_builds_every_block_on_the_trusted_path(monkeypatch):
    # fresh arrays are adopted without the public copy and finiteness scan,
    # so each must already be read-only, complex and C-ordered
    public = []
    init = kg.algebra._Blocks.__init__

    def counting(self, *args):
        public.append(type(self).__name__)
        init(self, *args)

    monkeypatch.setattr(kg.algebra._Blocks, "__init__", counting)
    made = []
    for kind in KINDS:
        for seed in range(6):
            split = seed % 2 == 0 and kind not in ("isometry", "resolution")
            spec = draw_spec(kind, seed, basis_compatible=split, k_inside=seed % 3 == 0)
            inst = generate(spec)
            made += [*inst.frame.members, inst.k_op]
            made += list(inst.basis.members) if inst.basis is not None else []
            made += [x for x in inst.extras.values() if hasattr(x, "blocks")]
    made += kg.canonical_basis(kg.AlgebraShape((2, 3)), 4, (1, 3)).members
    assert public == []
    for blk in (blk for obj in made for blk in obj.blocks):
        assert not blk.flags.writeable and blk.flags.c_contiguous
        assert blk.dtype == complex


def test_the_isometry_builder_is_the_q_factor_of_its_draw():
    shape = kg.AlgebraShape((2, 3))
    for d, c in ((4, 2), (2, 4), (3, 3)):
        got = random_isometry(np.random.default_rng(5), shape, d, c)
        assert got.dims == (d, c)
        rng = np.random.default_rng(5)
        rows, cols = max(d, c), min(d, c)
        for n, blk in zip(shape, got.blocks):
            draw = rng.standard_normal((n * rows, n * cols))
            draw = draw + 1j * rng.standard_normal((n * rows, n * cols))
            q = np.linalg.qr(draw)[0]
            want = q if d >= c else q.conj().T
            assert blk.tobytes() == np.ascontiguousarray(want).tobytes()
    # the rows case is the conjugate transpose of the columns draw
    rows = random_isometry(np.random.default_rng(6), shape, 2, 4)
    cols = random_isometry(np.random.default_rng(6), shape, 4, 2)
    for r_blk, c_blk in zip(rows.blocks, cols.blocks):
        assert r_blk.tobytes() == np.ascontiguousarray(c_blk.conj().T).tobytes()


def test_draw_spec_is_deterministic_and_capped():
    caps = kg.Caps(max_blocks=2, max_block_dim=3, max_module_rank=4, max_members=5)
    for seed in range(20):
        spec = draw_spec("generic", seed, caps)
        assert spec == draw_spec("generic", seed, caps)
        assert 1 <= len(spec.block_sizes) <= caps.max_blocks
        assert all(1 <= n <= caps.max_block_dim for n in spec.block_sizes)
        assert 1 <= spec.module_rank <= caps.max_module_rank
        assert 1 <= len(spec.codomain_ranks) <= caps.max_members
        assert all(1 <= c <= caps.max_codomain_rank for c in spec.codomain_ranks)


def test_basis_compatible_draws_partition_the_module_rank():
    for seed in range(10):
        spec = draw_spec("generic", seed, basis_compatible=True)
        assert sum(spec.codomain_ranks) == spec.module_rank
        inst = generate(spec)
        assert inst.basis is not None


def test_rich_draws_reach_full_rank():
    for seed in range(10):
        spec = draw_spec("generic", seed, rich=True)
        assert sum(spec.codomain_ranks) >= spec.module_rank


def test_every_cap_below_one_is_rejected():
    kg.Caps().validate()
    for cap in dataclasses.fields(kg.Caps):
        with pytest.raises(kg.InfeasibleSpec, match="at least 1"):
            kg.Caps(**{cap.name: 0}).validate()


def test_infeasible_specs_are_rejected():
    caps = kg.Caps()
    with pytest.raises(kg.InfeasibleSpec):
        generate(
            kg.GenSpec(
                seed=0,
                kind="generic",
                block_sizes=(2,),
                module_rank=caps.max_module_rank + 1,
                codomain_ranks=(1,),
            ),
            caps,
        )
    with pytest.raises(kg.InfeasibleSpec):
        generate(
            kg.GenSpec(
                seed=0,
                kind="tight",
                block_sizes=(2,),
                module_rank=3,
                codomain_ranks=(1, 1),  # does not sum to the module rank
            ),
            caps,
        )
    with pytest.raises(kg.InfeasibleSpec):
        generate(
            kg.GenSpec(
                seed=0,
                kind="mystery",
                block_sizes=(2,),
                module_rank=2,
                codomain_ranks=(1,),
            ),
            caps,
        )


def test_spec_dict_round_trip():
    spec = draw_spec("tight", 5, tight_scale=4.0)
    payload = spec_to_dict(spec)
    assert kg.GenSpec(
        **{key: tuple(v) if isinstance(v, list) else v for key, v in payload.items()}
    ) == spec


def test_kinds_listing():
    assert set(KINDS) >= {
        "generic",
        "tight",
        "rank_deficient_K",
        "coisometry",
        "isometry",
        "commuting_pair",
        "resolution",
    }
    assert TIGHT_SCALES == (0.25, 1.0, 4.0)
    assert isinstance(GENERATOR_NAME, str) and GENERATOR_NAME


def test_tight_kind_produces_tight_families():
    for scale in TIGHT_SCALES:
        inst = generate(draw_spec("tight", 8, tight_scale=scale))
        report = kg.tightness_check(inst.frame, inst.k_op)
        assert report.tight and report.scale == pytest.approx(scale, abs=1e-8)


def test_rank_deficient_kind_controls_the_verdict():
    inside = generate(draw_spec("rank_deficient_K", 3, basis_compatible=True, k_inside=True))
    # the frame operator is genuinely singular
    assert not kg.optimal_g_bounds(inside.frame).is_frame()
    assert kg.is_kg_frame(inside.frame, inside.k_op).is_k_g_frame
    outside = generate(draw_spec("rank_deficient_K", 3, basis_compatible=True, k_inside=False))
    assert not kg.is_kg_frame(outside.frame, outside.k_op).is_k_g_frame


def test_coisometry_kind_carries_an_isometric_embedding():
    inst = generate(draw_spec("coisometry", 14, basis_compatible=True))
    w = inst.extras["w"]
    assert w.codomain_rank < w.domain_rank
    for blk in w.blocks:
        gram = blk.conj().T @ blk
        assert np.allclose(gram, np.eye(gram.shape[0]), atol=1e-12)
    q_unitary = inst.extras["q_unitary"]
    ident = kg.ModuleOperator.identity(inst.shape, q_unitary.domain_rank)
    assert kg.operator_distance(q_unitary.then(q_unitary.adjoint()), ident) <= 1e-12


def test_commuting_pair_kind_properties():
    inst = generate(draw_spec("commuting_pair", 2, rich=True))
    q = inst.extras["q"]
    commutator = kg.operator_distance(q.then(inst.k_op), inst.k_op.then(q))
    assert commutator <= 1e-10
    assert q.smallest_singular_value() > 1e-6
    assert q.uniform_norm() <= 2.0 + 1e-12


def test_resolution_kind_sums_to_identity():
    inst = generate(draw_spec("resolution", 13))
    total = inst.frame.members[0]
    for member in inst.frame.members[1:]:
        total = total + member
    ident = kg.ModuleOperator.identity(inst.shape, inst.frame.domain_rank)
    assert kg.operator_distance(total, ident) <= 1e-12
    assert all(m.domain_rank == m.codomain_rank for m in inst.frame.members)


def test_reference_operators_have_clamped_spectra():
    for seed in range(6):
        inst = generate(draw_spec("generic", seed))
        if inst.k_op.uniform_norm() == 0:
            continue
        assert inst.k_op.smallest_singular_value() >= 0.5 - 1e-12
        assert inst.k_op.uniform_norm() <= 2.0 + 1e-12


def test_building_blocks():
    rng = np.random.default_rng(99)
    shape = kg.AlgebraShape((2, 3))
    sq = clamped_square(rng, shape, 3)
    svals = np.concatenate([np.linalg.svd(b, compute_uv=False) for b in sq.blocks])
    assert svals.min() >= 0.5 - 1e-12 and svals.max() <= 2.0 + 1e-12

    u = random_isometry(rng, shape, 2, 2)
    ident = kg.ModuleOperator.identity(shape, 2)
    assert kg.operator_distance(u.then(u.adjoint()), ident) <= 1e-12

    cols = random_isometry(rng, shape, 4, 2)
    for blk in cols.blocks:
        assert np.allclose(blk.conj().T @ blk, np.eye(blk.shape[1]), atol=1e-12)

    rows = random_isometry(rng, shape, 2, 4)
    for blk in rows.blocks:
        assert np.allclose(blk @ blk.conj().T, np.eye(blk.shape[0]), atol=1e-12)

    proj = module_projector(shape, 3, kill_component=1)
    assert kg.operator_distance(proj.then(proj), proj) <= 1e-14
    x = kg.ModuleVector.basis_vector(shape, 3, 1)
    image = proj.apply(x)
    assert kg.max_vector_seminorms(image)[0] <= 1e-14

    k_op = clamped_square(rng, shape, 2)
    poly = polynomial_in(rng, k_op)
    assert kg.operator_distance(poly.then(k_op), k_op.then(poly)) <= 1e-10
    assert poly.smallest_singular_value() > 1e-6


def test_projected_inside_reference_keeps_the_frame_property():
    # references projected through the frame range must admit a finite scale
    for seed in (1, 5, 11):
        inst = generate(
            draw_spec("rank_deficient_K", seed, basis_compatible=True, k_inside=True)
        )
        report = kg.is_kg_frame(inst.frame, inst.k_op)
        assert report.is_k_g_frame
        assert report.lower_c > 1e-10
