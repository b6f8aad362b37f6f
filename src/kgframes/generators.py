"""Seeded construction of random instances with prescribed properties.

Every instance is a pure function of its spec: the spec's seed feeds a
PCG64 stream, and each verification trial derives its own sub-seed by
hashing (suite seed, check id, trial index), so scheduling order can
never change what gets generated.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .algebra import AlgebraShape
from .errors import InfeasibleSpec
from .gframes import GFrame, canonical_basis
from .modules import ModuleVector
from .operators import ModuleOperator

KINDS = (
    "generic",
    "tight",
    "rank_deficient_K",
    "coisometry",
    "isometry",
    "commuting_pair",
    "resolution",
)

GENERATOR_NAME = "pcg64-sha256-subseed-v1"

TIGHT_SCALES = (0.25, 1.0, 4.0)


@dataclass(frozen=True)
class Caps:
    """Desk-scale size limits; all pencils stay tiny under these."""

    max_blocks: int = 3
    max_block_dim: int = 4
    max_module_rank: int = 6
    max_members: int = 8
    max_codomain_rank: int = 3

    def validate(self) -> None:
        if min(
            self.max_blocks,
            self.max_block_dim,
            self.max_module_rank,
            self.max_members,
            self.max_codomain_rank,
        ) < 1:
            raise InfeasibleSpec("all size caps must be at least 1")


@dataclass(frozen=True)
class GenSpec:
    """Reproducible recipe for one random instance."""

    seed: int
    kind: str
    block_sizes: tuple[int, ...]
    module_rank: int
    codomain_ranks: tuple[int, ...]
    tight_scale: float = 1.0
    k_inside: bool = False

    def validate(self, caps: Caps | None = None) -> None:
        caps = caps or Caps()
        caps.validate()
        if self.kind not in KINDS:
            raise InfeasibleSpec(f"unknown kind {self.kind!r}; choose from {KINDS}")
        if not self.block_sizes or any(n < 1 for n in self.block_sizes):
            raise InfeasibleSpec(f"bad block sizes {self.block_sizes}")
        if len(self.block_sizes) > caps.max_blocks:
            raise InfeasibleSpec(f"too many blocks: {len(self.block_sizes)}")
        if max(self.block_sizes) > caps.max_block_dim:
            raise InfeasibleSpec(f"block dimension over cap: {self.block_sizes}")
        if not 1 <= self.module_rank <= caps.max_module_rank:
            raise InfeasibleSpec(f"module rank {self.module_rank} over cap")
        if not self.codomain_ranks or any(c < 1 for c in self.codomain_ranks):
            raise InfeasibleSpec(f"bad codomain ranks {self.codomain_ranks}")
        if len(self.codomain_ranks) > caps.max_members:
            raise InfeasibleSpec(f"too many members: {len(self.codomain_ranks)}")
        if self.kind == "tight":
            if sum(self.codomain_ranks) != self.module_rank:
                raise InfeasibleSpec(
                    "tight kind needs codomain ranks partitioning the module rank"
                )
            if self.tight_scale <= 0:
                raise InfeasibleSpec("tight scale must be positive")
        if self.kind == "rank_deficient_K" and self.module_rank < 2:
            raise InfeasibleSpec(
                "rank-deficient kind needs module rank at least 2"
            )
        if self.kind == "isometry" and len(set(self.codomain_ranks)) != 1:
            raise InfeasibleSpec("isometry kind needs equal codomain ranks")
        if self.kind == "resolution":
            if any(c != self.module_rank for c in self.codomain_ranks):
                raise InfeasibleSpec("resolution members must be square")
            parts = len(self.codomain_ranks)
            if parts > min(self.block_sizes) * self.module_rank:
                raise InfeasibleSpec(
                    "more resolution parts than directions on the smallest block"
                )


@dataclass(frozen=True, eq=False)
class Instance:
    """Generated bundle: frame, reference operator, and auxiliaries."""

    spec: GenSpec
    shape: AlgebraShape
    frame: GFrame
    k_op: ModuleOperator
    basis: GFrame | None
    extras: dict = field(default_factory=dict)


def sub_seed(seed: int, check_id: str, trial: int) -> int:
    """Stable 64-bit sub-seed from (seed, check id, trial index)."""
    digest = hashlib.sha256(f"{seed}:{check_id}:{trial}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


# -- raw draws ----------------------------------------------------------


def _gaussian_matrix(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_operator(
    rng: np.random.Generator, shape: AlgebraShape, domain_rank: int, codomain_rank: int
) -> ModuleOperator:
    """Complex-Gaussian operator scaled so frame sums stay order one."""
    blocks = []
    for n in shape:
        scale = 1.0 / np.sqrt(n * max(domain_rank, codomain_rank))
        blocks.append(scale * _gaussian_matrix(rng, n * domain_rank, n * codomain_rank))
    return ModuleOperator(shape, domain_rank, codomain_rank, blocks)


def clamped_square(
    rng: np.random.Generator, shape: AlgebraShape, rank: int
) -> ModuleOperator:
    """Square operator with every singular value clamped into [0.5, 2]."""
    blocks = []
    for n in shape:
        g = _gaussian_matrix(rng, n * rank, n * rank)
        u, svals, vh = np.linalg.svd(g)
        blocks.append(u @ np.diag(np.clip(svals, 0.5, 2.0)) @ vh)
    return ModuleOperator(shape, rank, rank, blocks)


def unitary_square(
    rng: np.random.Generator, shape: AlgebraShape, rank: int
) -> ModuleOperator:
    blocks = []
    for n in shape:
        q, _ = np.linalg.qr(_gaussian_matrix(rng, n * rank, n * rank))
        blocks.append(q)
    return ModuleOperator(shape, rank, rank, blocks)


def orthonormal_columns_operator(
    rng: np.random.Generator,
    shape: AlgebraShape,
    domain_rank: int,
    codomain_rank: int,
) -> ModuleOperator:
    """Operator whose composite with its adjoint (adjoint first) is the
    identity on the codomain; needs codomain_rank <= domain_rank."""
    if codomain_rank > domain_rank:
        raise InfeasibleSpec(
            "orthonormal-column construction needs codomain rank <= domain rank"
        )
    blocks = []
    for n in shape:
        g = _gaussian_matrix(rng, n * domain_rank, n * codomain_rank)
        q, _ = np.linalg.qr(g)
        blocks.append(q)
    return ModuleOperator(shape, domain_rank, codomain_rank, blocks)


def orthonormal_rows_operator(
    rng: np.random.Generator,
    shape: AlgebraShape,
    domain_rank: int,
    codomain_rank: int,
) -> ModuleOperator:
    """Operator whose composite with its adjoint (adjoint second) is the
    identity on the domain; needs domain_rank <= codomain_rank."""
    if domain_rank > codomain_rank:
        raise InfeasibleSpec(
            "orthonormal-row construction needs domain rank <= codomain rank"
        )
    blocks = []
    for n in shape:
        g = _gaussian_matrix(rng, n * codomain_rank, n * domain_rank)
        q, _ = np.linalg.qr(g)
        blocks.append(q.conj().T)
    return ModuleOperator(shape, domain_rank, codomain_rank, blocks)


def random_vector(
    rng: np.random.Generator, shape: AlgebraShape, rank: int
) -> ModuleVector:
    stacks = [
        _gaussian_matrix(rng, n, n * rank) / np.sqrt(n * rank) for n in shape
    ]
    return ModuleVector(shape, rank, stacks)


def polynomial_in(rng: np.random.Generator, k_op: ModuleOperator) -> ModuleOperator:
    """Invertible cubic polynomial of the given operator, norm capped at 2.

    Polynomials of one operator commute with it up to rounding, which is
    what the commuting-transform theorem needs.  Up to 64 draws of complex
    Gaussian coefficients are tried; the first whose smallest singular
    value exceeds 1e-6 is returned.
    """
    shape = k_op.shape
    rank = k_op.domain_rank
    for _ in range(64):
        coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        acc = ModuleOperator.zero(shape, rank, rank)
        power = ModuleOperator.identity(shape, rank)
        for c in coeffs:
            acc = acc + power.scale(complex(c))
            power = power.then(k_op)
        norm = acc.uniform_norm()
        if norm > 2.0:
            acc = acc.scale(2.0 / norm)
        if acc.smallest_singular_value() > 1e-6:
            return acc
    raise InfeasibleSpec("no invertible polynomial found in 64 attempts")


def module_projector(shape: AlgebraShape, rank: int, kill_component: int) -> ModuleOperator:
    """Coordinate projector annihilating one module component."""
    blocks = []
    for n in shape:
        mat = np.eye(n * rank, dtype=complex)
        lo = n * kill_component
        mat[lo : lo + n, lo : lo + n] = 0.0
        blocks.append(mat)
    return ModuleOperator(shape, rank, rank, blocks)


# -- instance assembly ---------------------------------------------------


def _partition_for(spec: GenSpec) -> tuple[int, ...] | None:
    if sum(spec.codomain_ranks) == spec.module_rank:
        return spec.codomain_ranks
    return None


def generate(spec: GenSpec, caps: Caps | None = None) -> Instance:
    """Deterministically build the instance a spec describes."""
    spec.validate(caps)
    shape = AlgebraShape(spec.block_sizes)
    d = spec.module_rank
    rng = _rng(spec.seed)
    partition = _partition_for(spec)
    basis = canonical_basis(shape, d, partition) if partition else None
    extras: dict = {}

    if spec.kind == "generic":
        members = [random_operator(rng, shape, d, c) for c in spec.codomain_ranks]
        frame = GFrame(members)
        k_op = clamped_square(rng, shape, d)

    elif spec.kind == "tight":
        w_op = unitary_square(rng, shape, d)
        root = float(np.sqrt(spec.tight_scale))
        adj = w_op.adjoint()
        members = [adj.then(e).scale(root) for e in basis.members]
        frame = GFrame(members)
        k_op = ModuleOperator.identity(shape, d)
        extras["w"] = w_op
        extras["tight_scale"] = spec.tight_scale

    elif spec.kind == "rank_deficient_K":
        killed = d - 1
        proj = module_projector(shape, d, killed)
        members = [
            proj.then(random_operator(rng, shape, d, c))
            for c in spec.codomain_ranks
        ]
        frame = GFrame(members)
        extras["killed_component"] = killed
        if spec.k_inside:
            # Sandwich a generic square operator between the projector onto
            # the (deficient) range of the frame operator: the range of the
            # result stays inside, and after rescaling to unit norm its
            # optimal lower scale is bounded below by the smallest positive
            # eigenvalue of the frame operator, far above rank tolerance.
            range_proj = frame.frame_operator().range_projection()
            g_free = clamped_square(rng, shape, d)
            raw = range_proj.then(g_free).then(range_proj)
            norm = raw.uniform_norm()
            k_op = raw.scale(1.0 / norm) if norm > 0 else raw
        else:
            k_op = clamped_square(rng, shape, d)

    elif spec.kind == "coisometry":
        members = [random_operator(rng, shape, d, c) for c in spec.codomain_ranks]
        frame = GFrame(members)
        k_op = clamped_square(rng, shape, d)
        new_rank = max(1, d - 1)
        extras["w"] = orthonormal_columns_operator(rng, shape, d, new_rank)
        extras["q_unitary"] = unitary_square(rng, shape, d)

    elif spec.kind == "isometry":
        c = spec.codomain_ranks[0]
        members = [random_operator(rng, shape, d, c) for _ in spec.codomain_ranks]
        frame = GFrame(members)
        k_op = clamped_square(rng, shape, d)
        extras["w"] = orthonormal_rows_operator(rng, shape, c, c + 1)

    elif spec.kind == "commuting_pair":
        members = [random_operator(rng, shape, d, c) for c in spec.codomain_ranks]
        frame = GFrame(members)
        k_op = clamped_square(rng, shape, d)
        extras["q"] = polynomial_in(rng, k_op)

    elif spec.kind == "resolution":
        parts = len(spec.codomain_ranks)
        herm_blocks = []
        for n in shape:
            g = _gaussian_matrix(rng, n * d, n * d)
            herm_blocks.append(g + g.conj().T)
        cuts_per_block = []
        for n in shape:
            total = n * d
            if parts == 1:
                cuts_per_block.append([0, total])
                continue
            cuts = rng.choice(np.arange(1, total), size=parts - 1, replace=False)
            cuts_per_block.append([0, *sorted(int(c) for c in cuts), total])
        members = []
        eigvecs = [np.linalg.eigh(h)[1] for h in herm_blocks]
        for j in range(parts):
            blocks = []
            for vecs, cuts in zip(eigvecs, cuts_per_block):
                cols = vecs[:, cuts[j] : cuts[j + 1]]
                blocks.append(cols @ cols.conj().T)
            members.append(ModuleOperator(shape, d, d, blocks))
        frame = GFrame(members)
        k_op = clamped_square(rng, shape, d)

    else:  # pragma: no cover - guarded by validate
        raise InfeasibleSpec(f"unknown kind {spec.kind!r}")

    return Instance(
        spec=spec, shape=shape, frame=frame, k_op=k_op, basis=basis, extras=extras
    )


# -- spec sampling for the suite -----------------------------------------


def draw_spec(
    kind: str,
    seed: int,
    caps: Caps | None = None,
    basis_compatible: bool = False,
    rich: bool = False,
    k_inside: bool = False,
    tight_scale: float | None = None,
) -> GenSpec:
    """Sample feasible dimensions for a kind from the seed itself.

    ``rich`` forces the total codomain rank to reach the module rank, so
    the frame sum is generically invertible (needed when the reference
    operator is invertible and a dual must exist).
    """
    caps = caps or Caps()
    caps.validate()
    rng = _rng(seed ^ 0x5EEDD1A1)
    blocks = int(rng.integers(1, caps.max_blocks + 1))
    sizes = tuple(int(s) for s in rng.integers(1, caps.max_block_dim + 1, size=blocks))
    hi_rank = caps.max_module_rank
    if rich and not basis_compatible and kind not in ("tight", "resolution"):
        hi_rank = min(hi_rank, caps.max_members * caps.max_codomain_rank)
    lo_rank = 2 if kind in ("rank_deficient_K", "tight") or basis_compatible else 1
    lo_rank = min(lo_rank, hi_rank)
    d = int(rng.integers(lo_rank, hi_rank + 1))
    if kind == "tight" or basis_compatible:
        m = int(rng.integers(1, min(d, caps.max_members) + 1))
        if m == 1:
            ranks = (d,)
        else:
            cuts = sorted(
                int(c) for c in rng.choice(np.arange(1, d), size=m - 1, replace=False)
            )
            edges = [0, *cuts, d]
            ranks = tuple(edges[j + 1] - edges[j] for j in range(m))
    elif kind == "isometry":
        m = int(rng.integers(1, caps.max_members + 1))
        c = int(rng.integers(1, caps.max_codomain_rank + 1))
        ranks = (c,) * m
    elif kind == "resolution":
        ceiling = min(caps.max_members, min(sizes) * d)
        parts = int(rng.integers(1, ceiling + 1)) if ceiling > 1 else 1
        parts = max(parts, min(2, ceiling))
        ranks = (d,) * parts
    else:
        m_lo = 1
        if rich:
            m_lo = min(caps.max_members, -(-d // caps.max_codomain_rank))
        m = int(rng.integers(m_lo, caps.max_members + 1))
        drawn = [int(c) for c in rng.integers(1, caps.max_codomain_rank + 1, size=m)]
        if rich:
            j = 0
            while sum(drawn) < d:
                if drawn[j % m] < caps.max_codomain_rank:
                    drawn[j % m] += 1
                j += 1
        ranks = tuple(drawn)
    scale = tight_scale
    if scale is None:
        scale = float(TIGHT_SCALES[int(rng.integers(0, len(TIGHT_SCALES)))])
    return GenSpec(
        seed=seed,
        kind=kind,
        block_sizes=sizes,
        module_rank=d,
        codomain_ranks=ranks,
        tight_scale=scale,
        k_inside=k_inside,
    )


def spec_to_dict(spec: GenSpec) -> dict:
    return {
        "seed": spec.seed,
        "kind": spec.kind,
        "block_sizes": list(spec.block_sizes),
        "module_rank": spec.module_rank,
        "codomain_ranks": list(spec.codomain_ranks),
        "tight_scale": spec.tight_scale,
        "k_inside": spec.k_inside,
    }


def spec_from_dict(payload: dict) -> GenSpec:
    return GenSpec(
        seed=int(payload["seed"]),
        kind=str(payload["kind"]),
        block_sizes=tuple(int(n) for n in payload["block_sizes"]),
        module_rank=int(payload["module_rank"]),
        codomain_ranks=tuple(int(c) for c in payload["codomain_ranks"]),
        tight_scale=float(payload.get("tight_scale", 1.0)),
        k_inside=bool(payload.get("k_inside", False)),
    )
