"""LAPACK call counts of the public entry points.

The counts are deterministic, so these ceilings hold on a noisy machine:
spectral norms go through the stacked kernel (never np.linalg.norm with
ord=2), norms needed together share one call, a group of zero matrices
makes none, a gate settled by Frobenius bounds makes none, the frame
operator is decomposed once per frame and its kept spectrum also gives
its pseudoinverse, any other pseudoinverse is a stacked thin
SVD (never np.linalg.pinv), and the range comparisons build projectors
only (no pencil, no pseudoinverse).
"""

import collections

import numpy as np
import pytest

import kgframes as kg
from kgframes.generators import clamped_square, module_projector, random_operator

# ceilings on the instances below: two block shapes (4x4 twice, 2x2 once);
# an entry point absent from a table has no ceiling on that call
CEILINGS = {
    # the pencil's inclusion gates settle on Frobenius bounds
    "is_kg_frame": {"eigh": 4, "svd": 0},
    # the pencil's own decomposition builds the refusal witness: no range
    # projector, one SVD for the witness's two seminorms
    "is_kg_frame/refused": {"eigh": 6, "svd": 1},
    # the pseudoinverse of S comes from the spectrum the verdict kept
    "canonical_k_dual": {"eigh": 4, "pinv": 0, "svd": 6},
    "tightness_check": {"eigh": 0, "pinv": 0, "svd": 6},
    "kg_via_range": {"eigh": 0, "pinv": 0, "svd": 2},
    # the residual is reported, so measured: one launch per block shape
    "verify_k_dual": {"svd": 2},
    # the axiom gaps of a canonical basis are exactly zero
    "validate_basis": {"svd": 0},
    # a frame operator whose spectrum is kept inverts it with no launch
    "frame_operator.pinv": {"eigh": 0, "inv": 0, "pinv": 0, "svd": 0},
}


def _instance():
    """3 blocks, module rank 2, 6 members of codomain rank 1."""
    rng = np.random.default_rng(7)
    shape = kg.AlgebraShape((2, 1, 2))
    frame = kg.GFrame([random_operator(rng, shape, 2, 1) for _ in range(6)])
    return frame, clamped_square(rng, shape, 2)


def _refused_instance():
    """The instance above with module component 1 killed before each member,
    so K leaks out of the range of the frame operator."""
    frame, k_op = _instance()
    kill = module_projector(frame.shape, 2, 1)
    return kg.GFrame([kill.then(mem) for mem in frame.members]), k_op


def _basis_instance():
    """The same algebra, 2 members of codomain rank 1 and a matching basis."""
    rng = np.random.default_rng(11)
    shape = kg.AlgebraShape((2, 1, 2))
    frame = kg.GFrame([random_operator(rng, shape, 2, 1) for _ in range(2)])
    basis = kg.canonical_basis(shape, 2, (1, 1))
    return frame, clamped_square(rng, shape, 2), basis


@pytest.fixture()
def linalg_counts(monkeypatch):
    counts = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            ord_ = args[1] if len(args) > 1 else kwargs.get("ord")
            counts[name + "2" if name == "norm" and ord_ == 2 else name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("svd", "eigh", "norm", "pinv", "inv"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    return counts


def _call(entry: str):
    """The counted call of an entry, its arguments built beforehand."""
    if entry.startswith("frame_operator."):
        s_op = _instance()[0].frame_operator()
        s_op.hermitian_spectrum()
        return getattr(s_op, entry.split(".")[1])
    args = _args(entry)
    return lambda: getattr(kg, entry.split("/")[0])(*args)


def _args(entry: str) -> tuple:
    if entry == "is_kg_frame/refused":
        return _refused_instance()
    if entry == "kg_via_range":
        return _basis_instance()
    if entry == "validate_basis":
        return (_basis_instance()[2],)
    frame, k_op = _instance()
    if entry == "verify_k_dual":
        dual = kg.canonical_k_dual(frame, k_op).frame
        # a fresh copy of K keeps no norm from the construction
        return frame, dual, kg.ModuleOperator(k_op.shape, 2, 2, k_op.blocks)
    return frame, k_op


@pytest.mark.parametrize("entry", sorted(CEILINGS))
def test_entry_point_lapack_counts(entry, linalg_counts):
    call = _call(entry)
    linalg_counts.clear()
    call()
    assert linalg_counts["norm2"] == 0
    for name, ceiling in CEILINGS[entry].items():
        assert linalg_counts[name] <= ceiling, name
