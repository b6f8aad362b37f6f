"""LAPACK call counts of the public entry points.

The counts are deterministic, so these ceilings hold on a noisy machine:
spectral norms go through the stacked kernel (never np.linalg.norm with
ord=2), and the frame operator is decomposed once per frame.
"""

import collections

import numpy as np
import pytest

import kgframes as kg
from kgframes.generators import clamped_square, random_operator

# eigh calls on the instance below: two block shapes (4x4 twice, 2x2 once)
EIGH_CEILINGS = {
    "is_kg_frame": 4,
    "canonical_k_dual": 4,
    "tightness_check": 8,
}


def _instance():
    """3 blocks, module rank 2, 6 members of codomain rank 1."""
    rng = np.random.default_rng(7)
    shape = kg.AlgebraShape((2, 1, 2))
    frame = kg.GFrame([random_operator(rng, shape, 2, 1) for _ in range(6)])
    return frame, clamped_square(rng, shape, 2)


@pytest.fixture()
def linalg_counts(monkeypatch):
    counts = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            ord_ = args[1] if len(args) > 1 else kwargs.get("ord")
            counts[name + "2" if name == "norm" and ord_ == 2 else name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("svd", "eigh", "norm"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    return counts


@pytest.mark.parametrize("entry", sorted(EIGH_CEILINGS))
def test_entry_point_lapack_counts(entry, linalg_counts):
    frame, k_op = _instance()
    linalg_counts.clear()
    getattr(kg, entry)(frame, k_op)
    assert linalg_counts["norm2"] == 0
    assert linalg_counts["eigh"] <= EIGH_CEILINGS[entry]
