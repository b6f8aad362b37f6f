"""The residual gate kernel: `within_slack` decides from Frobenius bounds
where they settle the gate, and its verdict is always the one the exact
`spectral_norms` gate gives."""

import numpy as np
import pytest

from kgframes.algebra import slack, spectral_norms, within_slack


def exact_gate(residuals, tol, scales):
    """max |R|_2 <= slack(tol, max |T|_2) from measured spectral norms; a
    NaN norm is the largest, wherever its matrix sits."""

    def norm(side):
        if isinstance(side, float):
            return side
        return float(np.max(spectral_norms(side), initial=0.0))

    return norm(residuals) <= slack(tol, norm(scales))


@pytest.fixture()
def svd_calls(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def _mat(seed, m, n, magnitude=1.0):
    rng = np.random.default_rng(seed)
    return magnitude * (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))


def _rank_one(seed, m, n):
    rng = np.random.default_rng(seed)
    return np.outer(rng.standard_normal(m), rng.standard_normal(n)).astype(complex)


# (label, residuals, tol, scales, verdict); each one settled by its bounds
SETTLED = [
    ("zero residual", [np.zeros((3, 3), complex)], 1e-8, [_mat(1, 3, 3)], True),
    ("zero residual, zero scale", [np.zeros((2, 2), complex)], 1e-8, 0.0, True),
    ("zero scale", [_mat(2, 2, 2)], 1e-8, [np.zeros((2, 2), complex)], False),
    ("empty blocks", [np.zeros((0, 3), complex)], 1e-12, [np.zeros((3, 0), complex)], True),
    ("tiny leak", [_mat(3, 4, 4, 1e-17)], 1e-12, [_mat(4, 4, 4)], True),
    ("large leak", [_mat(5, 4, 4, 1e-3)], 1e-12, [_mat(6, 4, 4)], False),
    ("non-square", [_mat(7, 3, 5, 1e-12)], 1e-8, [_mat(8, 5, 3)], True),
    ("rank one", [_rank_one(9, 4, 6)], 1e-8, [_rank_one(10, 6, 4)], False),
    ("at 1e150", [_mat(11, 2, 2, 1e140)], 1e-8, [_mat(12, 2, 2, 1e150)], True),
    ("at 1e150, failing", [_mat(13, 2, 2, 1e150)], 1e-8, [_mat(14, 2, 2, 1e150)], False),
    ("measured floats", 1e-9, 1e-8, 2.0, True),
    ("measured residual", 0.5, 1e-8, [_mat(15, 3, 3)], False),
    ("measured scale", [_mat(16, 3, 3, 1e-12)], 1e-8, 4.0, True),
    (
        "several blocks",
        [_mat(17, 2, 2, 1e-14), _mat(18, 1, 1, 1e-13), _mat(19, 3, 3, 1e-15)],
        1e-10,
        [_mat(20, 2, 2), _mat(21, 1, 1), _mat(22, 3, 3)],
        True,
    ),
]


@pytest.mark.parametrize("label, residuals, tol, scales, verdict", SETTLED)
def test_settled_gates_match_the_exact_gate_without_an_svd(
    label, residuals, tol, scales, verdict, svd_calls
):
    assert within_slack(residuals, tol, scales) is verdict, label
    assert svd_calls == [], label
    assert exact_gate(residuals, tol, scales) is verdict, label


def _step(tol, s, r, toward):
    """The nearest tol from `tol` toward 0 or inf whose slack at scale s
    is strictly under or over r: an ulp of the slack away, or a few."""
    while slack(tol, s) >= r if toward == 0.0 else slack(tol, s) <= r:
        tol = float(np.nextafter(tol, toward))
    return tol


@pytest.mark.parametrize(
    "residual, scale",
    [
        (_mat(30, 3, 3), _mat(31, 3, 3)),
        (_rank_one(32, 2, 4), _mat(33, 4, 2)),
        (_mat(34, 2, 2, 1e-150), _mat(35, 2, 2, 1e-150)),
        (_mat(36, 2, 2, 1e150), _mat(37, 2, 2, 1e150)),
    ],
)
def test_a_residual_one_ulp_from_the_slack_gets_the_exact_verdict(
    residual, scale, svd_calls
):
    r, s = spectral_norms([residual, scale])
    tol = r / (1.0 + s)
    below, above = _step(tol, s, r, 0.0), _step(tol, s, r, np.inf)
    assert slack(below, s) < r < slack(above, s)
    assert within_slack([residual], below, [scale]) is False
    assert within_slack([residual], above, [scale]) is True
    assert svd_calls, "bounds this tight must be measured"
    for t in (below, tol, above):
        assert within_slack([residual], t, [scale]) is exact_gate([residual], t, [scale])
        assert within_slack([residual], t, s) is exact_gate([residual], t, s)
    # a measured residual one ulp either side of the slack
    gate = slack(tol, s)
    for res, verdict in (
        (float(np.nextafter(gate, 0.0)), True),
        (gate, True),
        (float(np.nextafter(gate, np.inf)), False),
    ):
        assert within_slack(res, tol, [scale]) is verdict
        assert exact_gate(res, tol, [scale]) is verdict


def test_underflowing_blocks_are_measured_not_bounded():
    # entries of 1e-300 square to zero, so their Frobenius norm says nothing
    tiny = _mat(40, 3, 3, 1e-300)
    r = spectral_norms([tiny])[0]
    assert r > 0.0
    for tol in (0.5 * r, r, 2.0 * r):
        assert within_slack([tiny], tol, 0.0) is exact_gate([tiny], tol, 0.0)
        assert within_slack([tiny], tol, [tiny]) is exact_gate([tiny], tol, [tiny])
    assert within_slack([tiny], 0.5 * r, 0.0) is False


def test_overflowing_blocks_are_measured_not_bounded():
    # finite entries whose squares overflow: the SVD still measures them
    huge = _mat(41, 2, 2, 1e160)
    r = spectral_norms([huge])[0]
    for tol in (0.5 * r, 2.0 * r):
        assert within_slack([huge], tol, 0.0) is exact_gate([huge], tol, 0.0)


@pytest.mark.parametrize("side", ["residuals", "scales"])
def test_an_infinite_block_takes_the_exact_path(side):
    # its SVD gives NaN, which fails the gate on either side
    inf = np.array([[np.inf, 0.0], [0.0, 1.0]], dtype=complex)
    tame = [_mat(42, 2, 2, 1e-20)]
    args = ([inf], 1e-8, tame) if side == "residuals" else (tame, 1e-8, [inf])
    with np.errstate(invalid="ignore"):
        assert within_slack(*args) is exact_gate(*args) is False


def test_an_infinite_block_fails_the_gate_in_either_position():
    # an infinite block's NaN norm decides the gate, first or not
    inf = np.array([[np.inf]], dtype=complex)
    tame = np.zeros((1, 1), dtype=complex)
    with np.errstate(invalid="ignore"):
        for blocks in ([tame, inf], [inf, tame]):
            assert within_slack(blocks, 1e-8, 0.0) is False
            assert within_slack([tame], 1e-8, blocks) is False
            assert exact_gate(blocks, 1e-8, 0.0) is False


@pytest.mark.parametrize("side", ["residuals", "scales"])
def test_a_nan_block_raises_as_the_exact_path_does(side):
    nan = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)
    tame = [_mat(43, 2, 2, 1e-20)]
    args = ([nan], 1e-8, tame) if side == "residuals" else (tame, 1e-8, [nan])
    for gate in (within_slack, exact_gate):
        with pytest.raises(np.linalg.LinAlgError):
            gate(*args)


def test_a_nan_measured_residual_fails():
    assert within_slack(float("nan"), 1e-8, [_mat(44, 2, 2)]) is False
    assert exact_gate(float("nan"), 1e-8, [_mat(44, 2, 2)]) is False


def test_random_gates_near_the_slack_match_the_exact_gate(svd_calls):
    rng = np.random.default_rng(2024)
    settled = 0
    for _ in range(600):
        sides = []
        for _side in range(2):
            blocks = []
            for _block in range(int(rng.integers(1, 4))):
                m, n = (int(d) for d in rng.integers(1, 6, size=2))
                mat = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
                if rng.random() < 0.3:  # rank one
                    mat = np.outer(mat[:, 0], mat[0, :])
                blocks.append(mat * 10.0 ** rng.uniform(-6, 6))
            sides.append(blocks)
        residuals, scales = sides
        tol = float(10.0 ** rng.uniform(-12, -2))
        # put the residual's norm within a factor of 3 of the slack
        r = max(spectral_norms(residuals))
        s = max(spectral_norms(scales))
        target = slack(tol, s) * 3.0 ** rng.uniform(-1, 1)
        residuals = [b * (target / r) for b in residuals]
        if rng.random() < 0.2:
            scales = s
        verdict = exact_gate(residuals, tol, scales)
        before = len(svd_calls)
        assert within_slack(residuals, tol, scales) is verdict
        settled += len(svd_calls) == before
    # most gates settle on their bounds, even this close to the slack
    assert settled > 300
