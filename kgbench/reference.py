"""Reference checks written apart from kgframes, with numpy only.

Every quantity is recomputed from plain realization arrays: per block k a
frame member F_i is a complex matrix F_ik, the frame operator block is
S_k = sum_i F_ik F_ik^H, and the weighted square of the reference
operator K is M_k = K_k^H K_k.  Nothing here imports kgframes.
"""

from __future__ import annotations

import numpy as np

# eigenvalues below this share of the block's largest one count as zero
RANK_CUT = 1e-10
# slack of the positivity test, relative to the operands' norms
PSD_SLACK = 1e-12


def _herm(mat: np.ndarray) -> np.ndarray:
    return (mat + mat.conj().T) / 2.0


def frame_operator(members: list[list[np.ndarray]]) -> list[np.ndarray]:
    """S_k = sum_i F_ik F_ik^H from members[i][k]."""
    blocks = len(members[0])
    return [_herm(sum(m[k] @ m[k].conj().T for m in members)) for k in range(blocks)]


def weighted_square(k_blocks: list[np.ndarray]) -> list[np.ndarray]:
    return [_herm(b.conj().T @ b) for b in k_blocks]


def frame_bounds(s_blocks: list[np.ndarray]) -> tuple[float, float]:
    eigs = [np.linalg.eigvalsh(s) for s in s_blocks]
    lower = max(min(float(e[0]) for e in eigs), 0.0)
    upper = max(float(e[-1]) for e in eigs)
    return lower, upper


def spectral_norm(blocks: list[np.ndarray]) -> float:
    return max(float(np.linalg.svd(b, compute_uv=False)[0]) for b in blocks)


def is_psd(blocks: list[np.ndarray], scale: float) -> bool:
    """Every block's smallest eigenvalue is above -PSD_SLACK * scale."""
    return all(
        float(np.linalg.eigvalsh(_herm(b))[0]) >= -PSD_SLACK * scale for b in blocks
    )


def lower_constant(s_blocks, m_blocks) -> tuple[float, bool]:
    """Largest c with c M <= S, and whether range(M) lies in range(S).

    Computed per block on the range of S through its eigen-decomposition:
    c = 1 / max eig(L^-1/2 V^H M V L^-1/2).  Returns (0, False) when M
    leaks out of the range of S and (inf, True) when M vanishes.
    """
    worst = 0.0
    included = True
    for s, m in zip(s_blocks, m_blocks):
        lam, vecs = np.linalg.eigh(s)
        keep = lam > RANK_CUT * max(float(lam[-1]), 1e-300)
        vr = vecs[:, keep]
        m_norm = float(np.linalg.svd(m, compute_uv=False)[0]) if m.size else 0.0
        leak = m - vr @ (vr.conj().T @ m @ vr) @ vr.conj().T
        if m_norm > 0 and float(np.linalg.svd(leak, compute_uv=False)[0]) > 1e-9 * m_norm:
            included = False
            continue
        if not keep.any():
            continue
        inv_sqrt = 1.0 / np.sqrt(lam[keep])
        g = (inv_sqrt[:, None] * (vr.conj().T @ m @ vr)) * inv_sqrt[None, :]
        worst = max(worst, float(np.linalg.eigvalsh(_herm(g))[-1]))
    if not included:
        return 0.0, False
    return (np.inf if worst <= 0.0 else 1.0 / worst), True


def lower_bracket_errors(s_blocks, m_blocks, c: float) -> list[str]:
    """S - c(1-1e-9) M must be PSD and S - 2c M must not be."""
    scale = spectral_norm(s_blocks) + c * spectral_norm(m_blocks)
    errors = []
    below = [s - c * (1.0 - 1e-9) * m for s, m in zip(s_blocks, m_blocks)]
    if not is_psd(below, scale):
        errors.append(f"S - c(1-1e-9)K*K is not PSD at c={c!r}")
    above = [s - 2.0 * c * m for s, m in zip(s_blocks, m_blocks)]
    if is_psd(above, scale):
        errors.append(f"S - 2cK*K is PSD at c={c!r}, so c is not optimal")
    return errors


def sqrt_psd(s_blocks) -> list[np.ndarray]:
    """Hermitian square root; eigenvalues under the rank cut become 0."""
    out = []
    for s in s_blocks:
        lam, vecs = np.linalg.eigh(_herm(s))
        lam = np.where(lam > RANK_CUT * max(float(lam[-1]), 1e-300), lam, 0.0)
        out.append(_herm((vecs * np.sqrt(lam)) @ vecs.conj().T))
    return out


def dual_residual(frame_members, dual_members, k_blocks) -> float:
    """max_k || sum_i X_ik F_ik^H - K_k ||_2 from plain arrays."""
    worst = 0.0
    for k, k_blk in enumerate(k_blocks):
        acc = sum(x[k] @ f[k].conj().T for f, x in zip(frame_members, dual_members))
        worst = max(worst, float(np.linalg.svd(acc - k_blk, compute_uv=False)[0]))
    return worst


def dual_errors(frame_members, dual_members, k_blocks, recorded: float, tol_eq=1e-8) -> list[str]:
    """The recomputed residual must be small and match the recorded one."""
    if len(dual_members) != len(frame_members):
        return [f"{len(dual_members)} dual members for {len(frame_members)} frame members"]
    residual = dual_residual(frame_members, dual_members, k_blocks)
    k_norm = spectral_norm(k_blocks)
    errors = []
    if residual > tol_eq * (1.0 + k_norm):
        errors.append(f"dual residual {residual:.3e} recomputed from the members")
    if abs(residual - recorded) > 1e-10 * (1.0 + k_norm):
        errors.append(f"recorded residual {recorded!r} but recomputed {residual!r}")
    return errors


def witness_ceiling(x_stack: np.ndarray, s_block, k_block) -> float:
    """rhs/lhs of the lower inequality at a witness row stack on one block.

    lhs = ||(x K^H)(x K^H)^H||, rhs = ||x S x^H||; a ceiling near zero
    proves no positive lower constant exists.
    """
    image = x_stack @ k_block.conj().T
    lhs = float(np.linalg.svd(image @ image.conj().T, compute_uv=False)[0])
    rhs = float(np.linalg.svd(x_stack @ s_block @ x_stack.conj().T, compute_uv=False)[0])
    return np.inf if lhs <= 0 else rhs / lhs


def realization(coeffs, sizes, rows: int, cols: int) -> list[np.ndarray]:
    """Realization blocks from a document's coefficient grid.

    coeffs[i][j][k] is block k of coefficient (i, j): an n x n grid of
    [real, imag] pairs.  Block k of the realization is (n rows, n cols)
    tiled.
    """
    out = []
    for k, n in enumerate(sizes):
        blk = np.zeros((n * rows, n * cols), dtype=complex)
        for i in range(rows):
            for j in range(cols):
                pairs = np.asarray(coeffs[i][j][k], dtype=float)
                blk[i * n : (i + 1) * n, j * n : (j + 1) * n] = pairs[..., 0] + 1j * pairs[..., 1]
        out.append(blk)
    return out


def close(value: float, want: float, rel: float) -> bool:
    return abs(value - want) <= rel * max(abs(want), 1e-300)
