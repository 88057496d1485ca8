"""Small dense numerics on top of numpy.linalg: the truncated SVD that
measures rank-r truncation floors (Eckart-Young), ridge-stabilised least
squares, and exact non-negative least squares for a handful of features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class TruncatedSvd:
    u: np.ndarray  # (m, r)
    s: np.ndarray  # (r,) non-increasing
    v: np.ndarray  # (n, r)
    approx: np.ndarray  # u @ diag(s) @ v.T
    tail_sq: float  # sum of squared singular values beyond r


def svd_topr(mx, r: int) -> TruncatedSvd:
    """Best rank-r factorization of a matrix: U (m,r), non-increasing
    singular values, V (n,r), and the reconstruction U diag(s) Vᵀ.

    tail_sq is the sum of the squared trailing singular values, i.e. the
    squared Frobenius error of the truncation.
    """
    mx = np.asarray(mx, dtype=np.float64)
    if mx.ndim != 2:
        raise ValueError(f"svd_topr needs a matrix, got shape {mx.shape}")
    if not 1 <= r <= min(mx.shape):
        raise ValueError(f"rank {r} out of range for shape {mx.shape}")
    u, s, vt = np.linalg.svd(mx, full_matrices=False)
    tail_sq = float((s[r:] * s[r:]).sum())
    u, s, v = u[:, :r], s[:r], vt[:r].T
    approx = (u * s) @ v.T
    return TruncatedSvd(u=u, s=s, v=v, approx=approx, tail_sq=tail_sq)


def lstsq(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares coefficients via the normal equations (small, well-
    conditioned feature matrices only)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xtx = x.T @ x
    # tiny ridge keeps collinear feature sets solvable without changing
    # well-posed fits at reporting precision
    xtx = xtx + 1e-12 * np.eye(xtx.shape[0]) * max(np.trace(xtx), 1.0)
    return np.linalg.solve(xtx, x.T @ y)


def nnls(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact non-negative least squares for a handful of features, by
    enumerating active sets (2^k candidate supports)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    k = x.shape[1]
    if k > 12:
        raise ValueError(f"nnls support enumeration is for small k, got {k}")
    best = np.zeros(k)
    best_ssr = float((y * y).sum())
    for mask in range(1, 1 << k):
        cols = [i for i in range(k) if mask >> i & 1]
        coef = lstsq(x[:, cols], y)
        if np.any(coef < 0):
            continue
        resid = y - x[:, cols] @ coef
        ssr = float((resid * resid).sum())
        if ssr < best_ssr - 1e-15 * max(best_ssr, 1.0):
            best_ssr = ssr
            best = np.zeros(k)
            best[cols] = coef
    return best


def r_squared(y: np.ndarray, fitted: np.ndarray) -> float:
    y = np.asarray(y, dtype=np.float64)
    fitted = np.asarray(fitted, dtype=np.float64)
    ssr = float(((y - fitted) ** 2).sum())
    sst = float(((y - y.mean()) ** 2).sum())
    if sst == 0.0:
        return 1.0 if ssr == 0.0 else 0.0
    return 1.0 - ssr / sst

