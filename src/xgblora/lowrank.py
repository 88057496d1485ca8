"""Hand-rolled dense numerics: truncated SVD, small linear solves,
non-negative least squares, and extremal eigenvalues by power iteration.

The SVD is the measurement oracle for rank/truncation claims elsewhere, so
it is built here from first principles instead of delegating to a library
decomposition: one-sided Jacobi (machine precision, all singular values),
rotating the columns of the smaller side. Tolerance 1e-10, at most 1000
sweeps. The cost grows roughly with the cube of the smaller side (8.8 s for
a random 256x256), so a matrix is accepted only if its longer side is at most
MAX_SIDE and its smaller side at most MAX_SHORT_SIDE; anything larger is
refused with a ValueError before any work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from xgblora.tensor import Rng

JACOBI_TOL = 1e-10
JACOBI_MAX_SWEEPS = 1000
POWER_TOL = 1e-10
POWER_MAX_ITERS = 1000
MAX_SIDE = 2048
MAX_SHORT_SIDE = 256


@dataclass
class TruncatedSvd:
    u: np.ndarray  # (m, r)
    s: np.ndarray  # (r,) non-increasing
    v: np.ndarray  # (n, r)
    approx: np.ndarray  # u @ diag(s) @ v.T
    tail_sq: float  # sum of squared singular values beyond r


def _jacobi_svd(mx: np.ndarray):
    """One-sided Jacobi: orthogonalize column pairs of A until all inner
    products vanish; column norms become singular values."""
    a = mx.astype(np.float64).copy()
    m, n = a.shape
    v = np.eye(n)
    for _ in range(JACOBI_MAX_SWEEPS):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                ap = a[:, p]
                aq = a[:, q]
                alpha = float(ap @ ap)
                beta = float(aq @ aq)
                gamma = float(ap @ aq)
                if abs(gamma) <= JACOBI_TOL * np.sqrt(alpha * beta) or gamma == 0.0:
                    continue
                off = max(off, abs(gamma) / max(np.sqrt(alpha * beta), 1e-300))
                zeta = (beta - alpha) / (2.0 * gamma)
                t = np.sign(zeta) / (abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                if zeta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                rot_p = c * ap - s * aq
                rot_q = s * ap + c * aq
                a[:, p] = rot_p
                a[:, q] = rot_q
                vp = v[:, p].copy()
                v[:, p] = c * vp - s * v[:, q]
                v[:, q] = s * vp + c * v[:, q]
        if off <= JACOBI_TOL:
            break
    sigma = np.sqrt((a * a).sum(axis=0))
    order = np.argsort(-sigma, kind="stable")
    sigma = sigma[order]
    a = a[:, order]
    v = v[:, order]
    u = np.zeros((m, n))
    nz = sigma > 0
    u[:, nz] = a[:, nz] / sigma[nz]
    return u, sigma, v


def _jacobi_input(mx: np.ndarray) -> np.ndarray:
    """The matrix oriented tall for `_jacobi_svd`, after the size limits."""
    if max(mx.shape) > MAX_SIDE:
        raise ValueError(f"matrix side exceeds {MAX_SIDE}: {mx.shape}")
    if min(mx.shape) > MAX_SHORT_SIDE:
        raise ValueError(
            f"smaller matrix side exceeds {MAX_SHORT_SIDE}: {mx.shape}"
            " (Jacobi SVD cost grows with its cube)"
        )
    return mx if mx.shape[0] >= mx.shape[1] else mx.T


def svd_topr(mx, r: int) -> TruncatedSvd:
    """Best rank-r factorization of a matrix: U (m,r), non-increasing
    singular values, V (n,r), and the reconstruction U diag(s) Vᵀ.

    tail_sq is the sum of the squared trailing singular values, i.e. the
    squared Frobenius error of the truncation.
    """
    mx = np.asarray(mx, dtype=np.float64)
    if mx.ndim != 2:
        raise ValueError(f"svd_topr needs a matrix, got shape {mx.shape}")
    m, n = mx.shape
    if not 1 <= r <= min(m, n):
        raise ValueError(f"rank {r} out of range for shape {mx.shape}")
    u, s, v = _jacobi_svd(_jacobi_input(mx))
    if m < n:
        u, v = v, u
    full_sq = float((s * s).sum())
    head_sq = float((s[:r] * s[:r]).sum())
    u, s, v = u[:, :r], s[:r], v[:, :r]
    tail_sq = max(full_sq - head_sq, 0.0)
    approx = (u * s) @ v.T
    return TruncatedSvd(u=u, s=s, v=v, approx=approx, tail_sq=tail_sq)


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gaussian elimination with partial pivoting for small dense systems."""
    a = np.asarray(a, dtype=np.float64).copy()
    b = np.asarray(b, dtype=np.float64).copy()
    n = a.shape[0]
    if a.shape != (n, n) or b.shape[0] != n:
        raise ValueError(f"solve shapes disagree: {a.shape} vs {b.shape}")
    vec = b.ndim == 1
    if vec:
        b = b[:, None]
    for col in range(n):
        piv = col + int(np.argmax(np.abs(a[col:, col])))
        if abs(a[piv, col]) < 1e-300:
            raise ValueError("singular matrix in solve")
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            b[[col, piv]] = b[[piv, col]]
        factor = a[col + 1 :, col : col + 1] / a[col, col]
        a[col + 1 :, col:] -= factor * a[col, col:]
        b[col + 1 :] -= factor * b[col]
    x = np.zeros_like(b)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x[:, 0] if vec else x


def lstsq(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares coefficients via the normal equations (small, well-
    conditioned feature matrices only)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xtx = x.T @ x
    # tiny ridge keeps collinear feature sets solvable without changing
    # well-posed fits at reporting precision
    xtx = xtx + 1e-12 * np.eye(xtx.shape[0]) * max(np.trace(xtx), 1.0)
    return solve(xtx, x.T @ y)


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


def symmetric_extremal_eigs(c: np.ndarray) -> tuple[float, float]:
    """(largest, smallest) eigenvalues of a symmetric PSD matrix by power
    iteration, the smallest via the shifted complement."""
    c = np.asarray(c, dtype=np.float64)
    n = c.shape[0]
    rng = Rng(0xBEEF ^ n)

    def top(mat):
        x = rng.gaussian((n,))
        x /= np.sqrt((x * x).sum())
        lam = 0.0
        for _ in range(POWER_MAX_ITERS):
            y = mat @ x
            norm = float(np.sqrt((y * y).sum()))
            if norm == 0.0:
                return 0.0
            x = y / norm
            new_lam = float(x @ (mat @ x))
            if abs(new_lam - lam) <= POWER_TOL * max(abs(new_lam), 1.0):
                return new_lam
            lam = new_lam
        return lam

    lam_max = top(c)
    lam_min = lam_max - top(lam_max * np.eye(n) - c)
    return lam_max, max(lam_min, 0.0)
