"""Self-contained dense linear algebra kernel.

Hand-rolled Householder thin QR, Cholesky, and a one-sided Jacobi SVD that
serves as the independent oracle for every spectral computation in the
package (the iterative path lives in :mod:`modalkit.ace` and is always
cross-checked against this one).  Matrices are plain 2-D float64 numpy
arrays; this module never calls ``numpy.linalg``.

Intended regime: dense matrices up to a few hundred rows.  No sparsity, no
complex scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError, check_k

JACOBI_TOL = 1e-14
JACOBI_MAX_SWEEPS = 60
QR_RANK_TOL = 1e-13
CHOL_PIVOT_TOL = 1e-13


def as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise DataError("SHAPE_MISMATCH", f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise DataError("SHAPE_MISMATCH", "matrix entries must be finite")
    return m


# ---------------------------------------------------------------------------
# factorizations


def thin_qr(a) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR via Householder reflections; R has a nonnegative diagonal.

    Raises RANK_DEFICIENT when a working column's norm falls below 1e-13;
    the caller decides the fallback.
    """
    a = as_matrix(a)
    m, k = a.shape
    if m < k:
        raise DataError("SHAPE_MISMATCH", f"thin QR needs rows >= cols, got {a.shape}")
    r = a.copy()
    reflectors: list[np.ndarray] = []
    for j in range(k):
        col = r[j:, j]
        norm = math.sqrt(float(col @ col))
        if norm < QR_RANK_TOL:
            raise NumericalError("RANK_DEFICIENT", f"column {j} is numerically zero in QR")
        v = col.copy()
        v[0] += norm if v[0] >= 0 else -norm
        v /= math.sqrt(float(v @ v))
        r[j:, j:] -= 2.0 * np.outer(v, v @ r[j:, j:])
        reflectors.append(v)
    q = np.zeros((m, k))
    q[:k, :k] = np.eye(k)
    for j in range(k - 1, -1, -1):
        v = reflectors[j]
        q[j:, :] -= 2.0 * np.outer(v, v @ q[j:, :])
    signs = np.where(np.diag(r[:k, :k]) < 0, -1.0, 1.0)
    return q * signs, np.triu(r[:k, :k] * signs[:, None])


def cholesky(s) -> np.ndarray:
    """Lower-triangular L with S = L L^T for symmetric positive definite S."""
    s = as_matrix(s)
    n, m = s.shape
    if n != m:
        raise DataError("SHAPE_MISMATCH", f"Cholesky needs a square matrix, got {s.shape}")
    if np.max(np.abs(s - s.T)) > 1e-10:
        raise DataError("SHAPE_MISMATCH", "matrix is not symmetric within 1e-10")
    s = 0.5 * (s + s.T)
    low = np.zeros_like(s)
    for i in range(n):
        for j in range(i + 1):
            acc = s[i, j] - low[i, :j] @ low[j, :j]
            if i == j:
                if acc <= CHOL_PIVOT_TOL:
                    raise NumericalError(
                        "NOT_POSITIVE_DEFINITE", f"pivot {acc!r} at index {i} is not positive"
                    )
                low[i, i] = math.sqrt(acc)
            else:
                low[i, j] = acc / low[j, j]
    return low


def solve_lower(low, b) -> np.ndarray:
    """Solve L z = b by forward substitution (L lower triangular)."""
    low = as_matrix(low)
    b = np.asarray(b, dtype=float)
    vec = b.ndim == 1
    z = (b[:, None] if vec else b).copy()
    n = low.shape[0]
    if low.shape[1] != n or z.shape[0] != n:
        raise DataError("SHAPE_MISMATCH", "incompatible shapes in triangular solve")
    for i in range(n):
        z[i] = (z[i] - low[i, :i] @ z[:i]) / low[i, i]
    return z[:, 0] if vec else z


def solve_upper(up, b) -> np.ndarray:
    """Solve U z = b by back substitution (U upper triangular)."""
    up = as_matrix(up)
    b = np.asarray(b, dtype=float)
    vec = b.ndim == 1
    z = (b[:, None] if vec else b).copy()
    n = up.shape[0]
    if up.shape[1] != n or z.shape[0] != n:
        raise DataError("SHAPE_MISMATCH", "incompatible shapes in triangular solve")
    for i in range(n - 1, -1, -1):
        z[i] = (z[i] - up[i, i + 1 :] @ z[i + 1 :]) / up[i, i]
    return z[:, 0] if vec else z


def chol_solve(s, b) -> np.ndarray:
    """Solve S z = b for symmetric positive definite S via its Cholesky factor."""
    return solve_factored(cholesky(s), b)


def solve_factored(low, b) -> np.ndarray:
    """Solve L L^T z = b given the lower Cholesky factor L of S = L L^T."""
    return solve_upper(low.T, solve_lower(low, b))


# ---------------------------------------------------------------------------
# SVD oracle (one-sided Jacobi)


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD A = U diag(sigmas) V^T with descending singular values."""

    u: np.ndarray
    sigmas: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.sigmas, dtype=float)
        if np.any(s < 0) or np.any(np.diff(s) > 1e-12):
            raise NumericalError("BAD_SVD", "singular values must be nonnegative and descending")

    def truncate(self, k: int) -> "SvdResult":
        return SvdResult(self.u[:, :k], self.sigmas[:k], self.v[:, :k])

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.sigmas) @ self.v.T


from functools import lru_cache


@lru_cache(maxsize=64)
def _jacobi_rounds(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Tournament pairing: n-ish rounds of disjoint (p, q) index pairs that
    together cover every unordered pair exactly once."""
    players = list(range(n))
    if n % 2:
        players.append(-1)  # bye
    m = len(players)
    rounds = []
    for _ in range(m - 1):
        ps, qs = [], []
        for i in range(m // 2):
            a, b = players[i], players[m - 1 - i]
            if a >= 0 and b >= 0:
                ps.append(min(a, b))
                qs.append(max(a, b))
        if ps:
            rounds.append((np.array(ps), np.array(qs)))
        players = [players[0], players[-1]] + players[1:-1]
    return tuple(rounds)


def _complete_orthonormal(cols: np.ndarray, start: int) -> None:
    """Fill columns [start:] with orthonormal vectors.

    Greedy Gram-Schmidt: at each step take the canonical basis vector with
    the largest residual against the columns built so far (that residual is
    at least (m - j)/m, so the construction cannot stall).
    """
    m = cols.shape[0]
    for j in range(start, cols.shape[1]):
        resid2 = 1.0 - np.einsum("ij,ij->i", cols[:, :j], cols[:, :j])
        i = int(np.argmax(resid2))
        cand = np.zeros(m)
        cand[i] = 1.0
        cand -= cols[:, :j] @ (cols[:, :j].T @ cand)
        cand -= cols[:, :j] @ (cols[:, :j].T @ cand)
        norm = math.sqrt(float(cand @ cand))
        if norm <= 1e-8:
            raise NumericalError("BAD_SVD", "failed to complete an orthonormal basis")
        cols[:, j] = cand / norm


def lead_signs(cols: np.ndarray) -> np.ndarray:
    """The package's sign rule: per column, the +1/-1 factor that makes the
    first component of largest magnitude positive."""
    if cols.shape[0] == 0:  # the empty matrix's SVD has no components to sign
        return np.ones(cols.shape[1])
    lead = np.argmax(np.abs(cols), axis=0)
    return np.where(cols[lead, np.arange(cols.shape[1])] < 0, -1.0, 1.0)


def svd_oracle(a, tol: float = JACOBI_TOL, max_sweeps: int = JACOBI_MAX_SWEEPS) -> SvdResult:
    """Full thin SVD by one-sided Jacobi rotations.

    Sweeps rotate column pairs of the (tall) working matrix until every pair
    is orthogonal to relative tolerance ``tol``.  Simple, self-contained, and
    accurate at the matrix sizes this package handles; every spectral claim
    elsewhere is tested against this routine.

    Sign convention: in each right singular vector the first component of
    largest magnitude is made positive.  Singular values below the round-off
    floor of the largest one are reported as exact zeros (their columns carry
    no reliable direction); the matching basis vectors are completed
    orthonormally.
    """
    a = as_matrix(a)
    transposed = a.shape[0] < a.shape[1]
    # Fortran order keeps the rotated columns contiguous; always copy so the
    # caller's array is never aliased by the in-place rotations.
    work = np.array(a.T if transposed else a, order="F", copy=True)
    m, n = work.shape

    # Columns whose norm collapses to round-off relative to the largest are
    # numerically zero: their residual correlations are pure noise and can
    # never pass a relative tolerance, so retire them from the sweeps.
    scale2 = float(np.max(np.einsum("ij,ij->j", work, work))) if work.size else 0.0
    floor2 = scale2 * (max(m, n) * 2.3e-16) ** 2

    v = np.eye(n)
    for _ in range(max_sweeps):
        rotated = False
        # Round-robin schedule: each round holds disjoint pairs, so all its
        # rotations commute and are applied in one vectorized step.
        for ps, qs in _jacobi_rounds(n):
            wp = work[:, ps]
            wq = work[:, qs]
            alpha = np.einsum("ij,ij->j", wp, wp)
            beta = np.einsum("ij,ij->j", wq, wq)
            gamma = np.einsum("ij,ij->j", wp, wq)
            mask = (
                (alpha > floor2)
                & (beta > floor2)
                & (np.abs(gamma) > tol * np.sqrt(alpha) * np.sqrt(beta))
            )
            if not mask.any():
                continue
            rotated = True
            zeta = (beta[mask] - alpha[mask]) / (2.0 * gamma[mask])
            sign = np.where(zeta >= 0, 1.0, -1.0)
            abs_zeta = np.abs(zeta)
            big = abs_zeta > 1e150  # avoid overflow in zeta**2; t ~ 1/(2 zeta)
            safe = np.where(big, 0.0, zeta)
            t = np.where(
                big,
                sign / (2.0 * np.maximum(abs_zeta, 1.0)),
                sign / (abs_zeta + np.sqrt(1.0 + safe * safe)),
            )
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = c * t
            psm, qsm = ps[mask], qs[mask]
            wp, wq = work[:, psm], work[:, qsm]
            work[:, psm] = c * wp - s * wq
            work[:, qsm] = s * wp + c * wq
            vp, vq = v[:, psm], v[:, qsm]
            v[:, psm] = c * vp - s * vq
            v[:, qsm] = s * vp + c * vq
        if not rotated:
            break
    else:
        raise NumericalError("NO_CONVERGENCE", f"Jacobi SVD did not settle in {max_sweeps} sweeps")

    sig = np.sqrt(np.einsum("ij,ij->j", work, work))
    order = np.argsort(-sig, kind="stable")
    sig = sig[order]
    v = v[:, order]
    work = work[:, order]

    u = np.zeros((m, n))
    cutoff = math.sqrt(floor2)
    rank = 0
    for j in range(n):
        if sig[j] > cutoff:
            u[:, j] = work[:, j] / sig[j]
            rank += 1
        else:
            sig[j] = 0.0
    if rank < n:
        _complete_orthonormal(u, rank)

    signs = lead_signs(v)
    v *= signs
    u *= signs

    if transposed:
        u, v = v, u
    return SvdResult(u, sig, v)


def ky_fan(a, k: int) -> float:
    """Sum of the k largest singular values."""
    a = as_matrix(a)
    check_k(k, 1, min(a.shape))
    return float(svd_oracle(a).sigmas[:k].sum())
