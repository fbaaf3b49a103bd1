"""Dense linear algebra behind every spectral computation in the package.

Thin wrappers over ``numpy.linalg`` (LAPACK) that fix the package's
conventions and error contract: a nonnegative R diagonal in QR, a pivot floor
in Cholesky, and for the SVD descending singular values, an exact-zero floor
and one sign rule.  ``svd_stack`` decomposes a whole stack of matrices in one
call, with the same LAPACK routine but without the floor and the sign rule,
for the Monte Carlo statistics.  The one-sided Jacobi SVD these replace lives on under
``tests/`` as the independent reference the SVD is checked against; the
iterative path in :mod:`modalkit.ace` is cross-checked against this one.

Intended regime: dense matrices up to a few hundred rows.  No sparsity, no
complex scalars.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError, check_k

QR_RANK_TOL = 1e-13
CHOL_PIVOT_TOL = 1e-13
SVD_FLOOR_EPS = 2.3e-16  # zero floor: sigma_max * max(m, n) * this


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
    """Thin QR with a nonnegative R diagonal.

    Raises RANK_DEFICIENT at the first column whose |r_jj| falls below
    1e-13; the caller decides the fallback.
    """
    a = as_matrix(a)
    m, k = a.shape
    if m < k:
        raise DataError("SHAPE_MISMATCH", f"thin QR needs rows >= cols, got {a.shape}")
    q, r = np.linalg.qr(a, mode="reduced")
    diag = np.diag(r)
    bad = np.flatnonzero(np.abs(diag) < QR_RANK_TOL)
    if bad.size:
        raise NumericalError("RANK_DEFICIENT", f"column {bad[0]} is numerically zero in QR")
    signs = np.where(diag < 0, -1.0, 1.0)
    return q * signs, r * signs[:, None]


def cholesky(s) -> np.ndarray:
    """Lower-triangular L with S = L L^T for symmetric positive definite S.

    A pivot L_ii^2 at or below 1e-13 counts as a failure, as does one
    LAPACK rejects: both raise NOT_POSITIVE_DEFINITE.
    """
    s = as_matrix(s)
    n, m = s.shape
    if n != m:
        raise DataError("SHAPE_MISMATCH", f"Cholesky needs a square matrix, got {s.shape}")
    if np.max(np.abs(s - s.T), initial=0.0) > 1e-10:
        raise DataError("SHAPE_MISMATCH", "matrix is not symmetric within 1e-10")
    try:
        low = np.linalg.cholesky(0.5 * (s + s.T))
    except np.linalg.LinAlgError:
        raise NumericalError("NOT_POSITIVE_DEFINITE", "matrix is not positive definite") from None
    pivots = np.diag(low) ** 2
    bad = np.flatnonzero(pivots <= CHOL_PIVOT_TOL)
    if bad.size:
        i = bad[0]
        raise NumericalError(
            "NOT_POSITIVE_DEFINITE", f"pivot {float(pivots[i])!r} at index {i} is not positive"
        )
    return low


def _solve_triangular(t, b) -> np.ndarray:
    t = as_matrix(t)
    b = np.asarray(b, dtype=float)
    n = t.shape[0]
    if t.shape[1] != n or b.shape[:1] != (n,):
        raise DataError("SHAPE_MISMATCH", "incompatible shapes in triangular solve")
    return np.linalg.solve(t, b)


def solve_lower(low, b) -> np.ndarray:
    """Solve L z = b (L lower triangular)."""
    return _solve_triangular(low, b)


def solve_upper(up, b) -> np.ndarray:
    """Solve U z = b (U upper triangular)."""
    return _solve_triangular(up, b)


def chol_solve(s, b) -> np.ndarray:
    """Solve S z = b for symmetric positive definite S via its Cholesky factor."""
    return solve_factored(cholesky(s), b)


def solve_factored(low, b) -> np.ndarray:
    """Solve L L^T z = b given the lower Cholesky factor L of S = L L^T."""
    return solve_upper(low.T, solve_lower(low, b))


# ---------------------------------------------------------------------------
# SVD


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


def lead_signs(cols: np.ndarray) -> np.ndarray:
    """The package's sign rule: per column, the +1/-1 factor that makes the
    lead component positive.  The lead is the first component whose
    magnitude is within 1e-12 (relative) of the column maximum, so an exact
    tie is decided by position, not by the last ulp of the solver."""
    if cols.shape[0] == 0:  # the empty matrix's SVD has no components to sign
        return np.ones(cols.shape[1])
    mag = np.abs(cols)
    lead = np.argmax(mag >= (1.0 - 1e-12) * mag.max(axis=0), axis=0)
    return np.where(cols[lead, np.arange(cols.shape[1])] < 0, -1.0, 1.0)


def svd_stack(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVDs ``(u, sigmas, v)`` of every matrix in a ``(..., m, n)`` stack,
    in one LAPACK call.

    Each matrix is decomposed as its tall working matrix (the transpose of a
    wide one) with singular vectors, the routine :func:`svd_oracle` uses, so
    the singular values are the ones it computes before its zero floor.
    Neither the floor nor the sign rule is applied and entries are not
    checked: this is for statistics of many small spectra that read neither.
    """
    transposed = a.shape[-2] < a.shape[-1]
    work = a.swapaxes(-1, -2) if transposed else a
    try:
        u, sig, vt = np.linalg.svd(work, full_matrices=False)
    except np.linalg.LinAlgError:
        raise NumericalError("NO_CONVERGENCE", "SVD did not converge") from None
    v = vt.swapaxes(-1, -2)
    return (v, sig, u) if transposed else (u, sig, v)


def svd_oracle(a) -> SvdResult:
    """Full thin SVD (LAPACK) in the package's conventions.

    The SVD runs on the tall working matrix (the transpose of a wide one).
    Singular values come out descending; those at or below
    ``sigma_max * max(m, n) * 2.3e-16`` are reported as exact zeros (their
    columns are still an orthonormal basis).  Sign convention: in each right
    singular vector of the working matrix the lead component (see
    :func:`lead_signs`) is positive.
    """
    a = as_matrix(a)
    u, sig, v = svd_stack(a)
    if sig.size:
        sig[sig <= sig[0] * max(a.shape) * SVD_FLOOR_EPS] = 0.0
    signs = lead_signs(u if a.shape[0] < a.shape[1] else v)  # the working matrix's right vectors
    return SvdResult(u * signs, sig, v * signs)


def ky_fan(a, k: int) -> float:
    """Sum of the k largest singular values."""
    a = as_matrix(a)
    check_k(k, 1, min(a.shape))
    return float(svd_oracle(a).sigmas[:k].sum())
