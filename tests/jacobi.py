"""One-sided Jacobi SVD: the independent reference for ``linalg.svd_oracle``.

The production SVD is LAPACK's (through ``numpy.linalg``).  This module keeps
a rotation-based solver that shares no code path with it, so the gate tests
in ``test_linalg.py`` can hold the production spectra, rank decisions and
subspaces against an algorithm known to be at least as accurate on these
matrices (Demmel & Veselic 1992, "Jacobi's method is more accurate than QR").

It follows the package conventions: descending sigmas, the zero floor
``sigma_max * max(m, n) * 2.3e-16`` and ``linalg.lead_signs`` on the right
vectors of the tall working matrix.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from modalkit import NumericalError
from modalkit.linalg import SvdResult, as_matrix, lead_signs

TOL = 1e-14
MAX_SWEEPS = 60


@lru_cache(maxsize=64)
def _rounds(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
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


def jacobi_svd(a) -> SvdResult:
    """Full thin SVD by one-sided Jacobi rotations.

    Sweeps rotate column pairs of the (tall) working matrix until every pair
    is orthogonal to relative tolerance ``TOL`` (at most ``MAX_SWEEPS``
    sweeps).  Basis vectors at zero sigmas are completed orthonormally from
    canonical vectors.
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
    for _ in range(MAX_SWEEPS):
        rotated = False
        # Round-robin schedule: each round holds disjoint pairs, so all its
        # rotations commute and are applied in one vectorized step.
        for ps, qs in _rounds(n):
            wp = work[:, ps]
            wq = work[:, qs]
            alpha = np.einsum("ij,ij->j", wp, wp)
            beta = np.einsum("ij,ij->j", wq, wq)
            gamma = np.einsum("ij,ij->j", wp, wq)
            mask = (
                (alpha > floor2)
                & (beta > floor2)
                & (np.abs(gamma) > TOL * np.sqrt(alpha) * np.sqrt(beta))
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
        raise NumericalError("NO_CONVERGENCE", f"Jacobi SVD did not settle in {MAX_SWEEPS} sweeps")

    sig = np.sqrt(np.einsum("ij,ij->j", work, work))
    order = np.argsort(-sig, kind="stable")
    sig = sig[order]
    v = v[:, order]
    work = work[:, order]

    u = np.zeros((m, n))
    cutoff = float(sig[0]) * max(m, n) * 2.3e-16 if n else 0.0
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
