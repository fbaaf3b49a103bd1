"""Alternating conditional expectations: the iterative route to the top-k
modes.

All three entry points are the same algorithm in different clothes.
:func:`orthogonal_iteration` is the plain matrix form: orthonormalize a block
by QR, map it through A and A^T, repeat.  It is the reference, and QR keeps
it accurate where Cholesky whitening would square the block's condition
number.  :func:`ace_discrete` and :func:`ace_gaussian` run one loop,
``_alternate``, phrased in probability space - center, whiten via a Cholesky
factor of the feature covariance, take conditional expectations.  They
differ only in what they hand it: transition tables and the joint table for
a discrete pair (exact or empirical), gain matrices and Cov_XY for a
Gaussian model, whose fixed point is CCA.

The per-iteration monitor is E[f_bar^T g_hat] (trace form for matrices),
which ascends to sum_{i<=k} sigma_i^2; iteration stops when its increments
fall below ``tol * max(1, monitor)``.  Convergence is geometric with rate
governed by the sigma_k / sigma_{k+1} gap, so tight spectra need a smaller
``tol`` (or more iterations) for accurate singular vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DataError, NumericalError, check_k
from .modal import ModalDecomposition, finish_modes
from .probability import JointPmf


@dataclass(frozen=True)
class AceOptions:
    tol: float = 1e-10
    max_iters: int = 10_000
    seed: int = 0
    jitter: float = 1e-12

    def __post_init__(self):
        if not self.tol > 0 or self.max_iters < 1 or not self.jitter >= 0:
            raise DataError("BAD_OPTIONS", "need tol > 0, max_iters >= 1, jitter >= 0")


@dataclass(frozen=True)
class AceTrace:
    """Per-iteration monitor values plus step-semantics diagnostics.

    ``whiten_dev`` is the worst deviation of the whitened feature covariance
    from the identity seen across iterations; ``center_dev`` the worst
    post-centering mean.  Both should sit at round-off level.
    """

    monitor: tuple[float, ...]
    converged: bool
    iterations: int
    whiten_dev: float = 0.0
    center_dev: float = 0.0


def _stopped(monitor: list[float], tol: float) -> bool:
    if len(monitor) < 2:
        return False
    return monitor[-1] - monitor[-2] <= tol * max(1.0, abs(monitor[-1]))


def _align_modes(core: np.ndarray, left: np.ndarray, right: np.ndarray):
    """Diagonalize the small core matrix at the converged subspace pair.

    The iteration's monitor cannot see rotations inside the retained block,
    so the final (left, right) blocks may still mix modes of unequal sigma.
    An SVD of the k x k core supplies the exact within-block rotation; the
    orthogonal right-factors preserve whitening constraints.
    """
    small = linalg.svd_oracle(core)
    return small.sigmas.copy(), left @ small.u, right @ small.v


# ---------------------------------------------------------------------------
# generic matrix form


def orthogonal_iteration(
    a, k: int, opts: AceOptions = AceOptions()
) -> tuple[np.ndarray, np.ndarray, np.ndarray, AceTrace]:
    """Top-k singular triplets of a matrix by block power iteration.

    Returns ``(u, sigmas, v, trace)`` with orthonormal ``u`` (rows x k) and
    ``v`` (cols x k).  On sweep exhaustion the best iterate is returned with
    ``trace.converged`` False rather than raising.
    """
    a = linalg.as_matrix(a)
    check_k(k, 1, min(a.shape))
    rng = np.random.default_rng(opts.seed)
    block = rng.standard_normal((a.shape[1], k))
    monitor: list[float] = []
    converged = False
    qx = qy = None
    for _ in range(opts.max_iters):
        qx, _ = linalg.thin_qr(block)
        qy, _ = linalg.thin_qr(a @ qx)
        block = a.T @ qy
        monitor.append(float(np.sum(block * block)))
        if _stopped(monitor, opts.tol):
            converged = True
            break
    qx, _ = linalg.thin_qr(block)
    sigmas, u, v = _align_modes(qy.T @ a @ qx, qy, qx)
    signs = linalg.lead_signs(v)  # the oracle's sign rule, applied to the right block
    u, v = u * signs, v * signs
    trace = AceTrace(tuple(monitor), converged, len(monitor))
    return u, sigmas, v, trace


# ---------------------------------------------------------------------------
# the alternating loop, shared by discrete and Gaussian ACE


def _whiten(values: np.ndarray, gram, jitter: float, redraw) -> np.ndarray:
    """Whiten feature columns: gram(v) -> I via a Cholesky factor.

    ``gram(values)`` is the covariance of the columns under the relevant
    law.  On a failed factorization retries once with ``jitter`` added to
    the diagonal; a second failure means the requested order exceeds the
    effective rank.  ``redraw`` (or None) lets the first iteration restart
    from a fresh random block before the jitter policy applies.
    """
    cov = gram(values)
    try:
        low = linalg.cholesky(cov)
    except NumericalError:
        if redraw is not None:
            return _whiten(redraw(), gram, jitter, None)
        try:
            low = linalg.cholesky(cov + jitter * np.eye(cov.shape[0]))
        except NumericalError:
            raise NumericalError(
                "RANK_DEFICIENT_WHITENING",
                "whitening covariance is singular; k exceeds the effective rank",
            ) from None
    return linalg.solve_lower(low, values.T).T  # values @ low^{-T}


def _alternate(cross, to_y, to_x, gram_x, gram_y, k: int, opts: AceOptions, wx=None, wy=None):
    """The alternating loop that discrete and Gaussian ACE share.

    ``cross`` is the |x| x |y| matrix of the bilinear form E[f(X) g(Y)]
    (the joint table, or Cov_XY); ``to_y`` and ``to_x`` map a feature block
    to its conditional expectation given the other variable; ``gram_x`` and
    ``gram_y`` give a block's covariance.  ``wx`` and ``wy`` are the laws
    the features are centered under, or None where features are linear maps
    of zero-mean vectors and need no centering.  Returns ``(sigmas, f_hat,
    g_hat, trace)`` with both blocks whitened and aligned to the core SVD.
    """
    center = lambda v, w: v if w is None else v - w @ v
    rng = np.random.default_rng(opts.seed)
    f_bar = rng.standard_normal((cross.shape[0], k))
    monitor: list[float] = []
    converged = False
    whiten_dev = 0.0
    center_dev = 0.0
    g_hat = None

    def redraw_centered():
        return center(rng.standard_normal((cross.shape[0], k)), wx)

    for iteration in range(opts.max_iters):
        f_bar = center(f_bar, wx)
        f_hat = _whiten(f_bar, gram_x, opts.jitter, redraw_centered if iteration == 0 else None)
        whiten_dev = max(whiten_dev, float(np.max(np.abs(gram_x(f_hat) - np.eye(k)))))
        g_bar = center(to_y(f_hat), wy)
        if wy is not None:
            center_dev = max(center_dev, float(np.max(np.abs(wy @ g_bar))))
        g_hat = _whiten(g_bar, gram_y, opts.jitter, None)
        f_bar = to_x(g_hat)
        monitor.append(float(np.einsum("xk,xy,yk->", f_bar, cross, g_hat)))
        if _stopped(monitor, opts.tol):
            converged = True
            break

    f_hat = _whiten(center(f_bar, wx), gram_x, opts.jitter, None)
    core = g_hat.T @ cross.T @ f_hat  # [j, i] = E[g_j(Y) f_i(X)]
    sigmas, g_hat, f_hat = _align_modes(core, g_hat, f_hat)
    trace = AceTrace(tuple(monitor), converged, len(monitor), whiten_dev, center_dev)
    return sigmas, f_hat, g_hat, trace


# ---------------------------------------------------------------------------
# discrete ACE


def ace_discrete(
    joint: JointPmf, k: int, opts: AceOptions = AceOptions()
) -> tuple[ModalDecomposition, AceTrace]:
    """Top-k modal decomposition via alternating conditional expectations.

    One iteration: center f under P_X, whiten, map through E[. | Y], center
    under P_Y, whiten, map back through E[. | X].  All expectations are taken
    under the supplied joint, so feeding an empirical table estimates the
    decomposition from data.
    """
    kmax = min(len(joint.x_alphabet), len(joint.y_alphabet)) - 1
    check_k(k, 1, kmax)
    if not joint.strictly_positive_marginals:
        raise DataError("ZERO_MARGINAL", "ACE needs strictly positive marginals")

    px = joint.x_marginal.probs
    py = joint.y_marginal.probs
    pxy = joint.probs
    cond_x_given_y = pxy / py[None, :]  # column y: P(x | y)
    cond_y_given_x = pxy / px[:, None]  # row x: P(y | x)
    sigmas, f_hat, g_hat, trace = _alternate(
        pxy,
        lambda f: cond_x_given_y.T @ f,
        lambda g: cond_y_given_x @ g,
        lambda v: (v * px[:, None]).T @ v,
        lambda v: (v * py[:, None]).T @ v,
        k, opts, px, py,
    )
    # Zero modes carry no signal through the conditional expectations, so
    # their columns are whatever the (jittered) whitening left behind;
    # finish_modes replaces them exactly as on the oracle path.
    psi_x, psi_y = np.sqrt(px)[:, None] * f_hat, np.sqrt(py)[:, None] * g_hat
    md = finish_modes(sigmas, psi_x, psi_y, joint.x_marginal, joint.y_marginal)
    return md, trace


# ---------------------------------------------------------------------------
# Gaussian ACE


def ace_gaussian(gauss, k: int, opts: AceOptions = AceOptions()):
    """Top-k canonical correlations of a Gaussian model by the same iteration.

    Conditional expectations are linear here, so each half-step is a gain
    matrix product; whitening enforces F^T Cov_X F = I.  Returns a
    :class:`modalkit.gaussian.CcaDecomposition` plus the trace, and must
    agree with the direct SVD of the canonical correlation matrix.
    """
    from .gaussian import CcaDecomposition, GaussianJoint  # cycle-free at call time

    if not isinstance(gauss, GaussianJoint):
        raise DataError("SHAPE_MISMATCH", "ace_gaussian expects a GaussianJoint")
    check_k(k, 1, min(gauss.dim_x, gauss.dim_y))

    cov_xy, low_x, low_y = gauss.cov_xy, gauss._low_x, gauss._low_y
    sigmas, f_hat, g_hat, trace = _alternate(
        cov_xy,
        lambda f: linalg.solve_factored(low_y, cov_xy.T @ f),
        lambda g: linalg.solve_factored(low_x, cov_xy @ g),
        lambda b: b.T @ (low_x @ (low_x.T @ b)),
        lambda b: b.T @ (low_y @ (low_y.T @ b)),
        k, opts,
    )
    return CcaDecomposition(f_hat, g_hat, sigmas), trace
