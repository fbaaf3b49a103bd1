"""Monte Carlo validation of the sample-complexity tail bounds and of the
local characterization of Chernoff exponents.

Each experiment draws `trials` empirical distributions per sample size,
evaluates an error statistic of the estimated spectrum or features, and
reports the exceedance frequency next to the theoretical bound.  Bound
formulas live in standalone functions so they can be unit-tested against
hand evaluations, separately from the samplers.

Trial seeds derive from (seed, sample-size index, trial index) through a
splitmix64-style mix, so trials are independent, reproducible, and could be
evaluated in any order or in parallel.  Each trial draws from its own
stream, and the trials of one sample size are then evaluated together: their
quasi-CDMs are stacked, decomposed by one stacked SVD, and a statistic maps
that stack to one value per trial.  The stack is built in chunks of at most
``MC_CHUNK_CELLS`` cells, so memory does not grow with the trial count.

All statistics are built on the quasi-CDM: the empirical joint paired with
the *true* marginals,

    Bhat(y, x) = (Phat(x, y) - P_X(x) P_Y(y)) / sqrt(P_X(x) P_Y(y)),

whose top singular values estimate the true sigma_i.  With p0 a lower bound
on every marginal probability, the tail bounds validated here are

    sigma sums   P(sum_{i<=k} |sigmahat_i - sigma_i| >= delta)
                   <= exp(1/4 - p0^2 delta^2 n / (8k)),  delta <= sqrt(k/2)/p0
                   <= (|X|+|Y|) exp(-p0 delta^2 n / (4k^2)),  delta <= k
    feature loss P(mu2 >= delta)
                   <= (|X|+|Y|) exp(-p0 delta^2 n / (64 k^2)),  delta <= 4k
    MI estimate  P(|1/2 sum (sigmahat_i^2 - sigma_i^2)| >= delta)
                   <= exp(1/4 - p0^4 delta^2 n / (8k)),  delta <= sqrt(k/2)/p0^2
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Literal, Sequence

import numpy as np

from . import linalg
from .errors import DataError, check_k
from .modal import build_cdm, cdm_matrix
from .probability import JointPmf, Pmf

MC_CHUNK_CELLS = 1 << 20  # table cells per stacked chunk of trials


# ---------------------------------------------------------------------------
# deterministic per-trial seeding


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def derive_seed(seed: int, *indices: int) -> int:
    """Fold (seed, i1, i2, ...) into one 64-bit stream seed."""
    acc = _splitmix64(seed & 0xFFFFFFFFFFFFFFFF)
    for idx in indices:
        acc = _splitmix64(acc ^ ((idx + 1) & 0xFFFFFFFFFFFFFFFF))
    return acc


def _trial_counts(seed: int, ni: int, n: int, probs: np.ndarray, trials: int) -> Iterator[np.ndarray]:
    """Multinomial counts of ``n`` draws from ``probs`` for every trial of the
    ``ni``-th sample size, yielded in trial order as ``(chunk, *probs.shape)``
    stacks of at most ``MC_CHUNK_CELLS`` cells (at least one trial each).

    Trial t draws from its own stream ``derive_seed(seed, ni, t)``, so the
    counts do not depend on the chunking.
    """
    flat = probs.ravel()
    step = max(1, MC_CHUNK_CELLS // flat.size)
    for start in range(0, trials, step):
        chunk = range(start, min(start + step, trials))
        counts = np.empty((len(chunk), flat.size), dtype=np.int64)
        for row, t in enumerate(chunk):
            counts[row] = np.random.default_rng(derive_seed(seed, ni, t)).multinomial(n, flat)
        yield counts.reshape(len(chunk), *probs.shape)


# ---------------------------------------------------------------------------
# bound formulas (unit-tested against hand evaluations)


def min_marginal(joint: JointPmf) -> float:
    return float(min(joint.x_marginal.probs.min(), joint.y_marginal.probs.min()))


def sigma_tail_bound(p0: float, delta: float, n: int, k: int) -> float:
    return math.exp(0.25 - p0 * p0 * delta * delta * n / (8.0 * k))


def sigma_tail_bound_alt(n_x: int, n_y: int, p0: float, delta: float, n: int, k: int) -> float:
    return (n_x + n_y) * math.exp(-p0 * delta * delta * n / (4.0 * k * k))


def feature_tail_bound(n_x: int, n_y: int, p0: float, delta: float, n: int, k: int) -> float:
    return (n_x + n_y) * math.exp(-p0 * delta * delta * n / (64.0 * k * k))


def mi_tail_bound(p0: float, delta: float, n: int, k: int) -> float:
    return math.exp(0.25 - p0**4 * delta * delta * n / (8.0 * k))


def sigma_mse_bound(p0: float, n: int, k: int) -> float:
    return (6.0 * k + 8.0 * k * math.log(n * k)) / (p0 * p0 * n)


def mse_precondition_ok(n: int, k: int) -> bool:
    return n >= 16.0 * math.log(4.0 * k * n)


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class TailCell:
    n: int
    delta: float
    exceed_count: int
    frequency: float
    stderr: float
    bound: float
    alt_bound: float | None = None
    mse_bound: float | None = None
    mse_precondition_ok: bool | None = None

    def __post_init__(self):
        if not 0.0 <= self.frequency <= 1.0:
            raise DataError("SHAPE_MISMATCH", "frequency must lie in [0, 1]")

    @property
    def effective_bound(self) -> float:
        if self.alt_bound is None:
            return self.bound
        return min(self.bound, self.alt_bound)


@dataclass(frozen=True)
class TailExperimentReport:
    experiment: str
    k: int
    trials: int
    seed: int
    p0: float
    cells: tuple[TailCell, ...]

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "k": self.k,
            "trials": self.trials,
            "seed": self.seed,
            "p0": self.p0,
            "cells": [
                {
                    "n": c.n,
                    "delta": c.delta,
                    "exceed_count": c.exceed_count,
                    "frequency": c.frequency,
                    "stderr": c.stderr,
                    "bound": c.bound,
                    "alt_bound": c.alt_bound,
                    "mse_bound": c.mse_bound,
                    "mse_precondition_ok": c.mse_precondition_ok,
                }
                for c in self.cells
            ],
        }


def _stderr(freq: float, trials: int) -> float:
    return math.sqrt(freq * (1.0 - freq) / trials)


def _mc_setup(joint: JointPmf, n_grid, delta_grid, k: int, trials: int, delta_cap):
    """Checks shared by the tail experiments, then the true spectrum.

    Returns ``(p0, cdm, svd)``: the smallest marginal probability, the CDM
    matrix and its oracle SVD.  ``delta_cap(p0)`` is the experiment's upper
    limit on delta.
    """
    if not joint.strictly_positive_marginals or np.any(joint.probs <= 0):
        raise DataError("ZERO_MARGINAL", "experiment requires a strictly positive joint")
    p0 = min_marginal(joint)
    check_k(k, 1, min(len(joint.x_alphabet), len(joint.y_alphabet)))
    dmax = delta_cap(p0)
    for d in delta_grid:
        if not 0 <= d <= dmax:
            raise DataError("DELTA_OUT_OF_RANGE", f"delta={d} outside [0, {dmax}]")
    if trials < 1 or len(n_grid) == 0 or min(n_grid) < 1 or len(delta_grid) == 0:
        raise DataError("BAD_OPTIONS", "need trials >= 1 and non-empty grids with sample sizes >= 1")
    cdm = build_cdm(joint).btilde
    return p0, cdm, linalg.svd_oracle(cdm)


def _stack_statistic(statistic, counts: np.ndarray, n: int, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """``statistic`` of each trial in a ``(trials, |X|, |Y|)`` stack of counts."""
    return statistic(linalg.svd_stack(cdm_matrix(counts / n, px, py)))


def _run_tail(
    joint: JointPmf,
    n_grid: Sequence[int],
    delta_grid: Sequence[float],
    k: int,
    trials: int,
    seed: int,
    statistic,
    bound,
    alt_bound=None,
    mse=None,
) -> tuple[TailCell, ...]:
    """Tabulate the tails of ``statistic`` over the grid.

    Per sample size, each chunk of trials becomes a stack of quasi-CDMs, and
    ``statistic`` maps the stack's SVD, ``(u, sigmas, v)`` from
    ``linalg.svd_stack`` with one leading index per trial, to a vector with
    one value per trial.
    """
    px, py = joint.x_marginal.probs, joint.y_marginal.probs
    cells = []
    for ni, n in enumerate(n_grid):
        stats = np.concatenate(
            [_stack_statistic(statistic, counts, n, px, py) for counts in _trial_counts(seed, ni, n, joint.probs, trials)]
        )
        for delta in delta_grid:
            count = int(np.sum(stats >= delta))
            freq = count / trials
            cells.append(
                TailCell(
                    n=int(n),
                    delta=float(delta),
                    exceed_count=count,
                    frequency=freq,
                    stderr=_stderr(freq, trials),
                    bound=bound(delta, n),
                    alt_bound=None if alt_bound is None else alt_bound(delta, n),
                    mse_bound=None if mse is None else mse(n),
                    mse_precondition_ok=None if mse is None else mse_precondition_ok(n, k),
                )
            )
    return tuple(cells)


def mc_sigma_tail(
    joint: JointPmf,
    n_grid: Sequence[int],
    delta_grid: Sequence[float],
    k: int,
    trials: int,
    seed: int,
) -> TailExperimentReport:
    """Tail validation for the summed singular-value error."""
    p0, _, svd_true = _mc_setup(
        joint, n_grid, delta_grid, k, trials, lambda p0: math.sqrt(k / 2.0) / p0
    )
    true_sig = svd_true.sigmas[:k]
    n_x, n_y = len(joint.x_alphabet), len(joint.y_alphabet)

    def statistic(svd) -> np.ndarray:
        _, sig, _ = svd
        return np.abs(sig[:, :k] - true_sig).sum(axis=1)

    cells = _run_tail(
        joint,
        n_grid,
        delta_grid,
        k,
        trials,
        seed,
        statistic,
        bound=lambda d, n: sigma_tail_bound(p0, d, n, k),
        alt_bound=lambda d, n: sigma_tail_bound_alt(n_x, n_y, p0, d, n, k) if d <= k else None,
        mse=lambda n: sigma_mse_bound(p0, n, k),
    )
    return TailExperimentReport("sigma-tail", k, trials, seed, p0, cells)


def mc_feature_quality(
    joint: JointPmf,
    n_grid: Sequence[int],
    delta_grid: Sequence[float],
    k: int,
    trials: int,
    seed: int,
    metric: Literal["mu2", "mu2prime"] = "mu2",
) -> TailExperimentReport:
    """Tail validation for the feature-quality losses.

    ``mu2`` is the drop in captured local information, sum_{i<=k} sigma_i^2
    - ||Btilde PsiX_hat||_F^2, computed exactly from the true joint and the
    estimated singular vectors; ``mu2prime`` is the Frobenius gap between
    the true and estimated mode-correlation matrices.
    """
    p0, cdm, svd_true = _mc_setup(joint, n_grid, delta_grid, k, trials, lambda p0: 4 * k)
    captured_true = float(np.sum(svd_true.sigmas[:k] ** 2))
    sig_diag = np.diag(svd_true.sigmas[:k])
    n_x, n_y = len(joint.x_alphabet), len(joint.y_alphabet)

    def statistic(svd) -> np.ndarray:
        u, _, v = svd
        psi_x = v[:, :, :k]
        if metric == "mu2":
            return captured_true - np.sum((cdm @ psi_x) ** 2, axis=(1, 2))
        psi_y = u[:, :, :k]
        return np.sqrt(np.sum((sig_diag - psi_y.swapaxes(1, 2) @ cdm @ psi_x) ** 2, axis=(1, 2)))

    if metric not in ("mu2", "mu2prime"):
        raise DataError("SHAPE_MISMATCH", f"unknown metric {metric!r}")
    cells = _run_tail(
        joint,
        n_grid,
        delta_grid,
        k,
        trials,
        seed,
        statistic,
        bound=lambda d, n: feature_tail_bound(n_x, n_y, p0, d, n, k),
    )
    return TailExperimentReport(f"feature-quality-{metric}", k, trials, seed, p0, cells)


def mc_mi_error(
    joint: JointPmf,
    n_grid: Sequence[int],
    delta_grid: Sequence[float],
    k: int,
    trials: int,
    seed: int,
) -> TailExperimentReport:
    """Tail validation for the plug-in local mutual-information estimate."""
    p0, _, svd_true = _mc_setup(
        joint, n_grid, delta_grid, k, trials, lambda p0: math.sqrt(k / 2.0) / (p0 * p0)
    )
    true_sig = svd_true.sigmas[:k]
    true_half = 0.5 * float(np.sum(true_sig**2))

    def statistic(svd) -> np.ndarray:
        _, sig, _ = svd
        return np.abs(0.5 * np.sum(sig[:, :k] ** 2, axis=1) - true_half)

    cells = _run_tail(
        joint,
        n_grid,
        delta_grid,
        k,
        trials,
        seed,
        statistic,
        bound=lambda d, n: mi_tail_bound(p0, d, n, k),
        mse=lambda n: (6.0 * k + 8.0 * k * math.log(n * k)) / (p0**4 * n),
    )
    return TailExperimentReport("mi-error", k, trials, seed, p0, cells)


# ---------------------------------------------------------------------------
# local Chernoff characterization


@dataclass(frozen=True)
class ChernoffCell:
    gamma: float
    n: int
    exceed_count: int
    frequency: float
    normalized_log_prob: float | None  # (2 / (gamma^2 n)) log frequency


@dataclass(frozen=True)
class ChernoffReport:
    limit: float  # -(E h)^2 / Var h
    trials: int
    seed: int
    cells: tuple[ChernoffCell, ...]

    def to_json_dict(self) -> dict:
        return {
            "limit": self.limit,
            "trials": self.trials,
            "seed": self.seed,
            "cells": [
                {
                    "gamma": c.gamma,
                    "n": c.n,
                    "exceed_count": c.exceed_count,
                    "frequency": c.frequency,
                    "normalized_log_prob": c.normalized_log_prob,
                }
                for c in self.cells
            ],
        }


def chernoff_local(
    h,
    pmf: Pmf,
    gamma_grid: Sequence[float],
    n_grid: Sequence[int],
    trials: int,
    seed: int,
) -> ChernoffReport:
    """Estimate the relative-deviation exponent of an empirical mean.

    For a feature h with nonzero mean, the probability that the empirical
    mean deviates from E[h] by a relative gamma behaves like
    exp(gamma^2 n / 2 * -(E h)^2 / Var h) as gamma -> 0 after n -> infinity;
    the report tabulates the normalized log-frequency per (gamma, n) cell
    against that limit.  Cells with zero exceedances report None (the
    probability is below Monte Carlo resolution).
    """
    h = np.asarray(h, dtype=float)
    if h.shape != pmf.probs.shape:
        raise DataError("SHAPE_MISMATCH", "feature does not match the alphabet")
    mean = float(pmf.probs @ h)
    var = float(pmf.probs @ (h - mean) ** 2)
    if abs(mean) < 1e-12:
        raise DataError("ZERO_MEAN_FEATURE", "the relative deviation is undefined at E[h] = 0")
    if var <= 0:
        raise DataError("ZERO_MEAN_FEATURE", "the feature must have positive variance")
    limit = -(mean * mean) / var
    cells = []
    for ni, n in enumerate(n_grid):
        rel_dev = np.concatenate(
            [np.abs(counts @ h / n / mean - 1.0) for counts in _trial_counts(seed, ni, n, pmf.probs, trials)]
        )
        for gamma in gamma_grid:
            if gamma <= 0:
                raise DataError("DELTA_OUT_OF_RANGE", "gamma must be positive")
            count = int(np.sum(rel_dev >= gamma))
            freq = count / trials
            norm = None
            if count > 0:
                norm = 2.0 / (gamma * gamma * n) * math.log(freq)
            cells.append(ChernoffCell(float(gamma), int(n), count, freq, norm))
    return ChernoffReport(limit, trials, seed, tuple(cells))
