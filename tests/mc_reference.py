"""Per-trial Monte Carlo loop: the reference for the batched trials in
``modalkit.experiments``.

Each trial draws its counts from its own ``derive_seed(seed, ni, t)`` stream,
builds its quasi-CDM, takes the full ``linalg.svd_oracle`` (sign rule and
zero floor included) and evaluates its statistic as one float, one trial at
a time.  The batched path must reproduce these statistics within 1e-12 and
every exceed count exactly.
"""

from __future__ import annotations

import numpy as np

from modalkit import linalg
from modalkit.experiments import derive_seed
from modalkit.modal import build_cdm, cdm_matrix

EXPERIMENTS = ("sigma", "mu2", "mu2prime", "mi")


def _statistic(joint, experiment: str, k: int):
    cdm = build_cdm(joint).btilde
    svd_true = linalg.svd_oracle(cdm)
    true_sig = svd_true.sigmas[:k]
    if experiment == "sigma":
        return lambda svd: float(np.abs(svd.sigmas[:k] - true_sig).sum())
    if experiment == "mi":
        true_half = 0.5 * float(np.sum(true_sig**2))
        return lambda svd: abs(0.5 * float(np.sum(svd.sigmas[:k] ** 2)) - true_half)
    if experiment == "mu2":
        captured_true = float(np.sum(true_sig**2))
        return lambda svd: captured_true - float(np.sum((cdm @ svd.v[:, :k]) ** 2))
    sig_diag = np.diag(true_sig)
    return lambda svd: float(np.sqrt(np.sum((sig_diag - svd.u[:, :k].T @ cdm @ svd.v[:, :k]) ** 2)))


def trial_stats(joint, experiment: str, k: int, n: int, ni: int, trials, seed: int) -> np.ndarray:
    """The statistic of each listed trial of grid row ``ni`` (sample size ``n``)."""
    statistic = _statistic(joint, experiment, k)
    px, py = joint.x_marginal.probs, joint.y_marginal.probs
    stats = []
    for t in trials:
        rng = np.random.default_rng(derive_seed(seed, ni, t))
        counts = rng.multinomial(n, joint.probs.ravel()).reshape(joint.probs.shape)
        stats.append(statistic(linalg.svd_oracle(cdm_matrix(counts / n, px, py))))
    return np.array(stats)


def tail_stats(joint, experiment: str, k: int, n_grid, trials: int, seed: int) -> list[np.ndarray]:
    """One array of per-trial statistics per grid row."""
    return [trial_stats(joint, experiment, k, n, ni, range(trials), seed) for ni, n in enumerate(n_grid)]


def exceed_counts(rows: list[np.ndarray], delta_grid) -> list[int]:
    """Exceed counts in report cell order (grid row major, then delta)."""
    return [int(np.sum(stats >= delta)) for stats in rows for delta in delta_grid]


def chernoff_rel_dev(h, probs, n_grid, trials: int, seed: int) -> list[np.ndarray]:
    """|mean_hat / mean - 1| per trial, one array per sample size."""
    h = np.asarray(h, dtype=float)
    mean = float(probs @ h)
    rows = []
    for ni, n in enumerate(n_grid):
        rel_dev = np.empty(trials)
        for t in range(trials):
            counts = np.random.default_rng(derive_seed(seed, ni, t)).multinomial(n, probs)
            rel_dev[t] = abs(float(counts @ h) / n / mean - 1.0)
        rows.append(rel_dev)
    return rows
