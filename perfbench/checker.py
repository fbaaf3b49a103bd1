"""Output checker for the benchmark, independent of modalkit's kernels.

Every reference value comes from ``numpy.linalg`` (SVD, Cholesky, solve)
applied to the generated inputs; nothing here calls the package's linear
algebra.  Each ``check_*`` function returns ``None`` when the output is right
and a one-line reason when it is not.  The checker runs after timing, outside
the timed region.

Tolerances follow the README: spectra and derived scalars to 1e-10 (the
Jacobi SVD runs to relative 1e-14 on values at most 1), subspace projectors
to 1e-8, feature constraints (zero mean, unit covariance) to 1e-8.  ACE jobs
run with ``--tol 1e-16`` and are held to the acceptance tests' ACE
tolerances: sigmas to 1e-8, projectors to 1e-6.
"""

from __future__ import annotations

import numpy as np

SIGMA_TOL = 1e-10
PROJ_TOL = 1e-8
FEATURE_TOL = 1e-8
ACE_SIGMA_TOL = 1e-8
ACE_PROJ_TOL = 1e-6
LIVE_SIGMA = 1e-9  # reference sigmas above this are modes, below it zero modes
TIE_BAND = 1e-9  # Monte Carlo statistics this close to a delta may round either way


def _diff(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)))) if np.size(a) else 0.0


def cdm(table: np.ndarray):
    """Canonical dependence matrix [y, x] of a joint table, with its marginals."""
    px, py = table.sum(axis=1), table.sum(axis=0)
    outer = np.outer(py, px)
    return (table.T - outer) / np.sqrt(outer), px, py


def spectrum(table: np.ndarray):
    """numpy SVD of the CDM: (sigmas, left vectors [y, i], right vectors [x, i], px, py)."""
    b, px, py = cdm(table)
    u, s, vt = np.linalg.svd(b)
    return s, u, vt.T, px, py


def _feature_table(payload_side: dict, symbols: list[str]) -> np.ndarray:
    return np.array([payload_side[sym] for sym in symbols], dtype=float)


def check_modes(payload: dict, table: np.ndarray, k: int, ace: bool = False) -> str | None:
    """``decompose`` / ``ace`` output {"sigmas", "f", "g", "marginals"}."""
    sig_tol, proj_tol = (ACE_SIGMA_TOL, ACE_PROJ_TOL) if ace else (SIGMA_TOL, PROJ_TOL)
    s, u, v, px, py = spectrum(table)
    xs = [f"x{i}" for i in range(table.shape[0])]
    ys = [f"y{j}" for j in range(table.shape[1])]
    sig = np.asarray(payload["sigmas"], dtype=float)
    if sig.shape != (k,):
        return f"expected {k} sigmas, got {sig.size}"
    if _diff(sig, s[:k]) > sig_tol:
        return f"sigmas off by {_diff(sig, s[:k]):.3g}"
    marg = payload["marginals"]
    if _diff([marg["x"][x] for x in xs], px) > 1e-12 or _diff([marg["y"][y] for y in ys], py) > 1e-12:
        return "marginals do not match the input"
    psi_x = np.sqrt(px)[:, None] * _feature_table(payload["f"], xs)
    psi_y = np.sqrt(py)[:, None] * _feature_table(payload["g"], ys)
    for psi, root in ((psi_x, np.sqrt(px)), (psi_y, np.sqrt(py))):
        if _diff(psi.T @ psi, np.eye(k)) > FEATURE_TOL or _diff(root @ psi, 0.0) > FEATURE_TOL:
            return "features are not zero-mean and orthonormal"
    if np.any(psi_x.max(axis=0) < (-psi_x).max(axis=0) - 1e-12):
        return "sign rule broken: an x-side vector's largest-magnitude entry is negative"
    live = int(np.sum(s[:k] > LIVE_SIGMA))
    px_ref, py_ref = v[:, :live] @ v[:, :live].T, u[:, :live] @ u[:, :live].T
    if _diff(psi_x[:, :live] @ psi_x[:, :live].T, px_ref) > proj_tol:
        return "x-side mode subspace differs from numpy's"
    if _diff(psi_y[:, :live] @ psi_y[:, :live].T, py_ref) > proj_tol:
        return "y-side mode subspace differs from numpy's"
    b = cdm(table)[0]
    if _diff(b @ psi_x[:, :live], psi_y[:, :live] * sig[:live]) > max(proj_tol, 1e-12):
        return "g is not the CDM image of f for some mode"
    return None


def check_ace_trace(payload: dict) -> str | None:
    trace = payload.get("trace", {})
    return None if trace.get("converged") is True else "ACE did not report converged"


def recommend_keys(table: np.ndarray, k: int, user: int, variant: str) -> np.ndarray:
    s, u, v, px, py = spectrum(table)
    f = v[:, :k] / np.sqrt(px)[:, None]
    g = u[:, :k] / np.sqrt(py)[:, None]
    score = (f[user] * s[:k]) @ g.T
    return score if variant == "match" else py * (1.0 + score)


def check_ranking(items: list[tuple[str, float]], keys: np.ndarray, top: int) -> str | None:
    """Items must be a top-``top`` list by ``keys``; ties within 1e-10 may go either way."""
    if len(items) != top:
        return f"expected {top} items, got {len(items)}"
    best = np.sort(keys)[::-1][:top]
    for pos, (sym, score) in enumerate(items):
        j = int(sym[1:])
        if abs(keys[j] - best[pos]) > SIGMA_TOL:
            return f"item {sym} at rank {pos + 1} should not be there"
        if abs(score - keys[j]) > SIGMA_TOL:
            return f"score of {sym} off by {abs(score - keys[j]):.3g}"
    if len({sym for sym, _ in items}) != top:
        return "repeated item"
    return None


def check_recommend(payload: dict, table: np.ndarray, k: int, user: int, variant: str, top: int) -> str | None:
    items = [(it["item"], float(it["score"])) for it in payload["items"]]
    if payload["user"] != f"x{user}" or payload["variant"] != variant:
        return "wrong user or variant echoed"
    return check_ranking(items, recommend_keys(table, k, user, variant), top)


def check_common_info(payload: dict, table: np.ndarray) -> str | None:
    s = spectrum(table)[0]
    nuclear = float(s[: min(table.shape) - 1].sum())
    if abs(payload["value"] - nuclear) > SIGMA_TOL:
        return f"value off the nuclear norm by {abs(payload['value'] - nuclear):.3g}"
    config = payload["config"]
    if abs(config["nuclear_norm"] - payload["value"]) > 1e-12:
        return "config nuclear_norm disagrees with value"
    xs = [f"x{i}" for i in range(table.shape[0])]
    ys = [f"y{j}" for j in range(table.shape[1])]
    p_w = np.asarray(config["p_w"], dtype=float)
    cond_x = np.array([[config["cond_x"][w][x] for x in xs] for w in config["w"]])
    cond_y = np.array([[config["cond_y"][w][y] for y in ys] for w in config["w"]])
    if abs(p_w.sum() - 1.0) > 1e-12 or np.any(cond_x < 0) or np.any(cond_y < 0):
        return "configuration is not a valid distribution"
    mixture = np.einsum("w,wx,wy->xy", p_w, cond_x, cond_y)
    if _diff(mixture, table) > 1e-12:
        return f"mixture misses the joint by {_diff(mixture, table):.3g}"
    return None


def check_synth(payload: dict, k: int, n: int) -> str | None:
    table = np.zeros((n, n))
    for x, y, p in payload["rows"]:
        table[int(x[1:]), int(y[1:])] = p
    if np.any(table < 0) or abs(table.sum() - 1.0) > 1e-9:
        return "synthesized rows are not a distribution"
    s = spectrum(table)[0]
    if _diff(payload["sigmas"], s[:k]) > SIGMA_TOL or _diff(s[k : n - 1], 0.0) > SIGMA_TOL:
        return "synthesized joint does not have the reported spectrum"
    return None


def _ccm(model: dict):
    lx = np.linalg.cholesky(model["cov_x"])
    ly = np.linalg.cholesky(model["cov_y"])
    ccm = np.linalg.solve(lx, np.linalg.solve(ly, model["cov_xy"].T).T).T
    return ccm, lx, ly


def check_cca(payload: dict, model: dict, k: int) -> str | None:
    ccm = _ccm(model)[0]
    s = np.linalg.svd(ccm, compute_uv=False)
    sig = np.asarray(payload["sigmas"], dtype=float)
    f, g = np.asarray(payload["F"], dtype=float), np.asarray(payload["G"], dtype=float)
    if sig.shape != (k,) or _diff(sig, s[:k]) > SIGMA_TOL:
        return "canonical correlations differ from numpy's"
    if _diff(f.T @ model["cov_x"] @ f, np.eye(k)) > FEATURE_TOL:
        return "F is not Cov_X-orthonormal"
    if _diff(g.T @ model["cov_y"] @ g, np.eye(k)) > FEATURE_TOL:
        return "G is not Cov_Y-orthonormal"
    if _diff(g.T @ model["cov_xy"].T @ f, np.diag(sig)) > FEATURE_TOL:
        return "E[T S^T] is not diag(sigmas)"
    return None


def check_gauss_regress(payload: dict, model: dict, k: int) -> str | None:
    ccm, lx, ly = _ccm(model)
    u, s, vt = np.linalg.svd(ccm)
    f = np.linalg.solve(lx.T, vt[:k].T)
    g = np.linalg.solve(ly.T, u[:, :k])
    cross = model["cov_y"] @ (g * s[:k]) @ f.T @ model["cov_x"]
    pred_kl = np.linalg.solve(model["cov_x"], cross.T).T
    half = np.linalg.solve(lx, model["cov_xy"]).T
    uh, sh, vth = np.linalg.svd(half)
    pred_mmse = np.linalg.solve(lx.T, ((uh[:, :k] * sh[:k]) @ vth[:k]).T).T
    for key, ref in (("cross_cov_k", cross), ("predictor_kl", pred_kl), ("predictor_mmse", pred_mmse)):
        err = _diff(payload[key], ref)
        if err > FEATURE_TOL * max(1.0, float(np.max(np.abs(ref)))):
            return f"{key} off by {err:.3g}"
    return None


def tail_statistics(table, experiment: str, k: int, n: int, ni: int, trials: int, seed: int, derive_seed):
    """Replay one grid row of a Monte Carlo experiment with numpy."""
    b, px, py = cdm(table)
    outer = np.outer(py, px)
    true_svd = np.linalg.svd(b)
    true_sig = np.concatenate([true_svd[1], [0.0]])[:k]
    flat = table.ravel()
    counts = np.stack(
        [np.random.default_rng(derive_seed(seed, ni, t)).multinomial(n, flat) for t in range(trials)]
    ).reshape(trials, *table.shape)
    quasi = (np.transpose(counts / n, (0, 2, 1)) - outer) / np.sqrt(outer)
    if experiment == "feature":
        vt = np.linalg.svd(quasi)[2][:, :k, :]  # top-k right vectors, one row each
        captured = np.sum(np.einsum("yx,tkx->tky", b, vt) ** 2, axis=(1, 2))
        return float(np.sum(true_svd[1][:k] ** 2)) - captured
    sig = np.linalg.svd(quasi, compute_uv=False)[:, :k]
    if experiment == "sigma":
        return np.abs(sig - true_sig).sum(axis=1)
    return np.abs(0.5 * np.sum(sig**2, axis=1) - 0.5 * float(np.sum(true_sig**2)))


def check_tail(payload: dict, table, experiment: str, k: int, n_grid, delta_grid, trials: int, seed: int, derive_seed) -> str | None:
    """``sample-complexity`` report: every exceed_count against a numpy replay."""
    cells = payload["cells"]
    if payload["trials"] != trials or len(cells) != len(n_grid) * len(delta_grid):
        return "report shape does not match the grid"
    pos = 0
    for ni, n in enumerate(n_grid):
        stats = tail_statistics(table, experiment, k, n, ni, trials, seed, derive_seed)
        for delta in delta_grid:
            cell = cells[pos]
            pos += 1
            lo = int(np.sum(stats >= delta + TIE_BAND))
            hi = int(np.sum(stats >= delta - TIE_BAND))
            if cell["n"] != n or cell["delta"] != delta:
                return "cells out of grid order"
            if not lo <= cell["exceed_count"] <= hi:
                return f"n={n} delta={delta}: exceed_count {cell['exceed_count']}, numpy gives {lo}..{hi}"
            if abs(cell["frequency"] - cell["exceed_count"] / trials) > 1e-15:
                return "frequency is not exceed_count / trials"
    return None


def check_scalar(value: float, table: np.ndarray, query: str, k: int) -> str | None:
    """Library scalars of the recommend-sweep workload against the numpy spectrum."""
    s = spectrum(table)[0][: min(table.shape) - 1]
    ref = {
        "maximal_correlation": float(s[:k].sum()),
        "local_mi": 0.5 * float(np.sum(s[:k] ** 2)),
        "eps_common_information": float(s.sum()),
        "softmax_divergence_gap": 0.5 * float(np.sum(s[k:] ** 2)),
    }[query]
    return None if abs(value - ref) <= SIGMA_TOL else f"{query} off by {abs(value - ref):.3g}"
