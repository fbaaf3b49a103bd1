"""Common information of a weakly dependent pair under local constraints.

With locally constrained conditionals, the smallest I(W; X, Y) over
variables W that split X from Y (X and Y independent given W) equals the
nuclear norm of the CDM, and the optimum is achieved by a signed-mode
construction: W ranges over {+1, ..., +(K-1), -1, ..., -(K-1)} with

    P_W(w)        = sigma_|w| / (2 N),            N = sum_i sigma_i,
    P_{X|W}(x|w)  = P_X(x) (1 + sgn(w) sqrt(N) f_|w|(x)),
    P_{Y|W}(y|w)  = P_Y(y) (1 + sgn(w) sqrt(N) g_|w|(y)).

Mixing the product conditionals over W reproduces the source joint exactly -
the identity is pure algebra, not an approximation - while the neighborhood
constraints hold only when sqrt(N) max|f|, sqrt(N) max|g| stay at most 1.
Inference about W from an i.i.d. block needs only the per-mode statistic
r_i = mean f_i(x_j) + mean g_i(y_j).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError, NumericalError
from .modal import ModalDecomposition, maximal_correlation
from .probability import JointPmf, Pmf, SamplePairs, _freeze


def eps_common_information(joint: JointPmf) -> float:
    """Locally constrained common information: the CDM's nuclear norm."""
    if not joint.strictly_positive_marginals:
        raise DataError("ZERO_MARGINAL", "need strictly positive marginals")
    kmax = min(len(joint.x_alphabet), len(joint.y_alphabet)) - 1
    if kmax == 0:
        return 0.0  # single-symbol side: the CDM is identically zero
    return maximal_correlation(joint, kmax)


@dataclass(frozen=True)
class CommonInfoConfig:
    """Optimal auxiliary-variable configuration for a modal decomposition.

    ``w_alphabet`` lists signed mode labels "+1", ..., "-1", ...; ``cond_x``
    and ``cond_y`` hold one conditional row per w.
    """

    w_alphabet: tuple[str, ...]
    p_w: np.ndarray
    cond_x: np.ndarray  # [w, x]
    cond_y: np.ndarray  # [w, y]
    px: Pmf
    py: Pmf
    nuclear: float

    def __post_init__(self):
        object.__setattr__(self, "p_w", _freeze(self.p_w))
        object.__setattr__(self, "cond_x", _freeze(self.cond_x))
        object.__setattr__(self, "cond_y", _freeze(self.cond_y))
        if abs(self.p_w.sum() - 1.0) > 1e-12:
            raise DataError("SUM_NOT_ONE", "P_W must sum to 1")
        if np.any(self.cond_x < 0) or np.any(self.cond_y < 0):
            raise NumericalError("CONFIG_INVALID", "a conditional has a negative cell")

    @property
    def mixture(self) -> np.ndarray:
        """sum_w P_W(w) P_{X|W}(.|w) P_{Y|W}(.|w) as an |X| x |Y| table."""
        return np.einsum("w,wx,wy->xy", self.p_w, self.cond_x, self.cond_y)

    def information_w_xy(self) -> float:
        """Exact I(W; X, Y) of the configuration in nats."""
        joint_xy = self.mixture
        total = 0.0
        for w in range(len(self.w_alphabet)):
            pw = self.p_w[w]
            if pw == 0:
                continue
            cell = self.cond_x[w][:, None] * self.cond_y[w][None, :]
            mask = cell > 0
            total += pw * float(np.sum(cell[mask] * np.log(cell[mask] / joint_xy[mask])))
        return max(total, 0.0)

    def to_json_dict(self) -> dict:
        return {
            "w": list(self.w_alphabet),
            "p_w": [float(v) for v in self.p_w],
            "cond_x": {
                w: {s: float(p) for s, p in zip(self.px.alphabet, self.cond_x[i])}
                for i, w in enumerate(self.w_alphabet)
            },
            "cond_y": {
                w: {s: float(p) for s, p in zip(self.py.alphabet, self.cond_y[i])}
                for i, w in enumerate(self.w_alphabet)
            },
            "nuclear_norm": self.nuclear,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def build_common_config(md: ModalDecomposition) -> CommonInfoConfig:
    """Signed-mode configuration achieving the nuclear-norm optimum.

    Requires a full decomposition (all K - 1 modes).  Fails with
    CONFIG_INVALID when every mode is zero (P_W degenerates to 0/0) or when
    the dependence is strong enough that a conditional cell goes negative.
    Zero-sigma modes carry zero weight and are exempt from the negativity
    requirement since they cannot influence the mixture.
    """
    if md.order != md.K - 1:
        raise DataError(
            "K_OUT_OF_RANGE",
            f"configuration needs the full decomposition (k={md.K - 1}), got k={md.order}",
        )
    sig = md.sigmas
    nuclear = float(sig.sum())
    if nuclear <= 0:
        raise NumericalError("CONFIG_INVALID", "all modes are zero; P_W is undefined (0/0)")
    root = np.sqrt(nuclear)
    live = sig > 0
    if root * float(np.max(np.abs(md.f_features[:, live]))) > 1.0 + 1e-12 or root * float(
        np.max(np.abs(md.g_features[:, live]))
    ) > 1.0 + 1e-12:
        raise NumericalError(
            "CONFIG_INVALID", "dependence too strong: sqrt(nuclear) * max|feature| exceeds 1"
        )
    k = md.order
    labels = tuple(f"+{i}" for i in range(1, k + 1)) + tuple(f"-{i}" for i in range(1, k + 1))
    p_w = np.concatenate([sig, sig]) / (2.0 * nuclear)
    cond_x = np.empty((2 * k, len(md.px.alphabet)))
    cond_y = np.empty((2 * k, len(md.py.alphabet)))
    for i in range(k):
        bump_x = root * md.f_features[:, i]
        bump_y = root * md.g_features[:, i]
        if sig[i] == 0:  # weightless mode: park valid placeholder rows
            cond_x[i] = cond_x[k + i] = md.px.probs
            cond_y[i] = cond_y[k + i] = md.py.probs
            continue
        cond_x[i] = md.px.probs * (1.0 + bump_x)
        cond_x[k + i] = md.px.probs * (1.0 - bump_x)
        cond_y[i] = md.py.probs * (1.0 + bump_y)
        cond_y[k + i] = md.py.probs * (1.0 - bump_y)
    cond_x = np.clip(cond_x, 0.0, None)
    cond_y = np.clip(cond_y, 0.0, None)
    cond_x /= cond_x.sum(axis=1, keepdims=True)
    cond_y /= cond_y.sum(axis=1, keepdims=True)
    return CommonInfoConfig(labels, p_w, cond_x, cond_y, md.px, md.py, nuclear)


class SuffStat(NamedTuple):
    r: np.ndarray
    s: np.ndarray
    t: np.ndarray


def common_suff_stat(md: ModalDecomposition, block: SamplePairs) -> SuffStat:
    """Per-mode statistic r_i = mean_j f_i(x_j) + mean_j g_i(y_j)."""
    if len(block) == 0:
        raise DataError("EMPTY_SAMPLES", "need at least one pair")
    xi = np.array([md.px.alphabet.index(x) for x, _ in block.pairs])
    yi = np.array([md.py.alphabet.index(y) for _, y in block.pairs])
    s = md.f_features[xi].mean(axis=0)
    t = md.g_features[yi].mean(axis=0)
    return SuffStat(s + t, s, t)


class PosteriorW(NamedTuple):
    dominant: np.ndarray
    exact: np.ndarray


def posterior_w(config: CommonInfoConfig, block: SamplePairs) -> PosteriorW:
    """Posterior over W given an i.i.d. block, two ways.

    ``dominant`` evaluates the leading-order expression P_W(w) (1 + m sgn(w)
    sqrt(N) r_|w|), clamped at zero and renormalized; ``exact`` is the full
    Bayes posterior under the configuration.  The two merge as the
    dependence weakens.  An empty block returns the prior twice.
    """
    k = len(config.w_alphabet) // 2
    if len(block) == 0:
        return PosteriorW(config.p_w.copy(), config.p_w.copy())
    xi = np.array([config.px.alphabet.index(x) for x, _ in block.pairs])
    yi = np.array([config.py.alphabet.index(y) for _, y in block.pairs])
    # Dominant term needs the feature statistic; recover features from the
    # conditionals: cond_x[i] = px (1 + sqrt(N) f_i) for the "+" rows.
    root = np.sqrt(config.nuclear)
    f = (config.cond_x[:k] / config.px.probs[None, :] - 1.0) / root
    g = (config.cond_y[:k] / config.py.probs[None, :] - 1.0) / root
    m = len(block)
    r = f[:, xi].mean(axis=1) + g[:, yi].mean(axis=1)
    signed_r = np.concatenate([r, -r])
    dominant = np.clip(config.p_w * (1.0 + m * root * signed_r), 0.0, None)
    total = dominant.sum()
    if total <= 0:
        dominant = config.p_w.copy()
    else:
        dominant = dominant / total
    log_like = np.zeros(2 * k)
    with np.errstate(divide="ignore"):
        log_cx = np.log(config.cond_x)
        log_cy = np.log(config.cond_y)
    for w in range(2 * k):
        log_like[w] = float(log_cx[w, xi].sum() + log_cy[w, yi].sum())
    weights = config.p_w * np.exp(log_like - log_like.max())
    weights = np.where(np.isfinite(weights), weights, 0.0)
    exact = weights / weights.sum()
    return PosteriorW(dominant, exact)
