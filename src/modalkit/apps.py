"""Application recipes on top of the modal decomposition: attribute-matching
recommendation and weak-dependence softmax parameterization.

Recommendation scores item y for user x by sum_{i<=k} sigma_i f_i(x) g_i(y),
the inner product of their dominant latent attributes; ranking by that score
is identical to ranking a rank-k truncation of the posterior P(x | y) (the
"match" variant), while weighting by the item marginal ranks the rank-k
P(y | x) instead.

The softmax fit returns the closed-form dominant parameters of the best
exponential-family posterior P(y | s) proportional to P_Y(y) exp(s^T g(y) +
beta(y)) for weakly dependent (S, Y):

    g(y) = Cov_S^{-1} (E[S | Y = y] - E[S]),     beta(y) = -E[S]^T g(y).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Literal

import numpy as np

from . import linalg
from .errors import DataError, NumericalError, check_k
from .modal import decompose
from .probability import JointPmf, Pmf, SamplePairs, _freeze, joint_from_samples
from .gaussian import _numeric_embedding


@dataclass(frozen=True)
class Recommendation:
    """Ranked item list for one user."""

    user: str
    items: tuple[tuple[str, float], ...]
    k_used: int
    variant: str

    def __post_init__(self):
        symbols = [s for s, _ in self.items]
        if len(set(symbols)) != len(symbols):
            raise DataError("DUPLICATE_SYMBOL", "recommended items must be distinct")
        scores = [v for _, v in self.items]
        if any(b > a + 1e-12 for a, b in zip(scores, scores[1:])):
            raise DataError("SHAPE_MISMATCH", "scores must be non-increasing")

    def to_json_dict(self) -> dict:
        return {
            "user": self.user,
            "items": [{"item": s, "score": float(v)} for s, v in self.items],
            "k": self.k_used,
            "variant": self.variant,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


Variant = Literal["match", "y-weighted"]


def recommend(
    source: JointPmf | SamplePairs,
    k: int,
    l: int,
    user: str,
    variant: Variant = "match",
) -> Recommendation:
    """Top-l items for a user from a joint table or raw selection history.

    ``match`` ranks by the attribute-match score itself (equivalently by the
    rank-k posterior of the user given the item, removing the item-popularity
    bias); ``y-weighted`` ranks by the rank-k P(y | x), which keeps it.  Ties
    break deterministically by item order in the alphabet.
    """
    joint = joint_from_samples(source) if isinstance(source, SamplePairs) else source
    if user not in joint.x_alphabet:
        raise DataError("UNKNOWN_USER", f"user {user!r} not in the user alphabet")
    ny = len(joint.y_alphabet)
    if not 1 <= l <= ny:
        raise DataError("L_TOO_LARGE", f"list size {l} not in [1, {ny}]")
    md = decompose(joint, k)
    xi = joint.x_alphabet.index(user)
    score = (md.f_features[xi] * md.sigmas) @ md.g_features.T
    if variant == "match":
        key = score
    elif variant == "y-weighted":
        key = md.py.probs * (1.0 + score)
    else:
        raise DataError("SHAPE_MISMATCH", f"unknown variant {variant!r}")
    order = sorted(range(ny), key=lambda j: (-key[j], j))[:l]
    items = tuple((joint.y_alphabet.symbols[j], float(key[j])) for j in order)
    return Recommendation(user, items, k, variant)


# ---------------------------------------------------------------------------
# softmax regression in the weak-dependence regime


@dataclass(frozen=True)
class SoftmaxParams:
    """Closed-form softmax parameters: one weight vector and bias per class.

    ``eps_hat`` reports the dependence level of the fitted pair (Frobenius
    norm of its CDM) so callers can judge whether the weak-dependence
    optimality guarantee applies.
    """

    g: np.ndarray  # [class, k]
    beta: np.ndarray  # [class]
    class_prior: Pmf
    s_values: np.ndarray  # [s-symbol, k] numeric embedding of the S alphabet
    eps_hat: float

    def __post_init__(self):
        object.__setattr__(self, "g", _freeze(self.g))
        object.__setattr__(self, "beta", _freeze(self.beta))
        object.__setattr__(self, "s_values", _freeze(self.s_values))
        w = self.class_prior.probs
        if np.max(np.abs(w @ self.g)) > 1e-8 or abs(float(w @ self.beta)) > 1e-8:
            raise NumericalError("BAD_DECOMPOSITION", "parameters violate the zero-mean gauge")

    def posterior(self, s: np.ndarray | None = None) -> np.ndarray:
        """Model posterior rows P(y | s), one row per s vector (default: the
        fitted alphabet's embeddings).  Rows sum to 1."""
        s = self.s_values if s is None else np.atleast_2d(np.asarray(s, dtype=float))
        logits = s @ self.g.T + self.beta[None, :] + np.log(self.class_prior.probs)[None, :]
        logits -= logits.max(axis=1, keepdims=True)
        table = np.exp(logits)
        return table / table.sum(axis=1, keepdims=True)


def softmax_fit(joint_sy: JointPmf, use_pseudoinverse: bool = False) -> SoftmaxParams:
    """Fit the dominant-term softmax parameters to a joint over (S, Y).

    The S alphabet must embed numerically (comma-separated floats per
    symbol).  A singular feature covariance is an error unless
    ``use_pseudoinverse`` is set, in which case the minimum-norm solution is
    returned.
    """
    from .modal import build_cdm

    s_values = _numeric_embedding(joint_sy.x_alphabet.symbols)
    ps = joint_sy.x_marginal.probs
    py = joint_sy.y_marginal.probs
    if not joint_sy.strictly_positive_marginals:
        raise DataError("ZERO_MARGINAL", "need strictly positive marginals")
    mu_s = ps @ s_values
    centered = s_values - mu_s[None, :]
    cov_s = (centered * ps[:, None]).T @ centered
    # E[S | Y = y] - E[S], one row per class.
    cond_mean = (joint_sy.probs.T @ s_values) / py[:, None] - mu_s[None, :]
    try:
        g = linalg.chol_solve(cov_s, cond_mean.T).T
    except NumericalError:
        if not use_pseudoinverse:
            raise DataError(
                "SINGULAR_COVARIANCE",
                "feature covariance is singular; pass use_pseudoinverse=True for the "
                "minimum-norm fallback",
            ) from None
        svd = linalg.svd_oracle(cov_s)
        keep = svd.sigmas > 1e-12 * max(1.0, svd.sigmas[0])
        inv = (svd.v[:, keep] / svd.sigmas[keep][None, :]) @ svd.u[:, keep].T
        g = cond_mean @ inv.T
    beta = -g @ mu_s
    eps_hat = float(np.sqrt(np.sum(build_cdm(joint_sy).btilde ** 2)))
    return SoftmaxParams(g, beta, joint_sy.y_marginal, s_values, eps_hat)


def softmax_kl_objective(joint_sy: JointPmf, params: SoftmaxParams) -> float:
    """Average KL between the true posterior P(y | s) and the model's."""
    ps = joint_sy.x_marginal.probs
    true_post = joint_sy.probs / ps[:, None]
    model_post = params.posterior()
    mask = true_post > 0
    ratio = np.zeros_like(true_post)
    ratio[mask] = true_post[mask] * np.log(true_post[mask] / model_post[mask])
    return float(ps @ ratio.sum(axis=1))


def softmax_divergence_gap(joint: JointPmf, k: int) -> float:
    """Residual divergence of the best order-k softmax model: (1/2)
    sum_{i>k} sigma_i^2.

    Valid when the dominant k feature functions separate the x symbols; a
    non-injective feature map cannot realize the bound.
    """
    kmax = min(len(joint.x_alphabet), len(joint.y_alphabet)) - 1
    check_k(k, 0, kmax)
    if kmax == 0:
        return 0.0
    md = decompose(joint, kmax)
    if k > 0:
        f = md.f_features[:, :k]
        scale = max(1.0, float(np.max(np.abs(f))))
        for i in range(f.shape[0] - 1):  # first clash in row-major (i, j) order
            same = np.flatnonzero(np.max(np.abs(f[i + 1 :] - f[i]), axis=1) <= 1e-9 * scale)
            if same.size:
                raise DataError(
                    "NOT_INJECTIVE",
                    f"feature map sends symbols {i} and {i + 1 + same[0]} to the same point",
                )
    return 0.5 * float(np.sum(md.sigmas[k:] ** 2))
