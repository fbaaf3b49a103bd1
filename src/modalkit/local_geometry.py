"""Local information geometry around a reference distribution.

A distribution P near a strictly positive reference P0 is coordinatized by
its information vector

    phi(z) = (P(z) - P0(z)) / (eps * sqrt(P0(z))),

in which KL divergence between neighborhood members is half a squared
Euclidean distance up to o(eps^2) and dominant decision-making exponents are
squared inner products with normalized feature vectors.  The module also
provides the weak-dependence constructors used everywhere in the tests: a
joint synthesized from prescribed modes, and the binary latent-attribute
configurations whose pairwise laws expose the modal spectrum.

eps is always an explicit parameter; neighborhood membership is asserted,
never silently clamped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DataError, check_k
from .modal import ModalDecomposition, truncated_table
from .probability import JointPmf, Pmf, _freeze, kl_divergence


@dataclass(frozen=True)
class InformationVector:
    """Coordinates of a distribution relative to (reference, eps)."""

    reference: Pmf
    eps: float
    phi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "phi", _freeze(self.phi))
        if self.eps <= 0:
            raise DataError("SHAPE_MISMATCH", "eps must be positive")
        if self.phi.shape != self.reference.probs.shape:
            raise DataError("SHAPE_MISMATCH", "phi does not match the reference alphabet")
        if abs(float(np.sqrt(self.reference.probs) @ self.phi)) > 1e-10:
            raise DataError("SHAPE_MISMATCH", "phi is not orthogonal to sqrt(reference)")

    @property
    def norm(self) -> float:
        return float(np.sqrt(self.phi @ self.phi))


def info_vector(p: Pmf, ref: Pmf, eps: float) -> InformationVector:
    """Information vector of p relative to a strictly positive reference."""
    if p.alphabet != ref.alphabet:
        raise DataError("SHAPE_MISMATCH", "p and reference live on different alphabets")
    if not ref.strictly_positive:
        raise DataError("ZERO_REFERENCE", "reference must be strictly positive")
    if eps <= 0:
        raise DataError("SHAPE_MISMATCH", "eps must be positive")
    phi = (p.probs - ref.probs) / (eps * np.sqrt(ref.probs))
    return InformationVector(ref, eps, phi)


def dist_from_feature(h, ref: Pmf, eps: float) -> Pmf:
    """Distribution P = ref * (1 + eps * h) for a zero-mean feature h."""
    h = np.asarray(h, dtype=float)
    if h.shape != ref.probs.shape:
        raise DataError("SHAPE_MISMATCH", "feature does not match the reference alphabet")
    if not ref.strictly_positive:
        raise DataError("ZERO_REFERENCE", "reference must be strictly positive")
    if abs(float(ref.probs @ h)) > 1e-10:
        raise DataError("NOT_NORMALIZED", "feature must have zero mean under the reference")
    probs = ref.probs * (1.0 + eps * h)
    if np.any(probs < 0):
        raise DataError("EPS_TOO_LARGE", "eps pushes a cell below zero")
    return Pmf(ref.alphabet, probs / probs.sum())


class LocalKl(NamedTuple):
    exact_kl: float
    local_approx: float


def local_kl(p1: Pmf, p2: Pmf, ref: Pmf, eps: float) -> LocalKl:
    """Exact KL(p1 || p2) next to its local quadratic (eps^2/2)||phi1-phi2||^2."""
    phi1 = info_vector(p1, ref, eps)
    phi2 = info_vector(p2, ref, eps)
    diff = phi1.phi - phi2.phi
    return LocalKl(kl_divergence(p1, p2), 0.5 * eps * eps * float(diff @ diff))


class ErrorExponent(NamedTuple):
    exponent: float
    efficiency: float


def error_exponent(
    features: Sequence[np.ndarray] | np.ndarray,
    phi1: InformationVector,
    phi2: InformationVector,
    eps: float,
) -> ErrorExponent:
    """Chernoff exponent of a k-feature test between two nearby hypotheses.

    ``features`` holds zero-mean, unit-variance, uncorrelated functions under
    the common reference.  The exponent is (eps^2/8) sum_l <phi1-phi2,
    xi_l>^2 with xi_l the weighted feature vectors; the efficiency divides by
    ||phi1-phi2||^2 and equals 1 exactly when the span contains the
    log-likelihood-ratio direction.
    """
    if phi1.reference != phi2.reference:
        raise DataError("SHAPE_MISMATCH", "information vectors use different references")
    ref = phi1.reference
    h = np.column_stack([np.asarray(f, dtype=float) for f in features])
    if h.shape[0] != len(ref.alphabet):
        raise DataError("SHAPE_MISMATCH", "features do not match the reference alphabet")
    w = ref.probs
    if np.max(np.abs(w @ h)) > 1e-8:
        raise DataError("NOT_NORMALIZED", "features must be zero-mean under the reference")
    gram = (h * w[:, None]).T @ h
    if np.max(np.abs(gram - np.eye(h.shape[1]))) > 1e-8:
        raise DataError("NOT_NORMALIZED", "features must be unit-variance and uncorrelated")
    xi = np.sqrt(w)[:, None] * h
    diff = phi1.phi - phi2.phi
    proj = xi.T @ diff
    total = float(diff @ diff)
    exponent = (eps * eps / 8.0) * float(proj @ proj)
    efficiency = float(proj @ proj) / total if total > 0 else 0.0
    return ErrorExponent(exponent, efficiency)


# ---------------------------------------------------------------------------
# weak-dependence synthesis


def synth_weak_joint(
    px: Pmf, py: Pmf, f_list, g_list, sigmas
) -> JointPmf:
    """Joint with prescribed marginals, modes, and singular values.

    Builds P = P_X P_Y (1 + sum_i sigma_i f_i g_i) from orthonormal zero-mean
    unit-variance feature families; its modal decomposition recovers exactly
    the supplied spectrum and feature spans, which makes this the ground-truth
    generator for every spectral test.
    """
    f = np.column_stack([np.asarray(v, dtype=float) for v in f_list]) if len(f_list) else np.zeros((len(px.alphabet), 0))
    g = np.column_stack([np.asarray(v, dtype=float) for v in g_list]) if len(g_list) else np.zeros((len(py.alphabet), 0))
    sig = np.asarray(sigmas, dtype=float)
    if f.shape[1] != sig.size or g.shape[1] != sig.size:
        raise DataError("SHAPE_MISMATCH", "need one (f, g) pair per singular value")
    if np.any(np.diff(sig) > 1e-12) or np.any(sig < 0):
        raise DataError("SHAPE_MISMATCH", "sigmas must be nonnegative and descending")
    for mat, pmf in ((f, px), (g, py)):
        if mat.shape[0] != len(pmf.alphabet):
            raise DataError("SHAPE_MISMATCH", "feature length does not match alphabet")
        if mat.shape[1] == 0:
            continue
        w = pmf.probs
        if np.max(np.abs(w @ mat)) > 1e-8:
            raise DataError("NOT_ORTHONORMAL", "features must be zero-mean")
        gram = (mat * w[:, None]).T @ mat
        if np.max(np.abs(gram - np.eye(mat.shape[1]))) > 1e-8:
            raise DataError("NOT_ORTHONORMAL", "feature Gram matrix deviates from identity")
    core = (f * sig[None, :]) @ g.T if sig.size else 0.0
    table = px.probs[:, None] * py.probs[None, :] * (1.0 + core)
    if np.any(table < 0):
        raise DataError("NEGATIVE_CELL", "supplied sigmas are too large for nonnegativity")
    return JointPmf(px.alphabet, py.alphabet, table / table.sum())


def random_orthonormal_features(pmf: Pmf, k: int, rng: np.random.Generator) -> np.ndarray:
    """k zero-mean unit-variance uncorrelated features under pmf (columns).

    Gram-Schmidt of random vectors against the constant function in the
    pmf-weighted inner product.  Requires k <= |alphabet| - 1.
    """
    n = len(pmf.alphabet)
    check_k(k, 1, n - 1)
    if not pmf.strictly_positive:
        raise DataError("ZERO_REFERENCE", "need a strictly positive pmf")
    w = pmf.probs
    cols = []
    basis = [np.ones(n)]
    attempts = 0
    while len(cols) < k:
        attempts += 1
        if attempts > 50 * k:
            raise DataError("K_OUT_OF_RANGE", "could not build an orthonormal family")
        v = rng.standard_normal(n)
        for b in basis:
            v = v - (w @ (v * b)) / (w @ (b * b)) * b
        var = float(w @ (v * v))
        if var < 1e-12:
            continue
        v = v / np.sqrt(var)
        basis.append(v)
        cols.append(v)
    return np.column_stack(cols)


# ---------------------------------------------------------------------------
# binary latent attributes


@dataclass(frozen=True)
class AttributeConfig:
    """Equiprobable binary attributes riding the dominant modes.

    Coordinate i has U_i, V_i in {+1, -1} with P(X | U_i = u) = P_X (1 + eps
    u f_i(X)) and P(Y | V_i = v) = P_Y (1 + eps v g_i(Y)); mixing over either
    sign recovers the marginal exactly.
    """

    eps: float
    sigmas: np.ndarray
    cond_x: np.ndarray  # [i, sign_index, x], sign_index 0 -> +1, 1 -> -1
    cond_y: np.ndarray
    px: Pmf
    py: Pmf
    joint: JointPmf

    def __post_init__(self):
        object.__setattr__(self, "sigmas", _freeze(self.sigmas))
        object.__setattr__(self, "cond_x", _freeze(self.cond_x))
        object.__setattr__(self, "cond_y", _freeze(self.cond_y))

    @property
    def k(self) -> int:
        return int(self.sigmas.size)

    def pair_law(self, i: int, j: int) -> np.ndarray:
        """Exact induced joint law of (U_i, V_j): a 2x2 table over {+1, -1}."""
        if not (0 <= i < self.k and 0 <= j < self.k):
            raise DataError("K_OUT_OF_RANGE", f"attribute indices must lie in [0, {self.k})")
        law = np.zeros((2, 2))
        p = self.joint.probs
        px = self.px.probs
        py = self.py.probs
        for a in range(2):
            for b in range(2):
                # P(u, v) = sum_{x,y} P(x, y) P(u | x) P(v | y) with
                # P(u | x) = cond_x * 1/2 / P_X  (Bayes, equiprobable prior).
                wu = 0.5 * self.cond_x[i, a] / px
                wv = 0.5 * self.cond_y[j, b] / py
                law[a, b] = float(wu @ p @ wv)
        return law


def multiattribute_config(md: ModalDecomposition, k: int, eps: float) -> AttributeConfig:
    """Optimal binary multi-attribute configuration at scale eps.

    Exact consequences (not merely asymptotic): each conditional mixes back
    to the marginal, and the induced pair law is P(u_i, v_j) = (1 + eps^2
    sigma_i u v [i = j]) / 4, whose mutual information is eps^4 sigma_i^2 / 2
    to leading order.
    """
    check_k(k, 1, md.order)
    if eps <= 0:
        raise DataError("EPS_TOO_LARGE", "eps must be positive")
    f = md.f_features[:, :k]
    g = md.g_features[:, :k]
    if eps * float(np.max(np.abs(f))) > 1.0 or eps * float(np.max(np.abs(g))) > 1.0:
        raise DataError("EPS_TOO_LARGE", "eps * max|feature| exceeds 1; conditionals go negative")
    signs = np.array([1.0, -1.0])
    cond_x = md.px.probs[None, None, :] * (1.0 + eps * signs[None, :, None] * f.T[:, None, :])
    cond_y = md.py.probs[None, None, :] * (1.0 + eps * signs[None, :, None] * g.T[:, None, :])
    joint = JointPmf(
        md.px.alphabet,
        md.py.alphabet,
        _reconstructed_table(md),
    )
    return AttributeConfig(eps, md.sigmas[:k].copy(), cond_x, cond_y, md.px, md.py, joint)


def _reconstructed_table(md: ModalDecomposition) -> np.ndarray:
    table = np.clip(truncated_table(md, md.order), 0.0, None)
    return table / table.sum()
