"""Divergence transfer matrix, canonical dependence matrix, and the modal
decomposition of a joint distribution.

The DTM of a joint P is the |Y| x |X| matrix B(y, x) = P(x, y) / sqrt(P_X(x)
P_Y(y)); it represents the conditional-expectation operator, has unit
spectral norm, and its top singular pair is (sqrt(P_Y), sqrt(P_X)).  The CDM
removes that trivial mode:

    Btilde(y, x) = (P(x, y) - P_X(x) P_Y(y)) / sqrt(P_X(x) P_Y(y)).

Writing the CDM's SVD as sum_i sigma_i psiY_i psiX_i^T and rescaling the
singular vectors by the square-root marginals yields feature families
f_i(x) = psiX_i(x)/sqrt(P_X(x)), g_i(y) = psiY_i(y)/sqrt(P_Y(y)) that are
zero-mean, unit-variance, uncorrelated, and expand the joint exactly:

    P(x, y) = P_X(x) P_Y(y) [1 + sum_i sigma_i f_i(x) g_i(y)].

The sigma_i are the successive HGR maximal correlations; truncating the sum
gives the best low-order approximation with the original marginals.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from . import linalg
from .errors import DataError, NumericalError, check_k
from .probability import Alphabet, JointPmf, Pmf, _freeze


@dataclass(frozen=True)
class Dtm:
    """Divergence transfer matrix; ``b[j, i]`` pairs y_j with x_i."""

    b: np.ndarray
    x_alphabet: Alphabet
    y_alphabet: Alphabet
    sqrt_px: np.ndarray
    sqrt_py: np.ndarray

    def __post_init__(self):
        for name in ("b", "sqrt_px", "sqrt_py"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))


@dataclass(frozen=True)
class Cdm:
    """Canonical dependence matrix: the DTM with the trivial mode removed."""

    btilde: np.ndarray
    x_alphabet: Alphabet
    y_alphabet: Alphabet
    px: np.ndarray
    py: np.ndarray

    def __post_init__(self):
        for name in ("btilde", "px", "py"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))


@dataclass(frozen=True)
class ModalDecomposition:
    """Dominant modes of a joint: singular values plus feature tables.

    ``f_features[i, m]`` is f_{m+1}(x_i) and ``g_features[j, m]`` is
    g_{m+1}(y_j); the trivial index-0 mode is never stored.  ``order`` is the
    number of stored modes (at most ``K - 1`` with K = min(|X|, |Y|)); ops
    needing the full expansion should decompose with k = K - 1.
    """

    sigmas: np.ndarray
    f_features: np.ndarray
    g_features: np.ndarray
    px: Pmf
    py: Pmf

    def __post_init__(self):
        for name in ("sigmas", "f_features", "g_features"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
        sig, f, g = self.sigmas, self.f_features, self.g_features
        k = sig.size
        if f.shape != (len(self.px.alphabet), k) or g.shape != (len(self.py.alphabet), k):
            raise DataError("SHAPE_MISMATCH", "feature tables do not match alphabets/order")
        wx, wy = self.px.probs, self.py.probs
        if k:
            if np.max(np.abs(wx @ f)) > 1e-9 or np.max(np.abs(wy @ g)) > 1e-9:
                raise NumericalError("BAD_DECOMPOSITION", "features are not zero-mean")
            gram_f = (f * wx[:, None]).T @ f
            gram_g = (g * wy[:, None]).T @ g
            if np.max(np.abs(gram_f - np.eye(k))) > 1e-8 or np.max(np.abs(gram_g - np.eye(k))) > 1e-8:
                raise NumericalError("BAD_DECOMPOSITION", "features are not orthonormal")

    @property
    def order(self) -> int:
        return int(np.asarray(self.sigmas).size)

    @property
    def K(self) -> int:
        return min(len(self.px.alphabet), len(self.py.alphabet))

    def to_json_dict(self) -> dict:
        return {
            "sigmas": [float(s) for s in self.sigmas],
            "f": {sym: [float(v) for v in self.f_features[i]] for i, sym in enumerate(self.px.alphabet)},
            "g": {sym: [float(v) for v in self.g_features[j]] for j, sym in enumerate(self.py.alphabet)},
            "marginals": {
                "x": {sym: float(p) for sym, p in zip(self.px.alphabet, self.px.probs)},
                "y": {sym: float(p) for sym, p in zip(self.py.alphabet, self.py.probs)},
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


@dataclass(frozen=True)
class TruncatedJoint:
    """Order-k truncation of the modal expansion, as a joint table."""

    k: int
    probs: np.ndarray
    px: Pmf
    py: Pmf

    def __post_init__(self):
        object.__setattr__(self, "probs", _freeze(self.probs))


# ---------------------------------------------------------------------------
# construction of the matrices


def build_dtm(joint: JointPmf) -> Dtm:
    """DTM of a joint; rows/columns for zero-probability symbols are zero."""
    px = joint.x_marginal.probs
    py = joint.y_marginal.probs
    sx = np.sqrt(px)
    sy = np.sqrt(py)
    with np.errstate(divide="ignore", invalid="ignore"):
        b = np.where((px[None, :] > 0) & (py[:, None] > 0), joint.probs.T / (sx[None, :] * sy[:, None]), 0.0)
    return Dtm(b, joint.x_alphabet, joint.y_alphabet, sx, sy)


def dtm_to_joint(dtm: Dtm) -> JointPmf:
    """Invert a DTM back to a joint distribution.

    The marginals are the squared entries of a strictly positive singular
    pair at the unit mode (Perron vectors); then P(x, y) = B(y, x)
    sqrt(P_X(x)) sqrt(P_Y(y)).  The pair is found by power iteration from
    the all-ones direction, which also resolves degenerate unit modes (for
    those the inversion is non-unique and this picks the canonical
    uniform-leaning representative, e.g. the identity matrix inverts to the
    uniform diagonal joint).
    """
    b = linalg.as_matrix(dtm.b)
    if np.any(b < -1e-12):
        raise NumericalError("NOT_A_DTM", "a DTM cannot have negative entries")
    psi_x = np.full(b.shape[1], 1.0 / math.sqrt(b.shape[1]))
    for _ in range(10_000):
        nxt = b.T @ (b @ psi_x)
        norm = float(np.sqrt(nxt @ nxt))
        if norm == 0.0:
            raise NumericalError("NOT_A_DTM", "matrix annihilates the positive cone")
        nxt /= norm
        if float(np.max(np.abs(nxt - psi_x))) <= 1e-15:
            psi_x = nxt
            break
        psi_x = nxt
    top_sigma = float(np.sqrt(psi_x @ (b.T @ (b @ psi_x))))
    if abs(top_sigma - 1.0) > 1e-6:
        raise NumericalError("NOT_A_DTM", f"spectral norm {top_sigma!r} is not 1 within 1e-6")
    psi_y = b @ psi_x
    psi_y /= float(np.sqrt(psi_y @ psi_y))
    if np.any(psi_x <= 0) or np.any(psi_y <= 0):
        raise NumericalError("NOT_A_DTM", "no strictly positive singular pair at the unit mode")
    table = (b * psi_x[None, :] * psi_y[:, None]).T
    return JointPmf(dtm.x_alphabet, dtm.y_alphabet, table / table.sum())


def cdm_matrix(table: np.ndarray, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """(P^T - P_Y P_X^T) / sqrt(P_Y P_X^T) for an |X| x |Y| table P and positive marginals:
    the CDM with P's own marginals, the quasi-CDM with the true ones of an empirical P.
    A ``(..., |X|, |Y|)`` stack of tables gives the stack of their matrices."""
    denom = np.sqrt(px[None, :] * py[:, None])
    return (table.swapaxes(-1, -2) - px[None, :] * py[:, None]) / denom


def build_cdm(joint: JointPmf) -> Cdm:
    """CDM of a joint with strictly positive marginals."""
    if not joint.strictly_positive_marginals:
        raise DataError("ZERO_MARGINAL", "CDM needs strictly positive marginals")
    px = joint.x_marginal.probs
    py = joint.y_marginal.probs
    return Cdm(cdm_matrix(joint.probs, px, py), joint.x_alphabet, joint.y_alphabet, px, py)


def build_quasi_cdm(empirical: JointPmf, true_marginals: tuple[Pmf, Pmf]) -> Cdm:
    """CDM-like matrix pairing an empirical table with the true marginals.

    Because the empirical marginals generally differ from the true ones, the
    zero-mode constraints of a genuine CDM need not hold; its singular values
    are what the sample-complexity experiments track.
    """
    px_pmf, py_pmf = true_marginals
    if not (px_pmf.strictly_positive and py_pmf.strictly_positive):
        raise DataError("ZERO_MARGINAL", "true marginals must be strictly positive")
    if px_pmf.alphabet != empirical.x_alphabet or py_pmf.alphabet != empirical.y_alphabet:
        raise DataError("SHAPE_MISMATCH", "marginal alphabets do not match the empirical table")
    px, py = px_pmf.probs, py_pmf.probs
    return Cdm(cdm_matrix(empirical.probs, px, py), empirical.x_alphabet, empirical.y_alphabet, px, py)


# ---------------------------------------------------------------------------
# the decomposition itself


_ZERO_SIGMA_TOL = 1e-12


def _zero_mode_directions(taken: np.ndarray, root: np.ndarray, need: int) -> np.ndarray:
    """Orthonormal directions orthogonal to both `taken` columns and `root`.

    Singular vectors at sigma = 0 are an arbitrary basis of the null space,
    which contains the trivial sqrt-marginal direction; feature vectors must
    avoid it.  Candidates are the canonical basis vectors in order, so the
    basis depends only on the nonzero modes and the marginal, never on the
    solver.  Each direction follows the sign rule on its own.
    """
    n = root.shape[0]
    basis = np.column_stack([taken, root]) if taken.size else root[:, None]
    out = []
    for cand in np.eye(n):
        v = cand - basis @ (basis.T @ cand)
        v = v - basis @ (basis.T @ v)
        norm = float(np.sqrt(v @ v))
        if norm < 1e-6:
            continue
        v /= norm
        v *= linalg.lead_signs(v[:, None])
        out.append(v)
        basis = np.column_stack([basis, v])
        if len(out) == need:
            return np.column_stack(out)
    raise NumericalError("BAD_DECOMPOSITION", "could not complete the zero-mode feature basis")


def finish_modes(
    sigmas: np.ndarray, psi_x: np.ndarray, psi_y: np.ndarray, px: Pmf, py: Pmf
) -> ModalDecomposition:
    """Modal decomposition from k signed singular triplets in psi space.

    Column i of ``psi_x`` is sqrt(P_X) f_i and of ``psi_y`` sqrt(P_Y) g_i.
    Each psi_x column takes the sign rule, its psi_y partner flipping with
    it.  Sigmas at or below the zero floor become exact zeros and their
    columns are replaced by a zero-mode basis that avoids the trivial
    direction; then the columns are divided by the square-root marginals.
    The oracle and ACE both end here, so they share all three conventions.
    """
    k = sigmas.size
    rank = int(np.sum(sigmas > _ZERO_SIGMA_TOL))
    sig = np.array(sigmas, dtype=float)
    sig[rank:] = 0.0
    root_x, root_y = np.sqrt(px.probs), np.sqrt(py.probs)
    signs = linalg.lead_signs(psi_x)
    psi_x, psi_y = psi_x * signs, psi_y * signs
    if rank < k:
        psi_x[:, rank:] = _zero_mode_directions(psi_x[:, :rank], root_x, k - rank)
        psi_y[:, rank:] = _zero_mode_directions(psi_y[:, :rank], root_y, k - rank)
    return ModalDecomposition(sig, psi_x / root_x[:, None], psi_y / root_y[:, None], px, py)


def decompose(joint: JointPmf, k: int) -> ModalDecomposition:
    """Top-k modes of the joint's modal expansion, from the SVD of its CDM.

    Requires strictly positive marginals and 1 <= k <= K - 1.  This is the
    oracle route; :func:`modalkit.ace.ace_discrete` computes the same modes
    iteratively and must agree with it.
    """
    kmax = min(len(joint.x_alphabet), len(joint.y_alphabet)) - 1
    check_k(k, 1, kmax)
    if not joint.strictly_positive_marginals:
        raise DataError("ZERO_MARGINAL", "modal decomposition needs strictly positive marginals")
    cdm = build_cdm(joint)
    svd = linalg.svd_oracle(cdm.btilde)
    return finish_modes(
        svd.sigmas[:k], svd.v[:, :k], svd.u[:, :k],
        Pmf(cdm.x_alphabet, cdm.px), Pmf(cdm.y_alphabet, cdm.py),
    )


def maximal_correlation(joint: JointPmf, k: int) -> float:
    """HGR maximal correlation of order k: the Ky Fan k-norm of the CDM."""
    kmax = min(len(joint.x_alphabet), len(joint.y_alphabet)) - 1
    check_k(k, 1, kmax)
    return linalg.ky_fan(build_cdm(joint).btilde, k)


def _expansion_core(md: ModalDecomposition, k: int) -> np.ndarray:
    """sum_{i<=k} sigma_i f_i(x) g_i(y) as an |X| x |Y| table (zeros at k = 0)."""
    return (md.f_features[:, :k] * md.sigmas[:k][None, :]) @ md.g_features[:, :k].T


def truncated_table(md: ModalDecomposition, k: int) -> np.ndarray:
    """Unclamped order-k expansion P_X P_Y (1 + sum_{i<=k} sigma_i f_i g_i)."""
    return md.px.probs[:, None] * md.py.probs[None, :] * (1.0 + _expansion_core(md, k))


def _clamp_small_negatives(table: np.ndarray, what: str) -> np.ndarray:
    # The expansion is only guaranteed nonnegative for weak enough dependence;
    # round-off-scale negativity is clamped, anything worse is an error.
    low = table.min()
    if low < -1e-6:
        raise NumericalError(
            "NEGATIVE_CELL", f"{what} has entry {low!r}; dependence too strong for this order"
        )
    if low < 0:
        table = np.clip(table, 0.0, None)
    return table


def reconstruct_truncated(md: ModalDecomposition, k: int) -> TruncatedJoint:
    """Order-k truncation P_X P_Y (1 + sum_{i<=k} sigma_i f_i g_i).

    k = 0 gives the product of the marginals; k equal to the full order
    reproduces the source joint exactly.  Marginals are preserved at every k.
    """
    check_k(k, 0, md.order)
    table = _clamp_small_negatives(truncated_table(md, k), f"order-{k} truncation")
    return TruncatedJoint(k, table / table.sum(), md.px, md.py)


def posterior_truncated(
    md: ModalDecomposition, k: int, direction: Literal["y|x", "x|y"]
) -> np.ndarray:
    """Rank-k posterior table.

    For ``"y|x"`` returns rows P^(k)(y | x) = P_Y(y)(1 + sum sigma_i f_i(x)
    g_i(y)) indexed [x, y]; for ``"x|y"`` rows P^(k)(x | y) indexed [y, x].
    Each row sums to 1.
    """
    check_k(k, 0, md.order)
    core = _expansion_core(md, k)
    if direction == "y|x":
        table = md.py.probs[None, :] * (1.0 + core)
    elif direction == "x|y":
        table = (md.px.probs[:, None] * (1.0 + core)).T
    else:
        raise DataError("SHAPE_MISMATCH", f"unknown direction {direction!r}")
    table = _clamp_small_negatives(table, f"order-{k} posterior")
    return table / table.sum(axis=1, keepdims=True)


def local_mi(md: ModalDecomposition, k: int | None = None) -> float:
    """Weak-dependence mutual-information approximation (1/2) sum sigma_i^2."""
    if k is None:
        k = md.order
    check_k(k, 0, md.order)
    return 0.5 * float(np.sum(np.asarray(md.sigmas[:k]) ** 2))
