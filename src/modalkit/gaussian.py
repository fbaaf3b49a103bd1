"""Jointly Gaussian (second-moment) counterpart of the discrete machinery.

For zero-mean X, Y with covariances Lambda_X, Lambda_Y and cross-covariance
Lambda_XY, the canonical correlation matrix (CCM)

    B = Lambda_Y^{-1/2} Lambda_YX Lambda_X^{-1/2}

plays the role the CDM plays for finite alphabets: its singular values are
the canonical correlations, its singular vectors give the CCA feature maps,
and every quantity downstream (mutual information, common information,
rank-constrained regression, attribute matching) is a function of this SVD.
A :class:`GaussianJoint` computes the Cholesky factors of its marginal
covariances, the CCM and the CCM's SVD once, at construction (the SVD also
checks that the stacked covariance is PSD); the functions here read them.

Matrix square roots are taken as Cholesky factors throughout; that choice is
basis-relevant for the feature matrices F, G but invisible to every asserted
quantity (singular values, subspaces, predictors).  Means are fixed at zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import DataError, NumericalError, check_k
from .probability import JointPmf, _freeze

SIGMA_ONE_TOL = 1e-9


@dataclass(frozen=True)
class GaussianJoint:
    """Zero-mean jointly Gaussian model (cov_x, cov_y, cov_xy).

    Validity of the stacked covariance is checked through the CCM spectrum:
    the block matrix is PSD exactly when every canonical correlation is at
    most 1 (its eigenvalues are 1 +/- sigma_i and ones).
    """

    cov_x: np.ndarray
    cov_y: np.ndarray
    cov_xy: np.ndarray

    def __post_init__(self):
        cx = linalg.as_matrix(self.cov_x)
        cy = linalg.as_matrix(self.cov_y)
        cxy = linalg.as_matrix(self.cov_xy)
        if cx.shape[0] != cx.shape[1] or cy.shape[0] != cy.shape[1]:
            raise DataError("SHAPE_MISMATCH", "covariances must be square")
        if cxy.shape != (cx.shape[0], cy.shape[0]):
            raise DataError("SHAPE_MISMATCH", "cross-covariance shape mismatch")
        for name, value in (("cov_x", cx), ("cov_y", cy), ("cov_xy", cxy)):
            object.__setattr__(self, name, _freeze(value))
        # PD marginals (raises NOT_POSITIVE_DEFINITE) and sigma_max <= 1.
        low_x = linalg.cholesky(self.cov_x)
        low_y = linalg.cholesky(self.cov_y)
        m = linalg.solve_lower(low_y, self.cov_xy.T)  # L_Y^{-1} Lambda_YX
        ccm = linalg.solve_lower(low_x, m.T).T  # ... L_X^{-T}
        svd = linalg.svd_oracle(ccm)
        svd = linalg.SvdResult(_freeze(svd.u), _freeze(svd.sigmas), _freeze(svd.v))
        for name, value in (("_low_x", low_x), ("_low_y", low_y), ("_ccm", ccm)):
            object.__setattr__(self, name, _freeze(value))
        object.__setattr__(self, "_ccm_svd", svd)
        sig = svd.sigmas
        if sig.size and sig[0] > 1.0 + SIGMA_ONE_TOL:
            raise NumericalError(
                "NOT_POSITIVE_DEFINITE",
                f"canonical correlation {sig[0]!r} exceeds 1; stacked covariance is not PSD",
            )

    @property
    def dim_x(self) -> int:
        return self.cov_x.shape[0]

    @property
    def dim_y(self) -> int:
        return self.cov_y.shape[0]

    @cached_property
    def stacked_cov(self) -> np.ndarray:
        top = np.hstack([self.cov_x, self.cov_xy])
        bottom = np.hstack([self.cov_xy.T, self.cov_y])
        return np.vstack([top, bottom])

    def to_json_dict(self) -> dict:
        return {
            "dim_x": self.dim_x,
            "dim_y": self.dim_y,
            "cov_x": self.cov_x.tolist(),
            "cov_y": self.cov_y.tolist(),
            "cov_xy": self.cov_xy.tolist(),
        }

    @staticmethod
    def from_json_dict(data: dict) -> "GaussianJoint":
        try:
            g = GaussianJoint(
                np.asarray(data["cov_x"], dtype=float),
                np.asarray(data["cov_y"], dtype=float),
                np.asarray(data["cov_xy"], dtype=float),
            )
            for key in ("dim_x", "dim_y"):
                if key in data and int(data[key]) != getattr(g, key):
                    raise DataError("BAD_JSON", f"{key}={data[key]} does not match covariance shape")
        except KeyError as err:
            raise DataError("BAD_JSON", f"Gaussian model is missing field {err}") from None
        except (TypeError, ValueError) as err:
            raise DataError("BAD_JSON", f"Gaussian model is malformed: {err}") from None
        return g


@dataclass(frozen=True)
class CcaDecomposition:
    """CCA feature maps: S = F^T X, T = G^T Y with F^T Cov_X F = I,
    G^T Cov_Y G = I and E[T S^T] = diag(sigmas)."""

    f: np.ndarray
    g: np.ndarray
    sigmas: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "f", _freeze(self.f))
        object.__setattr__(self, "g", _freeze(self.g))
        object.__setattr__(self, "sigmas", _freeze(self.sigmas))
        if np.any(np.diff(self.sigmas) > 1e-10):
            raise NumericalError("BAD_DECOMPOSITION", "canonical correlations must descend")

    @property
    def k(self) -> int:
        return int(self.sigmas.size)


def build_ccm(gauss: GaussianJoint) -> np.ndarray:
    """Canonical correlation matrix (dim_y x dim_x), read-only."""
    return gauss._ccm


def cca(gauss: GaussianJoint, k: int) -> CcaDecomposition:
    """Top-k canonical correlation analysis via the CCM's SVD."""
    check_k(k, 1, min(gauss.dim_x, gauss.dim_y))
    svd = gauss._ccm_svd
    f = linalg.solve_upper(gauss._low_x.T, svd.v[:, :k])
    g = linalg.solve_upper(gauss._low_y.T, svd.u[:, :k])
    return CcaDecomposition(f, g, svd.sigmas[:k].copy())


class GaussianMi(NamedTuple):
    exact: float
    local: float


def gaussian_mi(gauss: GaussianJoint, k: int | None = None) -> GaussianMi:
    """Exact and weak-correlation mutual information.

    exact = -1/2 sum log(1 - sigma_i^2); local = 1/2 sum_{i<=k} sigma_i^2.
    The exact value requires sigma_max < 1.
    """
    sig = gauss._ccm_svd.sigmas
    if k is None:
        k = sig.size
    check_k(k, 0, sig.size)
    if sig.size and sig[0] >= 1.0 - 1e-12:
        raise NumericalError("SINGULAR", "a canonical correlation equals 1; MI diverges")
    exact = -0.5 * float(np.sum(np.log1p(-sig**2)))
    local = 0.5 * float(np.sum(sig[:k] ** 2))
    return GaussianMi(exact, local)


class GaussianCommonInfo(NamedTuple):
    value: float
    cov_xw: np.ndarray
    cov_yw: np.ndarray


def gaussian_common_info(gauss: GaussianJoint) -> GaussianCommonInfo:
    """Wyner common information of a Gaussian pair.

    value = 1/2 sum log((1 + sigma_i)/(1 - sigma_i)), achieved by a Gaussian
    W (identity covariance) with Cov_XW = Cov_X F* Sigma^{1/2} and
    Cov_YW = Cov_Y G* Sigma^{1/2}; then X and Y are independent given W.
    Always at least the nuclear norm of the CCM, with equality in the
    weak-correlation limit.
    """
    kk = min(gauss.dim_x, gauss.dim_y)
    dec = cca(gauss, kk)
    sig = dec.sigmas
    if sig.size and sig[0] >= 1.0 - 1e-12:
        raise NumericalError("SINGULAR", "a canonical correlation equals 1")
    value = 0.5 * float(np.sum(np.log((1.0 + sig) / (1.0 - sig))))
    root = np.sqrt(sig)[None, :]
    cov_xw = gauss.cov_x @ dec.f * root
    cov_yw = gauss.cov_y @ dec.g * root
    return GaussianCommonInfo(value, cov_xw, cov_yw)


class PcaCase(NamedTuple):
    model: GaussianJoint
    sigmas: np.ndarray
    directions: np.ndarray  # eigenvectors of cov_x, one column per mode


def pca_case(cov_x, noise_variance: float) -> PcaCase:
    """Additive white noise model Y = X + nu as a canonical-correlation fact.

    For Cov_Y = Cov_X + noise * I the canonical correlations are
    (1 + noise/lambda_i)^{-1/2} with lambda_i the eigenvalues of Cov_X, and
    the feature directions are Cov_X's eigenvectors; i.e. the optimal linear
    features reduce to principal components.  Verifies :func:`cca` against
    this closed form before returning it.
    """
    cov_x = linalg.as_matrix(cov_x)
    if noise_variance <= 0:
        raise DataError("SHAPE_MISMATCH", "noise variance must be positive")
    n = cov_x.shape[0]
    eig = linalg.svd_oracle(cov_x)  # symmetric PD: singular = eigen
    lams = eig.sigmas
    directions = eig.v
    expected = 1.0 / np.sqrt(1.0 + noise_variance / lams)
    order = np.argsort(-expected, kind="stable")
    expected = expected[order]
    directions = directions[:, order]
    model = GaussianJoint(cov_x, cov_x + noise_variance * np.eye(n), cov_x)
    got = cca(model, n)
    if np.max(np.abs(got.sigmas - expected)) > 1e-9:
        raise NumericalError("BAD_DECOMPOSITION", "CCA disagrees with the closed form")
    # Feature directions are eigenvector multiples, so spans must agree per
    # group of equal correlations (individual vectors are basis-dependent).
    start = 0
    for stop in range(1, n + 1):
        if stop < n and expected[stop] > expected[stop - 1] - 1e-9:
            continue
        gap = _projector(got.f[:, start:stop]) - _projector(directions[:, start:stop])
        if np.max(np.abs(gap)) > 1e-6:
            raise NumericalError("BAD_DECOMPOSITION", "CCA directions leave the eigenvector span")
        start = stop
    return PcaCase(model, expected, directions)


def _projector(cols: np.ndarray) -> np.ndarray:
    q, _ = linalg.thin_qr(cols)
    return q @ q.T


class RankKRegression(NamedTuple):
    cross_cov: np.ndarray  # dim_y x dim_x, rank <= k
    predictor: np.ndarray  # dim_y x dim_x


def rank_k_regression_kl(gauss: GaussianJoint, k: int) -> RankKRegression:
    """Divergence-optimal rank-k cross-covariance and its linear predictor.

    Among Gaussian models with the same marginals and cross-covariance of
    rank at most k, the one closest in KL keeps the top-k CCM modes:
    cross_cov = Cov_Y G* Sigma_k F*^T Cov_X, predictor = cross_cov Cov_X^{-1}.
    """
    dec = cca(gauss, k)  # checks k
    cross = gauss.cov_y @ (dec.g * dec.sigmas[None, :]) @ dec.f.T @ gauss.cov_x
    predictor = linalg.solve_factored(gauss._low_x, cross.T).T
    return RankKRegression(cross, predictor)


def rank_k_regression_mmse(gauss: GaussianJoint, k: int) -> np.ndarray:
    """Rank-k linear predictor minimizing E||Y - Gamma X||^2.

    Whitening X reduces the problem to a truncated SVD of
    Lambda_YX Lambda_X^{-1/2}; note the truncation differs from the
    KL-optimal one unless Cov_Y = I.
    """
    check_k(k, 1, min(gauss.dim_x, gauss.dim_y))
    low_x = gauss._low_x
    half = linalg.solve_lower(low_x, gauss.cov_xy).T  # Lambda_YX L_X^{-T}
    svd = linalg.svd_oracle(half).truncate(k)
    return linalg.solve_upper(low_x.T, svd.reconstruct().T).T  # [half]_k L_X^{-1}


def predictor_mse(gauss: GaussianJoint, gamma) -> float:
    """E||Y - Gamma X||^2 for a linear predictor, from second moments alone."""
    gamma = linalg.as_matrix(gamma)
    if gamma.shape != (gauss.dim_y, gauss.dim_x):
        raise DataError("SHAPE_MISMATCH", f"predictor must be {(gauss.dim_y, gauss.dim_x)}")
    return float(
        np.trace(gauss.cov_y)
        - 2.0 * np.trace(gamma @ gauss.cov_xy)
        + np.trace(gamma @ gauss.cov_x @ gamma.T)
    )


def gaussian_attribute_match(gauss: GaussianJoint, k: int, x) -> np.ndarray:
    """Most likely y whose dominant attributes match those of x.

    Computes y* = Cov_Y G* Sigma_k F*^T x and cross-checks it against the
    equivalent rank-k regression form cross_cov_k Cov_X^{-1} x.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (gauss.dim_x,):
        raise DataError("SHAPE_MISMATCH", f"x must have shape ({gauss.dim_x},)")
    dec = cca(gauss, k)
    y_star = gauss.cov_y @ (dec.g * dec.sigmas[None, :]) @ (dec.f.T @ x)
    reg = rank_k_regression_kl(gauss, k)
    alt = reg.predictor @ x
    if np.max(np.abs(y_star - alt)) > 1e-9 * max(1.0, float(np.max(np.abs(y_star)))):
        raise NumericalError("BAD_DECOMPOSITION", "attribute match forms disagree")
    return y_star


def gaussian_kl(p: GaussianJoint, q: GaussianJoint) -> float:
    """Exact KL divergence between two zero-mean Gaussian joints."""
    if p.dim_x != q.dim_x or p.dim_y != q.dim_y:
        raise DataError("SHAPE_MISMATCH", "models have different dimensions")
    sp = p.stacked_cov
    sq = q.stacked_cov
    d = sp.shape[0]
    low_p = linalg.cholesky(sp)
    low_q = linalg.cholesky(sq)
    logdet_p = 2.0 * float(np.sum(np.log(np.diag(low_p))))
    logdet_q = 2.0 * float(np.sum(np.log(np.diag(low_q))))
    half = linalg.solve_lower(low_q, low_p)  # L_q^{-1} L_p
    trace_term = float(np.sum(half * half))  # tr(Sigma_q^{-1} Sigma_p)
    return 0.5 * (trace_term - d + logdet_q - logdet_p)


def dtm_ccm_projection(joint: JointPmf) -> np.ndarray:
    """Project a numeric-alphabet joint's DTM onto its linear (CCM) part.

    Symbols must parse as real vectors (comma-separated floats).  After
    centering and whitening the embeddings, the matrix Pi_Y B Pi_X^T built
    from the DTM B and the sqrt-marginal-weighted embedding matrices equals
    the CCM of the induced second-moment Gaussian model; both sides are
    computed independently and compared before returning the projection.
    """
    from .modal import build_dtm  # local to avoid a cycle at import time

    xs = _numeric_embedding(joint.x_alphabet.symbols)
    ys = _numeric_embedding(joint.y_alphabet.symbols)
    px = joint.x_marginal.probs
    py = joint.y_marginal.probs
    xs = xs - px @ xs
    ys = ys - py @ ys
    cov_x = (xs * px[:, None]).T @ xs
    cov_y = (ys * py[:, None]).T @ ys
    try:
        low_x = linalg.cholesky(cov_x)
        low_y = linalg.cholesky(cov_y)
    except NumericalError:
        raise NumericalError("SINGULAR_EMBEDDING", "embedded alphabet has degenerate covariance") from None
    white_x = linalg.solve_lower(low_x, xs.T).T  # rows: whitened embedding of each symbol
    white_y = linalg.solve_lower(low_y, ys.T).T
    b = build_dtm(joint).b
    pi_x = white_x.T * np.sqrt(px)[None, :]
    pi_y = white_y.T * np.sqrt(py)[None, :]
    projected = pi_y @ b @ pi_x.T
    cov_xy = xs.T @ (joint.probs @ ys)
    ccm = build_ccm(GaussianJoint(cov_x, cov_y, cov_xy))
    if np.max(np.abs(projected - ccm)) > 1e-9:
        raise NumericalError("BAD_DECOMPOSITION", "DTM projection disagrees with the CCM")
    return projected


def _numeric_embedding(symbols) -> np.ndarray:
    rows = []
    width = None
    for sym in symbols:
        try:
            vec = [float(part) for part in str(sym).split(",")]
        except ValueError:
            raise DataError("NON_NUMERIC_SYMBOL", f"symbol {sym!r} does not parse as numbers") from None
        if width is None:
            width = len(vec)
        elif len(vec) != width:
            raise DataError("NON_NUMERIC_SYMBOL", "symbols embed with inconsistent dimensions")
        rows.append(vec)
    return np.asarray(rows, dtype=float)


def load_gaussian_json(path) -> GaussianJoint:
    from pathlib import Path

    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return GaussianJoint.from_json_dict(data)
