"""Seeded input generator for the benchmark.

Every input is built from a numpy ``Generator`` seeded by
``SeedSequence([seed, family, *indices])``, so the same seed gives the same
files byte for byte, and an input does not depend on which other inputs a
workload asks for.  The generator uses numpy only; it never calls modalkit.

Input families, and why each exists:

* ``full`` - full-rank, weakly dependent joints.  Their CDM spectrum is
  planted: three leading modes in ratio 1 : 0.6 : 0.4, then a tail falling
  from 0.1 to 0.01, all scaled so that sqrt(nuclear) * max|feature| = 0.8 for
  every mode.  That keeps ``common-info`` valid (exit 0) at every size up to
  200, and the fixed gap sigma_4 / sigma_3 = 0.25 keeps the ACE iteration
  count and the Jacobi sweep count from drifting with the seed.  They stand
  for the real-data case: every mode present, the SVD doing its full work.
* ``rank`` - rank-deficient, synth-style joints: two planted modes
  (ratio 1 : 0.5) at the largest scale up to 0.1 that keeps every cell
  positive.  Asking for k = 3 modes exercises zero-mode completion.  They
  are too strongly dependent for ``common-info`` at sizes 50 and above,
  which is documented behaviour, so they feed only ``decompose``, ``ace``
  (k = 2) and ``recommend``.
* ``gauss`` - zero-mean Gaussian models for ``cca`` and ``gauss-regress``.
  Marginal covariances have eigenvalues in [0.5, 2]; the canonical
  correlations are planted as 0.9, 0.7, 0.5 and a tail falling from 0.3 to
  0.01, so the stacked covariance is positive definite by construction.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

FAMILIES = {"full": 1, "rank": 2, "gauss": 3, "plan": 4}
COMMON_INFO_MARGIN = 0.8


def rng_for(seed: int, family: str, *indices: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, FAMILIES[family], *indices]))


def marginal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Dirichlet(10) marginal with a mass floor, as ``modalkit synth`` uses."""
    raw = rng.dirichlet(np.full(n, 10.0)) + 0.2 / n
    return raw / raw.sum()


def orthonormal_perp(root: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k random orthonormal columns, all orthogonal to the unit vector ``root``."""
    block = np.column_stack([root, rng.standard_normal((root.size, k))])
    q, _ = np.linalg.qr(block)
    return q[:, 1 : k + 1]


def full_rank_shape(n: int) -> np.ndarray:
    """Spectrum shape of a ``full`` joint with n symbols per side (n - 1 modes)."""
    lead = np.array([1.0, 0.6, 0.4])[: n - 1]
    tail = np.geomspace(0.1, 0.01, n - 1 - lead.size) if n - 1 > lead.size else np.empty(0)
    return np.concatenate([lead, tail])


def _joint_from_modes(px, py, psi_x, psi_y, sigmas) -> np.ndarray:
    cdm = (psi_y * sigmas) @ psi_x.T  # [y, x]
    table = np.outer(px, py) + np.sqrt(np.outer(px, py)) * cdm.T
    return table / table.sum()


def full_joint(n: int, rng: np.random.Generator) -> np.ndarray:
    px, py = marginal(n, rng), marginal(n, rng)
    psi_x = orthonormal_perp(np.sqrt(px), n - 1, rng)
    psi_y = orthonormal_perp(np.sqrt(py), n - 1, rng)
    shape = full_rank_shape(n)
    worst = max(
        float(np.max(np.abs(psi_x / np.sqrt(px)[:, None]))),
        float(np.max(np.abs(psi_y / np.sqrt(py)[:, None]))),
    )
    # sqrt(scale * sum(shape)) * worst == COMMON_INFO_MARGIN
    scale = COMMON_INFO_MARGIN**2 / (worst**2 * float(shape.sum()))
    return _joint_from_modes(px, py, psi_x, psi_y, scale * shape)


def rank_joint(n: int, rng: np.random.Generator) -> np.ndarray:
    px, py = marginal(n, rng), marginal(n, rng)
    psi_x = orthonormal_perp(np.sqrt(px), 2, rng)
    psi_y = orthonormal_perp(np.sqrt(py), 2, rng)
    shape = np.array([1.0, 0.5])
    core = ((psi_x / np.sqrt(px)[:, None]) * shape) @ (psi_y / np.sqrt(py)[:, None]).T
    worst = float(-core.min())
    scale = 0.1 if worst * 0.1 < 0.9 else 0.9 / worst
    return _joint_from_modes(px, py, psi_x, psi_y, scale * shape)


def gauss_model(d: int, rng: np.random.Generator) -> dict:
    def cov() -> tuple[np.ndarray, np.ndarray]:
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        c = (q * rng.uniform(0.5, 2.0, d)) @ q.T
        c = 0.5 * (c + c.T)
        return c, np.linalg.cholesky(c)

    (cx, lx), (cy, ly) = cov(), cov()
    lead = np.array([0.9, 0.7, 0.5])[:d]
    rho = np.concatenate([lead, np.geomspace(0.3, 0.01, d - lead.size)]) if d > lead.size else lead
    u, _ = np.linalg.qr(rng.standard_normal((d, d)))
    v, _ = np.linalg.qr(rng.standard_normal((d, d)))
    cxy = lx @ (v * rho) @ u.T @ ly.T  # CCM = L_Y^-1 Cov_YX L_X^-T = U diag(rho) V^T
    return {"dim_x": d, "dim_y": d, "cov_x": cx.tolist(), "cov_y": cy.tolist(), "cov_xy": cxy.tolist()}


def symbols(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(n)]


def write_joint(table: np.ndarray, path: Path, fmt: str) -> None:
    xs, ys = symbols("x", table.shape[0]), symbols("y", table.shape[1])
    if fmt == "tsv":
        lines = ["# x\ty\tprob"]
        lines += [f"{x}\t{y}\t{float(table[i, j])!r}" for i, x in enumerate(xs) for j, y in enumerate(ys)]
        text = "\n".join(lines) + "\n"
    else:
        rows = [[x, y, float(table[i, j])] for i, x in enumerate(xs) for j, y in enumerate(ys)]
        text = json.dumps({"rows": rows}) + "\n"
    path.write_text(text, encoding="utf-8")


def write_gauss(model: dict, path: Path) -> None:
    path.write_text(json.dumps(model) + "\n", encoding="utf-8")


def read_joint_tsv(path: Path) -> np.ndarray:
    """Read a ``x<TAB>y<TAB>prob`` file the way the package orders it.

    Alphabets follow first appearance and a total more than 1e-12 away from
    1 is renormalized, so the table matches the package's ``JointPmf.probs``
    bit for bit (the Monte Carlo check replays draws from it).
    """
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            x, y, p = line.split("\t")
            rows.append((x, y, float(p)))
    xs = list(dict.fromkeys(r[0] for r in rows))
    ys = list(dict.fromkeys(r[1] for r in rows))
    xi = {s: i for i, s in enumerate(xs)}
    yi = {s: j for j, s in enumerate(ys)}
    table = np.zeros((len(xs), len(ys)))
    for x, y, p in rows:
        table[xi[x], yi[y]] = p
    total = table.sum()
    if abs(total - 1.0) > 1e-12:
        table = table / total
    return table
