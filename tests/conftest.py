"""Shared builders for the test suite.

Closed forms, exhaustive enumeration and the one-sided Jacobi SVD in
``jacobi.py`` serve as independent oracles; the package's own SVD (LAPACK,
through ``numpy.linalg``) is the implementation under test.
"""

import numpy as np
import pytest

from modalkit import JointPmf, Pmf, alphabet, random_orthonormal_features, synth_weak_joint


def bss(rho: float, x_symbols=("0", "1"), y_symbols=("0", "1")) -> JointPmf:
    """Binary symmetric pair: uniform X, Y agreeing with probability (1+rho)/2."""
    p = np.array(
        [[(1 + rho) / 4, (1 - rho) / 4], [(1 - rho) / 4, (1 + rho) / 4]]
    )
    return JointPmf(alphabet(x_symbols), alphabet(y_symbols), p)


def random_joint(rng: np.random.Generator, nx: int, ny: int, conc: float = 3.0) -> JointPmf:
    """Strictly positive random joint table (Dirichlet cells)."""
    table = rng.dirichlet(np.full(nx * ny, conc)).reshape(nx, ny)
    table = np.maximum(table, 1e-9)
    table /= table.sum()
    return JointPmf(
        alphabet(f"x{i}" for i in range(nx)),
        alphabet(f"y{j}" for j in range(ny)),
        table,
    )


def random_pmf(rng: np.random.Generator, n: int, conc: float = 6.0) -> Pmf:
    p = rng.dirichlet(np.full(n, conc))
    p = np.maximum(p, 1e-6)
    return Pmf(alphabet(f"z{i}" for i in range(n)), p / p.sum())


def planted_joint(rng: np.random.Generator, nx: int, ny: int, rank: int) -> JointPmf:
    """Weakly dependent joint with exactly `rank` nonzero modes.

    Built by ``synth_weak_joint``; sigmas are scaled so that every truncation
    order of the expansion stays nonnegative.
    """
    pmfs = []
    for n, tag in ((nx, "x"), (ny, "y")):
        p = rng.dirichlet(np.full(n, 8.0)) + 0.2 / n
        pmfs.append(Pmf(alphabet(f"{tag}{i}" for i in range(n)), p / p.sum()))
    px, py = pmfs
    f = random_orthonormal_features(px, rank, rng)
    g = random_orthonormal_features(py, rank, rng)
    shape = np.sort(rng.uniform(0.2, 1.0, rank))[::-1]
    worst = float(np.sum(shape * np.abs(f).max(axis=0) * np.abs(g).max(axis=0)))
    return synth_weak_joint(px, py, list(f.T), list(g.T), shape * (0.9 / worst))


def projector(cols: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(cols)
    return q @ q.T


class CallCount:
    """Counts the calls to ``owner.name`` for one test (patched through
    ``monkeypatch``, so every caller that looks the name up is counted)."""

    def __init__(self, monkeypatch, owner, name: str):
        self.n = 0
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            self.n += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)


def assert_code(excinfo, code: str) -> None:
    assert excinfo.value.code == code, f"expected {code}, got {excinfo.value.code}"


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
