"""Acceptance suite: one test per criterion, each printed as a pass line.

Every tolerance is pinned here exactly as stated; a test that reaches its
final print has passed all of its assertions.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
import pytest

import modalkit as mk
from modalkit import AceOptions
from modalkit import linalg
from conftest import bss, projector, random_pmf


def _passed(num: int, name: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS: {name}")


@pytest.fixture(scope="module")
def corpus():
    """100 random strictly positive joints with both sides at most 8.

    Concentration 10 keeps every truncation order nonnegative, so marginal
    preservation is checkable at every k (clamping would shift marginals).
    """
    rng = np.random.default_rng(90901)
    joints = []
    for _ in range(100):
        nx = int(rng.integers(2, 9))
        ny = int(rng.integers(2, 9))
        table = rng.dirichlet(np.full(nx * ny, 10.0)).reshape(nx, ny)
        table = np.maximum(table, 1e-8)
        table /= table.sum()
        joints.append(
            mk.JointPmf(
                mk.alphabet(f"x{i}" for i in range(nx)),
                mk.alphabet(f"y{j}" for j in range(ny)),
                table,
            )
        )
    return joints


def test_acceptance_01_modal_expansion_exactness(corpus):
    """Full-order reconstruction within 1e-10; marginals kept at every k."""
    start = time.perf_counter()
    for j in corpus:
        kmax = min(len(j.x_alphabet), len(j.y_alphabet)) - 1
        md = mk.decompose(j, kmax)
        full = mk.reconstruct_truncated(md, kmax)
        assert np.max(np.abs(full.probs - j.probs)) <= 1e-10
        for k in range(kmax + 1):
            t = mk.reconstruct_truncated(md, k)
            assert np.max(np.abs(t.probs.sum(axis=1) - j.x_marginal.probs)) <= 1e-10
            assert np.max(np.abs(t.probs.sum(axis=0) - j.y_marginal.probs)) <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s"
    _passed(1, "modal expansion exact at full order, marginals preserved")


def test_acceptance_02_dtm_spectral_facts(corpus):
    """DTM spectral norm 1 +/- 1e-9; top singular pair is the sqrt-marginals."""
    for j in corpus:
        d = mk.build_dtm(j)
        svd = linalg.svd_oracle(d.b)
        assert abs(svd.sigmas[0] - 1.0) <= 1e-9
        assert np.max(np.abs(np.abs(svd.v[:, 0]) - d.sqrt_px)) <= 1e-9
        assert np.max(np.abs(np.abs(svd.u[:, 0]) - d.sqrt_py)) <= 1e-9
    _passed(2, "DTM spectral norm and trivial singular pair")


def test_acceptance_03_ace_vs_oracle():
    """ACE matches the SVD oracle: sigmas to 1e-8, projectors to 1e-6 under
    a spectral gap; monitor non-decreasing; BSS returns sigma1 = rho."""
    rng = np.random.default_rng(777)
    opts = AceOptions(tol=1e-15, seed=5)
    for trial in range(8):
        nx, ny = int(rng.integers(4, 7)), int(rng.integers(4, 7))
        px = mk.Pmf(mk.alphabet(f"x{i}" for i in range(nx)), rng.dirichlet(np.full(nx, 8.0)))
        py = mk.Pmf(mk.alphabet(f"y{i}" for i in range(ny)), rng.dirichlet(np.full(ny, 8.0)))
        f = mk.random_orthonormal_features(px, 2, rng)
        g = mk.random_orthonormal_features(py, 2, rng)
        j = mk.synth_weak_joint(px, py, list(f.T), list(g.T), [0.21, 0.09])
        md_ace, trace = mk.ace_discrete(j, 2, opts)
        md_oracle = mk.decompose(j, 2)
        assert np.max(np.abs(md_ace.sigmas - md_oracle.sigmas)) <= 1e-8
        wf = np.sqrt(px.probs)[:, None]
        wg = np.sqrt(py.probs)[:, None]
        assert np.max(np.abs(
            projector(wf * md_ace.f_features) - projector(wf * md_oracle.f_features)
        )) <= 1e-6
        assert np.max(np.abs(
            projector(wg * md_ace.g_features) - projector(wg * md_oracle.g_features)
        )) <= 1e-6
        assert np.all(np.diff(trace.monitor)[1:] >= -1e-12)
    for rho10 in range(1, 10):
        rho = rho10 / 10
        md, _ = mk.ace_discrete(bss(rho), 1, AceOptions(tol=1e-14, seed=1))
        assert md.sigmas[0] == pytest.approx(rho, abs=1e-10)
    _passed(3, "ACE agrees with the SVD oracle; BSS sweep exact")


def test_acceptance_04_hgr_ky_fan():
    """500 admissible feature pairs never beat sum of top-k sigmas; the
    modal features attain it."""
    rng = np.random.default_rng(4242)
    j = mk.JointPmf(
        mk.alphabet(f"x{i}" for i in range(5)),
        mk.alphabet(f"y{i}" for i in range(6)),
        np.maximum(rng.dirichlet(np.full(30, 3.0)).reshape(5, 6), 1e-8),
    )
    j = mk.JointPmf(j.x_alphabet, j.y_alphabet, j.probs / j.probs.sum())
    wx, wy = j.x_marginal.probs, j.y_marginal.probs
    for k in (1, 2):
        md = mk.decompose(j, k)
        cap = float(np.sum(md.sigmas))
        for _ in range(500):
            f = rng.standard_normal((5, k))
            g = rng.standard_normal((6, k))
            f = _orthonormalize(f, wx)
            g = _orthonormalize(g, wy)
            corr = float(np.sum((f.T @ j.probs @ g).diagonal()))
            assert corr <= cap + 1e-9
        attained = float(np.trace(md.f_features.T @ j.probs @ md.g_features))
        assert attained == pytest.approx(cap, abs=1e-9)
    _passed(4, "HGR maximal correlation capped by the Ky Fan norm")


def _orthonormalize(cols, weights):
    basis = [np.ones(cols.shape[0])]
    out = []
    for c in cols.T:
        v = c.astype(float)
        for b in basis:
            v = v - (weights @ (v * b)) / (weights @ (b * b)) * b
        v /= math.sqrt(float(weights @ (v * v)))
        basis.append(v)
        out.append(v)
    return np.column_stack(out)


def test_acceptance_05_local_mi_slope():
    """|I_exact - half sigma energy| decays with log-log slope 3 +/- 0.3."""
    rng = np.random.default_rng(42)
    px = mk.Pmf(mk.alphabet(f"x{i}" for i in range(5)), rng.dirichlet(np.full(5, 8.0)))
    py = mk.Pmf(mk.alphabet(f"y{i}" for i in range(6)), rng.dirichlet(np.full(6, 8.0)))
    f = mk.random_orthonormal_features(px, 2, rng)
    g = mk.random_orthonormal_features(py, 2, rng)
    shape = np.array([1.0, 0.6])
    eps_grid = [0.1, 0.03, 0.01]
    errs = []
    for eps in eps_grid:
        j = mk.synth_weak_joint(px, py, list(f.T), list(g.T), shape * eps)
        md = mk.decompose(j, 2)
        errs.append(abs(mk.mutual_information(j) - mk.local_mi(md, 2)))
    slope = float(np.polyfit(np.log(eps_grid), np.log(errs), 1)[0])
    assert 2.7 <= slope <= 3.3, f"slope {slope}"
    _passed(5, f"local MI error slope {slope:.2f} within 3 +/- 0.3")


def test_acceptance_06_common_information():
    """Exact mixture reproduction; closed-form values for the two anchors."""
    rng = np.random.default_rng(606)
    for _ in range(10):
        px, py = random_pmf(rng, 4), random_pmf(rng, 5)
        f = mk.random_orthonormal_features(px, 2, rng)
        g = mk.random_orthonormal_features(py, 2, rng)
        j = mk.synth_weak_joint(px, py, list(f.T), list(g.T), [0.05, 0.02])
        md = mk.decompose(j, min(len(j.x_alphabet), len(j.y_alphabet)) - 1)
        cfg = mk.build_common_config(md)
        assert np.max(np.abs(cfg.mixture - j.probs)) <= 1e-12
    assert mk.eps_common_information(bss(0.3)) == pytest.approx(0.3, abs=1e-10)
    three = mk.JointPmf(mk.alphabet("abc"), mk.alphabet("def"), np.eye(3) / 3)
    assert mk.eps_common_information(three) == pytest.approx(2.0, abs=1e-10)
    _passed(6, "common-information mixture exact; anchor values correct")


def test_acceptance_07_mehler_check():
    """Discretized correlated Gaussian: top-4 dependence modes are rho^i."""
    start = time.perf_counter()
    grid = np.linspace(-6.0, 6.0, 201)
    xg, yg = np.meshgrid(grid, grid, indexing="ij")
    rho = 0.5
    dens = np.exp(-(xg**2 - 2 * rho * xg * yg + yg**2) / (2 * (1 - rho**2)))
    dens /= dens.sum()
    j = mk.JointPmf(
        mk.alphabet(f"{v:.3f}" for v in grid),
        mk.alphabet(f"{v:.3f}" for v in grid),
        dens,
    )
    sig = linalg.svd_oracle(mk.build_cdm(j).btilde).sigmas[:4]
    np.testing.assert_allclose(sig, [0.5, 0.25, 0.125, 0.0625], atol=1e-3)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 7 took {elapsed:.2f}s"
    _passed(7, "Hermite-mode spectrum of the discretized Gaussian")


def test_acceptance_08_gaussian_anchors():
    """CCA constraints, the additive-noise closed form, Gaussian common
    information, and the two rank-k predictors."""
    rng = np.random.default_rng(808)
    a = rng.standard_normal((4, 4))
    b = rng.standard_normal((5, 5))
    g = mk.GaussianJoint(
        a @ a.T + 4 * np.eye(4), b @ b.T + 4 * np.eye(5), 0.5 * rng.standard_normal((4, 5))
    )
    dec = mk.cca(g, 3)
    assert np.max(np.abs(dec.f.T @ g.cov_x @ dec.f - np.eye(3))) <= 1e-8
    assert np.max(np.abs(dec.g.T @ g.cov_y @ dec.g - np.eye(3))) <= 1e-8
    assert np.max(np.abs(dec.g.T @ g.cov_xy.T @ dec.f - np.diag(dec.sigmas))) <= 1e-8

    out = mk.pca_case(np.diag([4.0, 1.0]), 1.0)
    np.testing.assert_allclose(out.sigmas, [0.894427, 0.707107], atol=1e-6)

    ci = mk.gaussian_common_info(
        mk.GaussianJoint(np.eye(1), np.eye(1), np.array([[0.5]]))
    )
    assert ci.value == pytest.approx(0.5 * math.log(3.0), abs=1e-9)

    eye_y = mk.GaussianJoint(
        a @ a.T + 4 * np.eye(4), np.eye(5), 0.4 * rng.standard_normal((4, 5))
    )
    assert np.max(np.abs(
        mk.rank_k_regression_kl(eye_y, 2).predictor - mk.rank_k_regression_mmse(eye_y, 2)
    )) <= 1e-10
    kl_pred = mk.rank_k_regression_kl(g, 2).predictor
    mmse_pred = mk.rank_k_regression_mmse(g, 2)
    assert np.max(np.abs(kl_pred - mmse_pred)) > 1e-6
    assert mk.predictor_mse(g, mmse_pred) < mk.predictor_mse(g, kl_pred)
    _passed(8, "Gaussian CCA constraints, closed forms, and rank-k predictors")


def test_acceptance_09_collaborative_filtering_equivalence():
    """Match-variant top lists equal brute-force posterior rankings for 50
    joints x 5 users x k in {1, 2}.

    The brute force builds the rank-k posterior table from scratch
    (truncated expansion over the item marginal); it is well-defined as a
    ranking even where strong dependence drives entries negative.
    """
    rng = np.random.default_rng(909)
    for _ in range(50):
        nx, ny = 5, int(rng.integers(6, 11))
        table = np.maximum(rng.dirichlet(np.full(nx * ny, 3.0)).reshape(nx, ny), 1e-8)
        j = mk.JointPmf(
            mk.alphabet(f"u{i}" for i in range(nx)),
            mk.alphabet(f"m{i}" for i in range(ny)),
            table / table.sum(),
        )
        px, py = j.x_marginal.probs, j.y_marginal.probs
        users = list(j.x_alphabet.symbols)[:5]
        for k in (1, 2):
            md = mk.decompose(j, k)
            trunc = px[:, None] * py[None, :] * (
                1.0 + (md.f_features * md.sigmas[None, :]) @ md.g_features.T
            )
            post = trunc / py[None, :]  # [user, item] = P^(k)(user | item)
            for ui, user in enumerate(users):
                l = int(rng.integers(1, ny + 1))
                rec = mk.recommend(j, k, l, user, variant="match")
                want = sorted(range(ny), key=lambda yj: (-post[ui, yj], yj))[:l]
                got = [s for s, _ in rec.items]
                assert got == [j.y_alphabet.symbols[w] for w in want]
    _passed(9, "attribute-match ranking equals brute-force posterior ranking")


def test_acceptance_10_softmax():
    """Closed form ties the descent oracle within 1e-6; modal features give
    weights sigma_i g_i within 5 eps^2."""
    from test_apps import gd_softmax_oracle, induced_softmax_joint, kl_objective

    rng = np.random.default_rng(1010)
    eps = 0.03
    px = mk.Pmf(mk.alphabet(f"x{i}" for i in range(5)), rng.dirichlet(np.full(5, 8.0)))
    py = mk.Pmf(mk.alphabet(f"y{i}" for i in range(4)), rng.dirichlet(np.full(4, 8.0)))
    f = mk.random_orthonormal_features(px, 2, rng)
    g = mk.random_orthonormal_features(py, 2, rng)
    j = mk.synth_weak_joint(px, py, list(f.T), list(g.T), np.array([1.0, 0.5]) * eps)
    md = mk.decompose(j, 2)
    for k in (1, 2):
        jsy = induced_softmax_joint(j, md, k)
        params = mk.softmax_fit(jsy)
        g_gd, b_gd = gd_softmax_oracle(jsy, params.s_values)
        closed = kl_objective(jsy, params.s_values, params.g, params.beta)
        oracle = kl_objective(jsy, params.s_values, g_gd, b_gd)
        assert closed <= oracle + 1e-6
        target = md.g_features[:, :k] * md.sigmas[:k][None, :]
        assert np.max(np.abs(params.g - target)) <= 5 * eps * eps
    _passed(10, "softmax closed form optimal; weights match the modal modes")


def test_acceptance_11_sample_complexity_bounds():
    """Empirical exceedance never beats bound + 3 stderr on a 3x3 grid with
    2000 trials per cell, for all three tail experiments."""
    start = time.perf_counter()
    j = bss(0.3)
    reports = [
        mk.mc_sigma_tail(j, [500, 1000, 2000], [0.1, 0.2, 0.4], 1, 2000, 101),
        mk.mc_feature_quality(j, [500, 1000, 2000], [0.05, 0.1, 0.2], 1, 2000, 102),
        mk.mc_mi_error(j, [500, 1000, 2000], [0.05, 0.1, 0.2], 1, 2000, 103),
    ]
    assert reports[0].p0 == pytest.approx(0.5)
    for rep in reports:
        for c in rep.cells:
            assert c.frequency <= c.effective_bound + 3 * c.stderr, (
                rep.experiment, c.n, c.delta, c.frequency, c.effective_bound
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 11 took {elapsed:.2f}s"
    _passed(11, "all tail bounds dominate the observed exceedances")


def test_acceptance_12_dtm_inversion(corpus):
    """Inverting the DTM recovers the joint within 1e-10; scaled-down
    matrices are rejected."""
    for j in corpus[:25]:
        again = mk.dtm_to_joint(mk.build_dtm(j))
        assert np.max(np.abs(again.probs - j.probs)) <= 1e-10
    d = mk.build_dtm(bss(0.3))
    bad = mk.Dtm(0.9 * np.asarray(d.b), d.x_alphabet, d.y_alphabet, d.sqrt_px, d.sqrt_py)
    with pytest.raises(mk.NumericalError) as err:
        mk.dtm_to_joint(bad)
    assert err.value.code == "NOT_A_DTM"
    _passed(12, "DTM inversion round trip and scale rejection")
