"""Alternating conditional expectations vs. the SVD oracle."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import modalkit as mk
from modalkit import AceOptions, DataError
from modalkit import linalg

from conftest import CallCount, assert_code, bss, planted_joint, projector, random_joint


class TestOrthogonalIteration:
    def test_diagonal(self):
        u, s, v, tr = mk.orthogonal_iteration(np.diag([3.0, 2.0, 1.0]), 2)
        np.testing.assert_allclose(s, [3.0, 2.0], atol=1e-10)
        np.testing.assert_allclose(np.abs(v), np.eye(3)[:, :2], atol=1e-6)
        assert tr.converged

    def test_rank_one_converges_fast(self, rng):
        u_vec = rng.standard_normal(5)
        v_vec = rng.standard_normal(4)
        a = np.outer(u_vec, v_vec)
        _, s, _, tr = mk.orthogonal_iteration(a, 1)
        want = np.linalg.norm(u_vec) * np.linalg.norm(v_vec)
        assert s[0] == pytest.approx(want, abs=1e-10)
        assert tr.iterations <= 3

    def test_degenerate_pair_gets_subspace_right(self, rng):
        """Equal singular values leave the individual vectors free but pin
        sigma and the spanned projector."""
        q1, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        q2, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        a = q1 @ np.diag([2.0, 2.0, 0.5, 0.1]) @ q2.T
        _, s, v, tr = mk.orthogonal_iteration(a, 2, AceOptions(tol=1e-14, seed=3))
        np.testing.assert_allclose(s, [2.0, 2.0], atol=1e-8)
        np.testing.assert_allclose(projector(v), projector(q2[:, :2]), atol=1e-6)

    def test_no_convergence_returns_best_iterate(self, rng):
        a = rng.standard_normal((5, 5))
        u, s, v, tr = mk.orthogonal_iteration(a, 2, AceOptions(max_iters=1, seed=0))
        assert not tr.converged
        assert tr.iterations == 1
        assert np.max(np.abs(v.T @ v - np.eye(2))) <= 1e-12

    def test_agrees_with_oracle(self, rng):
        a = rng.standard_normal((6, 5))
        _, s, v, _ = mk.orthogonal_iteration(a, 3, AceOptions(tol=1e-15, seed=2))
        sv = linalg.svd_oracle(a)
        np.testing.assert_allclose(s, sv.sigmas[:3], atol=1e-8)
        np.testing.assert_allclose(projector(v), projector(sv.v[:, :3]), atol=1e-6)

    def test_k_out_of_range(self):
        with pytest.raises(DataError) as err:
            mk.orthogonal_iteration(np.eye(2), 3)
        assert_code(err, "K_OUT_OF_RANGE")


class TestAceDiscrete:
    def test_bss_mode(self):
        md, tr = mk.ace_discrete(bss(0.3), 1)
        assert md.sigmas[0] == pytest.approx(0.3, abs=1e-10)
        assert abs(md.f_features[0, 0]) == pytest.approx(1.0, abs=1e-10)
        assert md.f_features[0, 0] * md.f_features[1, 0] < 0  # proportional to (1, -1)
        assert tr.converged

    def test_independent_joint(self, rng):
        px = rng.dirichlet([4, 4])
        py = rng.dirichlet([4, 4, 4])
        j = mk.JointPmf(mk.alphabet("ab"), mk.alphabet("cde"), np.outer(px, py))
        md, _ = mk.ace_discrete(j, 1)
        assert md.sigmas[0] <= 1e-8

    def test_matches_oracle_and_trace_ascends(self, rng):
        j = random_joint(rng, 4, 6)
        md, tr = mk.ace_discrete(j, 3, AceOptions(tol=1e-14, seed=5))
        oracle = mk.decompose(j, 3)
        np.testing.assert_allclose(md.sigmas, oracle.sigmas, atol=1e-8)
        diffs = np.diff(tr.monitor)
        assert np.all(diffs[1:] >= -1e-12)

    def test_step_semantics(self, rng):
        """After whitening E[f f^T] = I; after centering E[g] = 0."""
        j = random_joint(rng, 5, 5)
        _, tr = mk.ace_discrete(j, 2, AceOptions(seed=1))
        assert tr.whiten_dev <= 1e-9
        assert tr.center_dev <= 1e-12

    def test_seed_independence_of_limit(self, rng):
        j = random_joint(rng, 5, 6)
        opts = dict(tol=1e-10, max_iters=10_000)
        md1, _ = mk.ace_discrete(j, 2, AceOptions(seed=11, **opts))
        md2, _ = mk.ace_discrete(j, 2, AceOptions(seed=99, **opts))
        assert np.max(np.abs(md1.sigmas - md2.sigmas)) <= 10 * 1e-10

    def test_k_out_of_range(self, rng):
        with pytest.raises(DataError) as err:
            mk.ace_discrete(random_joint(rng, 2, 5), 2)
        assert_code(err, "K_OUT_OF_RANGE")

    def test_zero_marginal_rejected(self):
        j = mk.JointPmf(
            mk.alphabet("abc"), mk.alphabet("def"),
            np.array([[0.4, 0.1, 0.0], [0.2, 0.3, 0.0], [0.0, 0.0, 0.0]]),
        )
        with pytest.raises(DataError) as err:
            mk.ace_discrete(j, 1)
        assert_code(err, "ZERO_MARGINAL")

    def test_subspace_agreement_under_gap(self, rng):
        """Feature subspaces match the oracle's when the spectrum has a gap."""
        px = mk.Pmf(mk.alphabet("abcde"), rng.dirichlet(np.full(5, 8.0)))
        py = mk.Pmf(mk.alphabet("pqrst"), rng.dirichlet(np.full(5, 8.0)))
        f = mk.random_orthonormal_features(px, 2, rng)
        g = mk.random_orthonormal_features(py, 2, rng)
        j = mk.synth_weak_joint(px, py, list(f.T), list(g.T), [0.2, 0.08])
        md, _ = mk.ace_discrete(j, 2, AceOptions(tol=1e-15, seed=4))
        oracle = mk.decompose(j, 2)
        wf = np.sqrt(px.probs)[:, None]
        np.testing.assert_allclose(
            projector(wf * md.f_features), projector(wf * oracle.f_features), atol=1e-6
        )


    def test_order_above_rank_completes_zero_modes(self, rng):
        """k above the joint's rank: the nonzero modes match the oracle, the
        rest are exact zeros whose features still satisfy every constraint."""
        j = planted_joint(rng, 5, 6, 2)
        md, tr = mk.ace_discrete(j, 4, AceOptions(tol=1e-14, seed=3))
        oracle = mk.decompose(j, 4)
        assert tr.converged
        np.testing.assert_allclose(md.sigmas[:2], oracle.sigmas[:2], atol=1e-8)
        assert np.all(md.sigmas[2:] == 0.0)
        for feats, ref, p in (
            (md.f_features, oracle.f_features, j.x_marginal.probs),
            (md.g_features, oracle.g_features, j.y_marginal.probs),
        ):
            w = np.sqrt(p)[:, None]
            np.testing.assert_allclose(
                projector(w * feats[:, :2]), projector(w * ref[:, :2]), atol=1e-6
            )
            assert np.max(np.abs(p @ feats)) <= 1e-12  # orthogonal to sqrt(P)
            # the jittered whitening leaves the nonzero modes' Gram ~1e-11 off
            assert np.max(np.abs((feats * p[:, None]).T @ feats - np.eye(4))) <= 1e-9
        psi_x = np.sqrt(j.x_marginal.probs)[:, None] * md.f_features
        for col in psi_x.T:
            assert col[np.argmax(np.abs(col))] > 0


class TestAceGaussian:
    def test_scalar_model(self):
        g = mk.GaussianJoint(np.eye(1), np.eye(1), np.array([[0.4]]))
        dec, tr = mk.ace_gaussian(g, 1)
        assert dec.sigmas[0] == pytest.approx(0.4, abs=1e-10)
        assert abs(dec.f[0, 0]) == pytest.approx(1.0, abs=1e-10)
        assert dec.f[0, 0] * dec.g[0, 0] > 0  # positive pairing since sigma > 0
        assert tr.converged

    def test_uncorrelated_model(self, rng):
        a = rng.standard_normal((3, 3))
        g = mk.GaussianJoint(a @ a.T + 3 * np.eye(3), np.eye(2), np.zeros((3, 2)))
        dec, _ = mk.ace_gaussian(g, 2)
        np.testing.assert_allclose(dec.sigmas, 0.0, atol=1e-10)

    def test_matches_cca(self, rng):
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((5, 5))
        g = mk.GaussianJoint(
            a @ a.T + 4 * np.eye(4), b @ b.T + 4 * np.eye(5), 0.4 * rng.standard_normal((4, 5))
        )
        dec, tr = mk.ace_gaussian(g, 3, AceOptions(tol=1e-14, seed=7))
        oracle = mk.cca(g, 3)
        np.testing.assert_allclose(dec.sigmas, oracle.sigmas, atol=1e-8)
        assert np.max(np.abs(dec.f.T @ g.cov_x @ dec.f - np.eye(3))) <= 1e-8
        assert np.max(np.abs(dec.g.T @ g.cov_y @ dec.g - np.eye(3))) <= 1e-8
        # feature maps span the same statistics (spans are basis-independent)
        assert np.max(np.abs(projector(dec.f) - projector(oracle.f))) <= 1e-6
        assert np.max(np.abs(projector(dec.g) - projector(oracle.g))) <= 1e-6

    def test_only_whitening_factors(self, rng, monkeypatch):
        """The conditional expectations solve with the model's stored
        factors, so the only Cholesky calls left are the whitening steps."""
        a = rng.standard_normal((10, 10))
        g = mk.GaussianJoint(
            a @ a.T + 10 * np.eye(10), np.eye(10), 0.3 * rng.standard_normal((10, 10))
        )
        chols = CallCount(monkeypatch, linalg, "cholesky")
        whitens = CallCount(monkeypatch, mk.ace, "_whiten")
        _, tr = mk.ace_gaussian(g, 3)
        assert tr.converged and chols.n == whitens.n == 2 * tr.iterations + 1

    def test_monitor_ascends(self, rng):
        a = rng.standard_normal((3, 3))
        g = mk.GaussianJoint(
            a @ a.T + 3 * np.eye(3), np.eye(4), 0.3 * rng.standard_normal((3, 4))
        )
        _, tr = mk.ace_gaussian(g, 2, AceOptions(seed=0))
        assert np.all(np.diff(tr.monitor)[1:] >= -1e-12)


def _planted_gaussian(rng, dx: int, dy: int, k: int):
    """Gaussian model whose canonical correlations drop by at least 2x after
    the k-th (CCM = U diag(rho) V^T with the covariance factors planted)."""
    m = min(dx, dy)
    top = np.sort(rng.uniform(0.3, 0.95, k))[::-1]
    rho = np.concatenate([top, np.sort(rng.uniform(0.0, 0.5, m - k))[::-1] * top[-1]])
    covs = []
    for d in (dx, dy):
        a = rng.standard_normal((d, d))
        covs.append(a @ a.T + d * np.eye(d))
    lx, ly = np.linalg.cholesky(covs[0]), np.linalg.cholesky(covs[1])
    u, _ = np.linalg.qr(rng.standard_normal((dy, m)))
    v, _ = np.linalg.qr(rng.standard_normal((dx, m)))
    return mk.GaussianJoint(covs[0], covs[1], lx @ (v * rho) @ u.T @ ly.T)


class TestAceAgreesWithOracles:
    """Both ACE forms against their SVD oracles on generated inputs whose
    spectrum has a sigma_k / sigma_{k+1} gap of at least 2."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(3, 7), st.integers(3, 7), st.integers(0, 2**32 - 1), st.data())
    def test_discrete_matches_decompose(self, nx, ny, seed, data):
        rank = data.draw(st.integers(1, min(nx, ny) - 1), label="rank")
        k = data.draw(st.integers(1, rank), label="k")
        j = planted_joint(np.random.default_rng(seed), nx, ny, rank)
        oracle = mk.decompose(j, min(nx, ny) - 1)
        assume(k == oracle.order or oracle.sigmas[k - 1] >= 2 * oracle.sigmas[k])
        md, tr = mk.ace_discrete(j, k, AceOptions(tol=1e-14, seed=seed % 1000))
        np.testing.assert_allclose(md.sigmas, oracle.sigmas[:k], atol=1e-8)
        for feats, ref, p in (
            (md.f_features, oracle.f_features, j.x_marginal.probs),
            (md.g_features, oracle.g_features, j.y_marginal.probs),
        ):
            w = np.sqrt(p)[:, None]
            np.testing.assert_allclose(projector(w * feats), projector(w * ref[:, :k]), atol=1e-6)
        assert tr.whiten_dev <= 1e-9

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1), st.data())
    def test_gaussian_matches_cca(self, dx, dy, seed, data):
        k = data.draw(st.integers(1, min(dx, dy)), label="k")
        g = _planted_gaussian(np.random.default_rng(seed), dx, dy, k)
        dec, tr = mk.ace_gaussian(g, k, AceOptions(tol=1e-14, seed=seed % 1000))
        oracle = mk.cca(g, k)
        np.testing.assert_allclose(dec.sigmas, oracle.sigmas, atol=1e-8)
        np.testing.assert_allclose(projector(dec.f), projector(oracle.f), atol=1e-6)
        np.testing.assert_allclose(projector(dec.g), projector(oracle.g), atol=1e-6)
        assert tr.whiten_dev <= 1e-9

    def test_gaussian_reports_whitening_deviation(self, rng):
        """The Gaussian loop measures its whitening like the discrete one: a
        round-off-level deviation, not a hard-wired zero."""
        g = _planted_gaussian(rng, 10, 10, 3)
        _, tr = mk.ace_gaussian(g, 3)
        assert 0.0 < tr.whiten_dev <= 1e-12


class TestAceOptions:
    def test_validation(self):
        with pytest.raises(DataError):
            AceOptions(tol=0.0)
        with pytest.raises(DataError):
            AceOptions(max_iters=0)
        with pytest.raises(DataError):
            AceOptions(jitter=-1.0)

    @pytest.mark.parametrize("field", ["tol", "jitter"])
    def test_nan_rejected(self, field):
        with pytest.raises(DataError) as err:
            AceOptions(**{field: float("nan")})
        assert_code(err, "BAD_OPTIONS")
