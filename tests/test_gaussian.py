"""Gaussian half: CCM/CCA, mutual and common information, PCA special case,
rank-constrained regression, attribute matching, and the DTM projection."""

import math

import numpy as np
import pytest

import modalkit as mk
from modalkit import DataError, NumericalError, linalg

from conftest import CallCount, assert_code, bss


def scalar_model(rho):
    return mk.GaussianJoint(np.eye(1), np.eye(1), np.array([[rho]]))


def random_model(rng, dx, dy, strength=0.4):
    a = rng.standard_normal((dx, dx))
    b = rng.standard_normal((dy, dy))
    return mk.GaussianJoint(
        a @ a.T + dx * np.eye(dx),
        b @ b.T + dy * np.eye(dy),
        strength * rng.standard_normal((dx, dy)),
    )


class TestGaussianJoint:
    def test_indefinite_marginal_rejected(self):
        with pytest.raises(NumericalError) as err:
            mk.GaussianJoint(np.array([[-1.0]]), np.eye(1), np.zeros((1, 1)))
        assert_code(err, "NOT_POSITIVE_DEFINITE")

    def test_invalid_cross_covariance_rejected(self):
        with pytest.raises(NumericalError) as err:
            scalar_model(1.2)
        assert_code(err, "NOT_POSITIVE_DEFINITE")

    def test_stacked_eigenvalues_are_one_plus_minus_sigma(self, rng):
        """The normalized stacked covariance has spectrum {1 +/- sigma_i, 1}."""
        g = random_model(rng, 3, 4)
        sig = mk.cca(g, 3).sigmas
        lx = np.linalg.cholesky(g.cov_x)
        ly = np.linalg.cholesky(g.cov_y)
        ccm = np.linalg.solve(ly, np.linalg.solve(lx, g.cov_xy).T)
        stacked = np.block([[np.eye(3), ccm.T], [ccm, np.eye(4)]])
        eig = np.sort(np.linalg.eigvalsh(stacked))
        want = np.sort(np.concatenate([1 - sig, np.ones(1), 1 + sig]))
        np.testing.assert_allclose(eig, want, atol=1e-8)

    def test_json_round_trip(self, rng):
        g = random_model(rng, 2, 3)
        again = mk.GaussianJoint.from_json_dict(g.to_json_dict())
        np.testing.assert_array_equal(again.cov_xy, g.cov_xy)


class TestFactorOnce:
    """A model factors its covariances and takes the CCM's SVD once, at
    construction; the derived quantities read the stored results."""

    def test_derived_quantities_take_no_factorization(self, monkeypatch):
        g = random_model(np.random.default_rng(7), 4, 3)
        svds = CallCount(monkeypatch, linalg, "svd_oracle")
        chols = CallCount(monkeypatch, linalg, "cholesky")
        mk.build_ccm(g)
        mk.cca(g, 2)
        mk.gaussian_mi(g, 1)
        mk.gaussian_common_info(g)
        mk.rank_k_regression_kl(g, 2)
        assert (svds.n, chols.n) == (0, 0)

    def test_stored_ccm_is_read_only(self):
        g = random_model(np.random.default_rng(7), 4, 3)
        with pytest.raises(ValueError):
            mk.build_ccm(g)[0, 0] = 0.0


class TestCcm:
    def test_uncorrelated_is_zero(self):
        g = mk.GaussianJoint(np.eye(2), np.eye(3), np.zeros((2, 3)))
        np.testing.assert_array_equal(mk.build_ccm(g), np.zeros((3, 2)))

    def test_scalar(self):
        np.testing.assert_allclose(mk.build_ccm(scalar_model(0.4)), [[0.4]], atol=1e-15)

    def test_additive_noise_closed_form(self):
        lx = np.diag([4.0, 1.0])
        g = mk.GaussianJoint(lx, lx + np.eye(2), lx)
        sig = mk.cca(g, 2).sigmas
        np.testing.assert_allclose(sig, [0.894427, 0.707107], atol=1e-6)


class TestCca:
    def test_scalar(self):
        dec = mk.cca(scalar_model(0.4), 1)
        assert dec.sigmas[0] == pytest.approx(0.4, abs=1e-12)
        assert abs(dec.f[0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_decoupled_pairs(self):
        g = mk.GaussianJoint(np.eye(2), np.eye(2), np.diag([0.5, 0.2]))
        dec = mk.cca(g, 2)
        np.testing.assert_allclose(dec.sigmas, [0.5, 0.2], atol=1e-12)
        np.testing.assert_allclose(np.abs(dec.f), np.eye(2), atol=1e-9)

    def test_constraints(self, rng):
        g = random_model(rng, 4, 5)
        dec = mk.cca(g, 3)
        assert np.max(np.abs(dec.f.T @ g.cov_x @ dec.f - np.eye(3))) <= 1e-8
        assert np.max(np.abs(dec.g.T @ g.cov_y @ dec.g - np.eye(3))) <= 1e-8
        cross = dec.g.T @ g.cov_xy.T @ dec.f
        np.testing.assert_allclose(cross, np.diag(dec.sigmas), atol=1e-8)

    def test_conditional_expectation_identity(self, rng):
        """G^T Cov_YX Cov_X^{-1} Cov_XY G equals diag(sigma^2)."""
        g = random_model(rng, 4, 4)
        dec = mk.cca(g, 3)
        mid = g.cov_xy.T @ np.linalg.solve(g.cov_x, g.cov_xy)
        np.testing.assert_allclose(dec.g.T @ mid @ dec.g, np.diag(dec.sigmas**2), atol=1e-8)

    def test_ky_fan_value(self, rng):
        g = random_model(rng, 3, 4)
        dec = mk.cca(g, 2)
        svals = np.linalg.svd(mk.build_ccm(g), compute_uv=False)
        assert np.sum(dec.sigmas) == pytest.approx(np.sum(svals[:2]), abs=1e-9)


class TestGaussianMi:
    def test_independent(self):
        out = mk.gaussian_mi(scalar_model(0.0))
        assert out.exact == 0.0 and out.local == 0.0

    def test_weak_scalar(self):
        out = mk.gaussian_mi(scalar_model(0.02))
        assert out.exact == pytest.approx(-0.5 * math.log(1 - 0.02**2), abs=1e-15)
        assert out.exact == pytest.approx(2.0004e-4, abs=1e-8)
        assert out.local == pytest.approx(2.0e-4, abs=1e-15)

    def test_strong_scalar_documented_gap(self):
        out = mk.gaussian_mi(scalar_model(0.9))
        assert out.exact == pytest.approx(0.830366, abs=1e-6)
        assert out.local == pytest.approx(0.405, abs=1e-12)

    def test_singular_rejected(self):
        with pytest.raises(NumericalError) as err:
            mk.gaussian_mi(scalar_model(1.0))
        assert_code(err, "SINGULAR")


class TestGaussianCommonInfo:
    def test_half_log_three(self):
        out = mk.gaussian_common_info(scalar_model(0.5))
        assert out.value == pytest.approx(0.5 * math.log(3.0), abs=1e-12)
        assert out.value == pytest.approx(0.549306, abs=1e-6)

    def test_independent_zero(self):
        assert mk.gaussian_common_info(scalar_model(0.0)).value == 0.0

    def test_weak_limit_matches_nuclear_norm(self):
        out = mk.gaussian_common_info(scalar_model(0.02))
        assert out.value == pytest.approx(0.020003, abs=1e-6)
        assert out.value / 0.02 == pytest.approx(1.0001, abs=1e-4)

    def test_value_dominates_nuclear_and_ratio_shrinks(self, rng):
        base = random_model(rng, 3, 3, strength=1.0)
        s0 = mk.cca(base, 3).sigmas[0]
        ratios = []
        for scale in (0.2, 0.05, 0.01):
            g = mk.GaussianJoint(base.cov_x, base.cov_y, base.cov_xy * (scale / s0))
            nuclear = float(np.sum(mk.cca(g, 3).sigmas))
            value = mk.gaussian_common_info(g).value
            assert value >= nuclear - 1e-12
            ratios.append(value / nuclear)
        assert ratios[0] > ratios[1] > ratios[2] >= 1.0 - 1e-12

    def test_splitting_covariances_make_markov_chain(self, rng):
        """Cov_XtildeW Cov_WYtilde must reproduce Cov_XtildeYtilde (with
        Cov_W = I), the covariance criterion for X - W - Y."""
        g = random_model(rng, 3, 4)
        out = mk.gaussian_common_info(g)
        lx = np.linalg.cholesky(g.cov_x)
        ly = np.linalg.cholesky(g.cov_y)
        left = np.linalg.solve(lx, out.cov_xw)
        right = np.linalg.solve(ly, out.cov_yw)
        ccm_t = np.linalg.solve(lx, np.linalg.solve(ly, g.cov_xy.T).T)
        np.testing.assert_allclose(left @ right.T, ccm_t, atol=1e-9)


class TestPcaCase:
    def test_two_dim_example(self):
        out = mk.pca_case(np.diag([4.0, 1.0]), 1.0)
        np.testing.assert_allclose(out.sigmas, [2 / np.sqrt(5), 1 / np.sqrt(2)], atol=1e-12)
        np.testing.assert_allclose(out.sigmas, [0.894427, 0.707107], atol=1e-6)

    def test_isotropic(self):
        out = mk.pca_case(np.eye(3), 1.0)
        np.testing.assert_allclose(out.sigmas, 1 / np.sqrt(2), atol=1e-12)

    def test_three_dim_example(self):
        out = mk.pca_case(np.diag([9.0, 4.0, 1.0]), 1.0)
        np.testing.assert_allclose(out.sigmas, [0.948683, 0.894427, 0.707107], atol=1e-6)

    def test_general_covariance(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        cov = q @ np.diag([6.0, 3.0, 1.5, 0.7]) @ q.T
        out = mk.pca_case(cov, 0.5)
        want = 1 / np.sqrt(1 + 0.5 / np.array([6.0, 3.0, 1.5, 0.7]))
        np.testing.assert_allclose(out.sigmas, want, atol=1e-9)


class TestRankKRegression:
    def test_full_rank_is_exact(self, rng):
        g = random_model(rng, 3, 3)
        reg = mk.rank_k_regression_kl(g, 3)
        np.testing.assert_allclose(reg.cross_cov, g.cov_xy.T, atol=1e-9)
        np.testing.assert_allclose(
            reg.predictor, g.cov_xy.T @ np.linalg.inv(g.cov_x), atol=1e-9
        )

    def test_decoupled_keeps_strong_coordinate(self):
        g = mk.GaussianJoint(np.eye(2), np.eye(2), np.diag([0.5, 0.2]))
        reg = mk.rank_k_regression_kl(g, 1)
        np.testing.assert_allclose(reg.cross_cov, np.diag([0.5, 0.0]), atol=1e-12)

    def test_kl_gap_matches_tail_energy(self, rng):
        """Exact Gaussian KL to the rank-k model tracks half the tail sigma
        energy within 20% in the weak regime."""
        base = random_model(rng, 3, 4, strength=1.0)
        s0 = mk.cca(base, 3).sigmas[0]
        g = mk.GaussianJoint(base.cov_x, base.cov_y, base.cov_xy * (0.05 / s0))
        sig = mk.cca(g, 3).sigmas
        for k in (1, 2):
            reg = mk.rank_k_regression_kl(g, k)
            model_k = mk.GaussianJoint(g.cov_x, g.cov_y, reg.cross_cov.T)
            gap = mk.gaussian_kl(g, model_k)
            want = 0.5 * float(np.sum(sig[k:] ** 2))
            assert 0.8 * want <= gap <= 1.2 * want

    def test_mmse_full_rank(self, rng):
        g = random_model(rng, 3, 3)
        gamma = mk.rank_k_regression_mmse(g, 3)
        np.testing.assert_allclose(gamma, g.cov_xy.T @ np.linalg.inv(g.cov_x), atol=1e-9)

    def test_predictors_coincide_for_identity_cov_y(self, rng):
        a = rng.standard_normal((3, 3))
        g = mk.GaussianJoint(a @ a.T + 3 * np.eye(3), np.eye(4), 0.4 * rng.standard_normal((3, 4)))
        kl = mk.rank_k_regression_kl(g, 2).predictor
        mmse = mk.rank_k_regression_mmse(g, 2)
        assert np.max(np.abs(kl - mmse)) <= 1e-10

    def test_predictors_differ_and_mmse_wins(self, rng):
        g = random_model(rng, 3, 4)  # cov_y far from identity
        kl = mk.rank_k_regression_kl(g, 1).predictor
        mmse = mk.rank_k_regression_mmse(g, 1)
        assert np.max(np.abs(kl - mmse)) > 1e-6
        assert mk.predictor_mse(g, mmse) < mk.predictor_mse(g, kl)

    def test_mmse_beats_random_rank_k(self, rng):
        g = random_model(rng, 3, 4)
        k = 2
        gamma = mk.rank_k_regression_mmse(g, k)
        best = mk.predictor_mse(g, gamma)
        for _ in range(500):
            cand = rng.standard_normal((4, k)) @ rng.standard_normal((k, 3))
            assert mk.predictor_mse(g, cand) >= best - 1e-9

    def test_innovation_mse_identity(self, rng):
        """For the normalized model the MMSE residual is dim_y - ||CCM||_F^2."""
        g = random_model(rng, 3, 4)
        ccm = mk.build_ccm(g)
        normalized = mk.GaussianJoint(np.eye(3), np.eye(4), ccm.T)
        mse = mk.predictor_mse(normalized, ccm)
        assert mse == pytest.approx(4 - float(np.sum(ccm**2)), abs=1e-9)


class TestAttributeMatch:
    def test_zero_input(self, rng):
        g = random_model(rng, 3, 4)
        np.testing.assert_array_equal(mk.gaussian_attribute_match(g, 2, np.zeros(3)), 0.0)

    def test_scalar_regression(self):
        g = scalar_model(0.35)
        assert mk.gaussian_attribute_match(g, 1, np.array([2.0]))[0] == pytest.approx(0.7, abs=1e-12)

    def test_pca_denoising_form(self):
        """Matching from the noisy side reproduces the classical truncated
        shrinkage Upsilon_k Lambda_k (Lambda_k + noise I)^{-1} Upsilon_k^T."""
        lams = np.array([9.0, 4.0, 1.0])
        lx = np.diag(lams)
        noise = 1.0
        # model with X = noisy image, Y = clean image
        g = mk.GaussianJoint(lx + noise * np.eye(3), lx, lx)
        for k in (1, 2, 3):
            y = mk.gaussian_attribute_match(g, k, np.array([1.0, 1.0, 1.0]))
            shrink = np.where(np.arange(3) < k, lams / (lams + noise), 0.0)
            np.testing.assert_allclose(y, shrink, atol=1e-9)


class TestDtmCcmProjection:
    def test_bss_recovers_correlation(self):
        j = bss(0.3, x_symbols=("1", "-1"), y_symbols=("1", "-1"))
        np.testing.assert_allclose(mk.dtm_ccm_projection(j), [[0.3]], atol=1e-12)

    def test_independent_numeric(self, rng):
        px = rng.dirichlet([4, 4, 4])
        py = rng.dirichlet([4, 4])
        j = mk.JointPmf(
            mk.alphabet(["-1", "0.5", "2"]), mk.alphabet(["0", "1"]), np.outer(px, py)
        )
        np.testing.assert_allclose(mk.dtm_ccm_projection(j), 0.0, atol=1e-12)

    def test_identity_on_random_numeric_joint(self, rng):
        """Both sides computed independently: the weighted embedding of the
        DTM equals the induced second-moment CCM."""
        t = rng.dirichlet(np.ones(16) * 3).reshape(4, 4)
        j = mk.JointPmf(
            mk.alphabet(["-2", "-0.5", "1", "3"]),
            mk.alphabet(["0", "1", "2.5", "4"]),
            t / t.sum(),
        )
        projected = mk.dtm_ccm_projection(j)
        xs = np.array([-2.0, -0.5, 1.0, 3.0])
        ys = np.array([0.0, 1.0, 2.5, 4.0])
        px, py = j.x_marginal.probs, j.y_marginal.probs
        xc, yc = xs - px @ xs, ys - py @ ys
        var_x = px @ xc**2
        var_y = py @ yc**2
        cov = xc @ j.probs @ yc
        assert projected[0, 0] == pytest.approx(cov / np.sqrt(var_x * var_y), abs=1e-9)

    def test_degenerate_embedding_rejected(self, rng):
        px = rng.dirichlet([4, 4])
        j = mk.JointPmf(
            mk.alphabet(["1", "1.0"]), mk.alphabet(["0", "1"]),
            np.outer(px, rng.dirichlet([4, 4])),
        )
        with pytest.raises(NumericalError) as err:
            mk.dtm_ccm_projection(j)
        assert_code(err, "SINGULAR_EMBEDDING")

    def test_non_numeric_symbol_rejected(self):
        with pytest.raises(DataError) as err:
            mk.dtm_ccm_projection(bss(0.3, x_symbols=("a", "b")))
        assert_code(err, "NON_NUMERIC_SYMBOL")


class TestGaussianKl:
    def test_zero_on_equal_models(self, rng):
        g = random_model(rng, 2, 3)
        assert mk.gaussian_kl(g, g) == pytest.approx(0.0, abs=1e-12)

    def test_scalar_closed_form(self):
        p = scalar_model(0.3)
        q = scalar_model(0.0)
        got = mk.gaussian_kl(p, q)
        want = -0.5 * math.log(1 - 0.09)  # KL to the independent model is the MI
        assert got == pytest.approx(want, abs=1e-12)
