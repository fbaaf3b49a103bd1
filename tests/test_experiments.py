"""Monte Carlo tail-bound harness: bound formulas, seed derivation, report
structure, and the bound/exceedance comparisons at reduced trial counts
(the full-scale grids live in the acceptance suite)."""

import math

import numpy as np
import pytest

import modalkit as mk
from modalkit import DataError
from modalkit import experiments as ex

from conftest import CallCount, assert_code, bss, random_joint


class TestBoundFormulas:
    def test_sigma_bound_hand_value(self):
        """exp(1/4 - 0.25 * 0.04 * 2000 / 8) = exp(-2.25)."""
        got = ex.sigma_tail_bound(p0=0.5, delta=0.2, n=2000, k=1)
        assert got == pytest.approx(math.exp(0.25 - 2.5), rel=1e-12)
        assert got == pytest.approx(0.1054, abs=2e-4)

    def test_sigma_bound_at_admissible_max(self):
        """At delta = sqrt(k/2)/p0 the exponent collapses to 1/4 - n/16."""
        p0, k, n = 0.5, 2, 800
        delta = math.sqrt(k / 2) / p0
        got = ex.sigma_tail_bound(p0, delta, n, k)
        assert got == pytest.approx(math.exp(0.25 - n / 16), rel=1e-12)

    def test_alt_sigma_bound(self):
        got = ex.sigma_tail_bound_alt(2, 2, 0.5, 0.2, 2000, 1)
        assert got == pytest.approx(4 * math.exp(-0.5 * 0.04 * 2000 / 4), rel=1e-12)

    def test_feature_bound(self):
        got = ex.feature_tail_bound(3, 5, 0.4, 0.1, 1000, 2)
        assert got == pytest.approx(8 * math.exp(-0.4 * 0.01 * 1000 / 256), rel=1e-12)

    def test_mi_bound(self):
        got = ex.mi_tail_bound(0.5, 0.1, 4000, 1)
        assert got == pytest.approx(math.exp(0.25 - 0.5**4 * 0.01 * 4000 / 8), rel=1e-12)

    def test_mse_bound_and_precondition(self):
        assert ex.sigma_mse_bound(0.5, 1000, 1) == pytest.approx(
            (6 + 8 * math.log(1000)) / (0.25 * 1000), rel=1e-12
        )
        assert ex.mse_precondition_ok(1000, 1)
        assert not ex.mse_precondition_ok(50, 4)


class TestSeedDerivation:
    def test_deterministic(self):
        assert ex.derive_seed(7, 1, 2) == ex.derive_seed(7, 1, 2)

    def test_distinct_across_indices(self):
        seen = {ex.derive_seed(7, i, t) for i in range(4) for t in range(50)}
        assert len(seen) == 200

    def test_seed_sensitivity(self):
        assert ex.derive_seed(7, 0, 0) != ex.derive_seed(8, 0, 0)


class TestSigmaTail:
    def test_delta_out_of_range(self):
        with pytest.raises(DataError) as err:
            mk.mc_sigma_tail(bss(0.3), [100], [5.0], 1, 10, 0)
        assert_code(err, "DELTA_OUT_OF_RANGE")

    def test_report_reproducible(self):
        a = mk.mc_sigma_tail(bss(0.3), [200], [0.1], 1, 200, 9)
        b = mk.mc_sigma_tail(bss(0.3), [200], [0.1], 1, 200, 9)
        assert a.to_json_dict() == b.to_json_dict()

    def test_bounds_hold(self):
        rep = mk.mc_sigma_tail(bss(0.3), [500, 2000], [0.1, 0.2], 1, 500, 11)
        for c in rep.cells:
            assert c.frequency <= c.effective_bound + 3 * c.stderr
            assert 0 <= c.frequency <= 1
            assert c.stderr == pytest.approx(
                math.sqrt(c.frequency * (1 - c.frequency) / 500), abs=1e-12
            )

    def test_exceedance_decays_with_sample_size(self):
        """Quadrupling n drives the exceedance frequency down (trend only)."""
        rep = mk.mc_sigma_tail(bss(0.3), [250, 1000], [0.1], 1, 800, 13)
        freq = {c.n: c.frequency for c in rep.cells}
        assert freq[250] > 0  # chosen so the trend is observable
        assert freq[1000] <= freq[250]

    def test_mse_metadata_present(self):
        rep = mk.mc_sigma_tail(bss(0.3), [500], [0.2], 1, 50, 0)
        cell = rep.cells[0]
        assert cell.mse_bound == pytest.approx(ex.sigma_mse_bound(0.5, 500, 1), rel=1e-12)
        assert cell.mse_precondition_ok


class TestFeatureQuality:
    def test_delta_out_of_range(self):
        with pytest.raises(DataError) as err:
            mk.mc_feature_quality(bss(0.3), [100], [5.0], 1, 10, 0)
        assert_code(err, "DELTA_OUT_OF_RANGE")

    def test_mu2_nonnegative(self):
        """The true features capture the most local information, so the loss
        statistic can never go negative."""
        j = bss(0.3)
        marg = (j.x_marginal, j.y_marginal)
        cdm = mk.build_cdm(j).btilde
        cap = float(np.linalg.svd(cdm, compute_uv=False)[0] ** 2)
        for trial in range(100):
            rng = np.random.default_rng(ex.derive_seed(21, 0, trial))
            counts = rng.multinomial(300, j.probs.ravel()).reshape(2, 2)
            emp = mk.JointPmf(j.x_alphabet, j.y_alphabet, counts / 300)
            quasi = mk.build_quasi_cdm(emp, marg)
            psi = np.linalg.svd(quasi.btilde)[2].T[:, :1]
            mu2 = cap - float(np.sum((cdm @ psi) ** 2))
            assert mu2 >= -1e-12

    def test_large_sample_consistency(self):
        rep = mk.mc_feature_quality(bss(0.3), [1_000_000], [0.01], 1, 20, 3)
        assert rep.cells[0].frequency == 0.0

    def test_mu2prime_spectral_bound(self):
        """mu2' is controlled by 2k times the spectral estimation error."""
        j = bss(0.3)
        marg = (j.x_marginal, j.y_marginal)
        cdm = mk.build_cdm(j).btilde
        u_t, s_t, vt_t = np.linalg.svd(cdm)
        k = 1
        for trial in range(50):
            rng = np.random.default_rng(ex.derive_seed(33, 0, trial))
            counts = rng.multinomial(400, j.probs.ravel()).reshape(2, 2)
            emp = mk.JointPmf(j.x_alphabet, j.y_alphabet, counts / 400)
            quasi = mk.build_quasi_cdm(emp, marg).btilde
            u_e, s_e, vt_e = np.linalg.svd(quasi)
            mu2p = np.sqrt(
                np.sum((np.diag(s_t[:k]) - u_e[:, :k].T @ cdm @ vt_e[:k].T) ** 2)
            )
            spectral_err = np.linalg.svd(cdm - quasi, compute_uv=False)[0]
            assert mu2p <= 2 * k * spectral_err + 1e-9

    def test_bounds_hold(self):
        rep = mk.mc_feature_quality(bss(0.3), [500, 2000], [0.1, 0.3], 1, 400, 5)
        for c in rep.cells:
            assert c.frequency <= c.effective_bound + 3 * c.stderr


class TestTrialPath:
    """Each trial takes one SVD of its quasi-CDM, built straight from the
    drawn counts: no JointPmf and no Cdm per trial."""

    @pytest.mark.parametrize(
        "run",
        [
            lambda j: mk.mc_sigma_tail(j, [50, 200], [0.1], 2, 7, 3),
            lambda j: mk.mc_feature_quality(j, [50, 200], [0.1], 2, 7, 3, "mu2"),
            lambda j: mk.mc_feature_quality(j, [50, 200], [0.1], 2, 7, 3, "mu2prime"),
            lambda j: mk.mc_mi_error(j, [50, 200], [0.1], 2, 7, 3),
        ],
        ids=["sigma", "mu2", "mu2prime", "mi"],
    )
    def test_one_svd_per_trial(self, monkeypatch, run):
        j = random_joint(np.random.default_rng(4), 3, 4)
        svds = CallCount(monkeypatch, ex.linalg, "svd_oracle")
        joints = CallCount(monkeypatch, mk.JointPmf, "__post_init__")
        cdms = CallCount(monkeypatch, mk.modal.Cdm, "__post_init__")
        run(j)
        assert (svds.n, joints.n, cdms.n) == (1 + 7 * 2, 0, 1)


class TestMiError:
    def test_full_order_estimate_is_centered(self):
        """With all K-1 informative modes included the plug-in estimate is
        nearly unbiased: |mean error| stays within three standard errors.
        (Including the K-th mode, whose truth is exactly zero, would add a
        visible O(1/n) positive bias.)"""
        j = bss(0.3)
        marg = (j.x_marginal, j.y_marginal)
        true_half = 0.5 * 0.3**2
        errs = []
        n = 8000  # large enough that the O(1/n) spectral bias is sub-resolution
        for trial in range(400):
            rng = np.random.default_rng(ex.derive_seed(55, 0, trial))
            counts = rng.multinomial(n, j.probs.ravel()).reshape(2, 2)
            emp = mk.JointPmf(j.x_alphabet, j.y_alphabet, counts / n)
            sig = np.linalg.svd(mk.build_quasi_cdm(emp, marg).btilde, compute_uv=False)
            errs.append(0.5 * float(sig[0] ** 2) - true_half)
        errs = np.array(errs)
        assert abs(errs.mean()) <= 3 * errs.std() / math.sqrt(len(errs))

    def test_bound_cell_matches_hand_formula(self):
        rep = mk.mc_mi_error(bss(0.3), [1000], [0.1], 1, 50, 1)
        assert rep.cells[0].bound == pytest.approx(ex.mi_tail_bound(0.5, 0.1, 1000, 1), rel=1e-12)

    def test_bounds_hold(self):
        rep = mk.mc_mi_error(bss(0.3), [500, 2000], [0.05, 0.1], 1, 400, 17)
        for c in rep.cells:
            assert c.frequency <= c.effective_bound + 3 * c.stderr


class TestChernoffLocal:
    def test_biased_coin_limit(self):
        pmf = mk.Pmf(mk.alphabet(["heads", "tails"]), np.array([0.3, 0.7]))
        rep = mk.chernoff_local(np.array([1.0, 0.0]), pmf, [0.2], [200], 100, 0)
        assert rep.limit == pytest.approx(-3 / 7, abs=1e-12)

    def test_zero_mean_feature_rejected(self):
        pmf = mk.Pmf(mk.alphabet("ab"), np.array([0.5, 0.5]))
        with pytest.raises(DataError) as err:
            mk.chernoff_local(np.array([1.0, -1.0]), pmf, [0.1], [100], 10, 0)
        assert_code(err, "ZERO_MEAN_FEATURE")

    def test_normalized_log_probability_near_limit(self):
        """At the smallest gamma and largest n with observable exceedances the
        normalized log-frequency sits within 25% of the limit.

        The double limit (gamma to 0 after n to infinity) forces a finite
        compromise: gamma^2 n must be large enough to damp the polynomial
        prefactor yet small enough that the tail stays observable.  Exact
        binomial tails place the asymptotic normalized value at this corner
        about 22% from the limit with the event still at observable
        probability (~2e-4); the seed is pinned, so the draw is reproducible.
        """
        pmf = mk.Pmf(mk.alphabet(["heads", "tails"]), np.array([0.3, 0.7]))
        rep = mk.chernoff_local(
            np.array([1.0, 0.0]), pmf, [0.08, 0.16], [1250, 5000], 120_000, 7
        )
        cell = next(c for c in rep.cells if c.gamma == 0.08 and c.n == 5000)
        assert cell.exceed_count > 0
        assert abs(cell.normalized_log_prob - rep.limit) <= 0.25 * abs(rep.limit)
        # soft trend report: larger n should move the estimate toward the limit
        small_n = next(c for c in rep.cells if c.gamma == 0.08 and c.n == 1250)
        if small_n.normalized_log_prob is not None:
            assert abs(cell.normalized_log_prob - rep.limit) <= abs(
                small_n.normalized_log_prob - rep.limit
            ) + 0.05
