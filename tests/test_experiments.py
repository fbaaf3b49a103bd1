"""Monte Carlo tail-bound harness: bound formulas, seed derivation, report
structure, and the bound/exceedance comparisons at reduced trial counts
(the full-scale grids live in the acceptance suite)."""

import math
from functools import partial

import numpy as np
import pytest

import modalkit as mk
from modalkit import DataError
from modalkit import experiments as ex

from conftest import CallCount, assert_code, bss, random_joint, random_pmf
import mc_reference


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


RUNS = {  # (joint, n_grid, delta_grid, k, trials, seed) -> report
    "sigma": mk.mc_sigma_tail,
    "mu2": partial(mk.mc_feature_quality, metric="mu2"),
    "mu2prime": partial(mk.mc_feature_quality, metric="mu2prime"),
    "mi": mk.mc_mi_error,
}


class StackSpy:
    """Records every call of ``experiments._stack_statistic`` (one per chunk
    of trials) with its arguments and the statistics it returned."""

    def __init__(self, monkeypatch):
        self.calls = []
        original = ex._stack_statistic

        def spy(*args):
            out = original(*args)
            self.calls.append((args, out))
            return out

        monkeypatch.setattr(ex, "_stack_statistic", spy)

    def stats(self) -> np.ndarray:
        return np.concatenate([out for _, out in self.calls])


class TestTrialPath:
    """The true spectrum takes the one full SVD of a run; the trials of a
    grid row are drawn, stacked and decomposed by one stacked SVD per chunk,
    straight from the counts: no JointPmf and no Cdm per trial."""

    @pytest.mark.parametrize("chunk_cells,chunks", [(None, 1), (36, 3)], ids=["one-chunk", "3-trial-chunks"])
    @pytest.mark.parametrize("experiment", list(RUNS))
    def test_one_stacked_svd_per_row_and_chunk(self, monkeypatch, experiment, chunk_cells, chunks):
        j = random_joint(np.random.default_rng(4), 3, 4)  # 12 cells: 36 cells hold 3 trials
        if chunk_cells is not None:
            monkeypatch.setattr(ex, "MC_CHUNK_CELLS", chunk_cells)
        oracles = CallCount(monkeypatch, ex.linalg, "svd_oracle")
        stacks = CallCount(monkeypatch, ex.linalg, "svd_stack")
        joints = CallCount(monkeypatch, mk.JointPmf, "__post_init__")
        cdms = CallCount(monkeypatch, mk.modal.Cdm, "__post_init__")
        RUNS[experiment](j, [50, 200], [0.1], 2, 7, 3)
        # svd_oracle decomposes through svd_stack too: one call for the truth
        assert (oracles.n, stacks.n - 1, joints.n, cdms.n) == (1, 2 * chunks, 0, 1)


class TestBatchedMatchesReference:
    """The batched trials reproduce the per-trial loop in ``mc_reference``
    (full ``svd_oracle`` per trial): every exceed count, the statistics
    within 1e-12, under any chunking and in any trial order."""

    @pytest.mark.parametrize("experiment", list(RUNS))
    @pytest.mark.parametrize("shape", [(3, 4), (7, 5), (10, 10)], ids=["3x4", "7x5-wide", "10x10"])
    def test_generated_joints(self, monkeypatch, experiment, shape):
        j = random_joint(np.random.default_rng(shape[0] * 10 + shape[1]), *shape)
        n_grid, deltas = [40, 300], [0.05, 0.1, 0.2, 0.4]
        spy = StackSpy(monkeypatch)
        rep = RUNS[experiment](j, n_grid, deltas, 2, 12, 5)
        rows = mc_reference.tail_stats(j, experiment, 2, n_grid, 12, 5)
        assert [c.exceed_count for c in rep.cells] == mc_reference.exceed_counts(rows, deltas)
        np.testing.assert_allclose(spy.stats(), np.concatenate(rows), rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "experiment,deltas,seed",
        [("sigma", [0.1, 0.2, 0.4], 101), ("mu2", [0.05, 0.1, 0.2], 102), ("mi", [0.05, 0.1, 0.2], 103)],
    )
    def test_acceptance_grids(self, monkeypatch, experiment, deltas, seed):
        """The grids of acceptance criterion 11 (2000 trials a row).  Replaying
        all 18 000 trials through the reference would take seconds, so it
        replays the first 20 trials of each row plus every trial within 1e-9
        of a delta: with the statistics within 1e-12, only those can change
        an exceed count.  The sigma grid holds a lattice tie at n = 500,
        delta = 0.1 (35 exceedances; a values-only SVD counts 36)."""
        j, n_grid, trials = bss(0.3), [500, 1000, 2000], 2000
        spy = StackSpy(monkeypatch)
        rep = RUNS[experiment](j, n_grid, deltas, 1, trials, seed)
        stats = spy.stats().reshape(len(n_grid), trials)
        near = np.abs(stats[:, :, None] - np.array(deltas)).min(axis=2) <= 1e-9
        if experiment == "sigma":
            assert near[0].any() and rep.cells[0].exceed_count == 35
        for ni, n in enumerate(n_grid):
            replay = sorted(set(range(20)) | set(np.flatnonzero(near[ni]).tolist()))
            ref = mc_reference.trial_stats(j, experiment, 1, n, ni, replay, seed)
            np.testing.assert_allclose(stats[ni, replay], ref, rtol=0, atol=1e-12)
            for delta in deltas:
                assert np.array_equal(stats[ni, replay] >= delta, ref >= delta)

    @pytest.mark.parametrize("experiment", list(RUNS))
    def test_chunking_does_not_change_report(self, monkeypatch, experiment):
        j = random_joint(np.random.default_rng(8), 3, 4)
        run = lambda: RUNS[experiment](j, [30, 120], [0.05, 0.2], 2, 9, 4).to_json_dict()
        whole = run()
        monkeypatch.setattr(ex, "MC_CHUNK_CELLS", 3)  # one trial a chunk
        assert run() == whole

    @pytest.mark.parametrize("experiment", list(RUNS))
    def test_trial_order(self, monkeypatch, experiment):
        """Permuting the stack permutes the statistics bit for bit: a trial's
        value does not depend on where in the stack it sits."""
        j = random_joint(np.random.default_rng(9), 7, 5)
        spy = StackSpy(monkeypatch)
        RUNS[experiment](j, [60], [0.1], 2, 16, 6)
        (statistic, counts, n, px, py), stats = spy.calls[0]
        perm = np.random.default_rng(10).permutation(len(counts))
        np.testing.assert_array_equal(ex._stack_statistic(statistic, counts[perm], n, px, py), stats[perm])


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

    def test_matches_per_trial_loop(self, monkeypatch):
        """Every exceed count equals the per-trial loop's, whatever the chunking."""
        rng = np.random.default_rng(12)
        pmf = random_pmf(rng, 6)
        h = rng.normal(size=6) + 1.0
        gammas, n_grid = [0.02, 0.05, 0.1], [50, 400]
        rep = mk.chernoff_local(h, pmf, gammas, n_grid, 300, 8)
        rows = mc_reference.chernoff_rel_dev(h, pmf.probs, n_grid, 300, 8)
        assert [c.exceed_count for c in rep.cells] == mc_reference.exceed_counts(rows, gammas)
        monkeypatch.setattr(ex, "MC_CHUNK_CELLS", 12)  # two trials a chunk
        assert mk.chernoff_local(h, pmf, gammas, n_grid, 300, 8).to_json_dict() == rep.to_json_dict()

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
