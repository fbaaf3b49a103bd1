"""Attribute-matching recommendation and weak-dependence softmax fitting."""

import numpy as np
import pytest

import modalkit as mk
from modalkit import DataError

from conftest import assert_code, bss, random_joint, random_pmf


class TestRecommend:
    def test_bss_toy(self):
        rec = mk.recommend(bss(0.3, y_symbols=("m0", "m1")), 1, 1, "0")
        assert rec.items[0][0] == "m0"
        assert rec.items[0][1] == pytest.approx(0.3, abs=1e-9)

    def test_independent_ties_break_by_alphabet_order(self, rng):
        px = rng.dirichlet([4, 4])
        py = rng.dirichlet([4, 4, 4])
        j = mk.JointPmf(mk.alphabet("ab"), mk.alphabet(["m2", "m0", "m1"]), np.outer(px, py))
        rec = mk.recommend(j, 1, 3, "a", variant="match")
        assert [s for s, _ in rec.items] == ["m2", "m0", "m1"]
        assert all(abs(v) <= 1e-9 for _, v in rec.items)

    @staticmethod
    def _raw_truncated(j, md):
        px, py = j.x_marginal.probs, j.y_marginal.probs
        return px[:, None] * py[None, :] * (
            1.0 + (md.f_features * md.sigmas[None, :]) @ md.g_features.T
        )

    def test_match_variant_equals_posterior_ranking(self, rng):
        """The score ranking is exactly the rank-k user-posterior ranking."""
        j = random_joint(rng, 6, 10)
        py = j.y_marginal.probs
        for k in (1, 2):
            md = mk.decompose(j, k)
            post = self._raw_truncated(j, md) / py[None, :]  # [user, item]
            for ui, user in enumerate(j.x_alphabet):
                rec = mk.recommend(j, k, 3, user)
                want = sorted(range(10), key=lambda yj: (-post[ui, yj], yj))[:3]
                assert [s for s, _ in rec.items] == [j.y_alphabet.symbols[w] for w in want]

    def test_y_weighted_variant_equals_item_posterior(self, rng):
        j = random_joint(rng, 5, 8)
        md = mk.decompose(j, 2)
        post = self._raw_truncated(j, md) / j.x_marginal.probs[:, None]  # [user, item]
        rec = mk.recommend(j, 2, 4, j.x_alphabet.symbols[3], variant="y-weighted")
        want = sorted(range(8), key=lambda yj: (-post[3, yj], yj))[:4]
        assert [s for s, _ in rec.items] == [j.y_alphabet.symbols[w] for w in want]

    def test_sample_history_source(self, rng):
        j = random_joint(rng, 3, 4)
        samples = mk.draw_samples(j, 5000, seed=2)
        rec = mk.recommend(samples, 1, 2, samples.pairs[0][0])
        assert len(rec.items) == 2

    def test_unknown_user(self, rng):
        with pytest.raises(DataError) as err:
            mk.recommend(random_joint(rng, 3, 4), 1, 1, "nobody")
        assert_code(err, "UNKNOWN_USER")

    def test_list_too_large(self, rng):
        j = random_joint(rng, 3, 4)
        with pytest.raises(DataError) as err:
            mk.recommend(j, 1, 5, "x0")
        assert_code(err, "L_TOO_LARGE")


def induced_softmax_joint(joint, md, k):
    """(S, Y) joint with s = the k-dimensional feature vector of x."""
    symbols = [
        ",".join(repr(float(v)) for v in md.f_features[i, :k])
        for i in range(len(joint.x_alphabet))
    ]
    return mk.JointPmf(mk.alphabet(symbols), joint.y_alphabet, joint.probs)


def gd_softmax_oracle(joint_sy, s_values, iters=10_000, step=0.1):
    """Plain gradient descent on the averaged-KL objective (test harness)."""
    ps = joint_sy.x_marginal.probs
    py = joint_sy.y_marginal.probs
    true_post = joint_sy.probs / ps[:, None]
    ny, kdim = len(py), s_values.shape[1]
    g = np.zeros((ny, kdim))
    beta = np.zeros(ny)
    for _ in range(iters):
        logits = s_values @ g.T + beta[None, :] + np.log(py)[None, :]
        logits -= logits.max(axis=1, keepdims=True)
        model = np.exp(logits)
        model /= model.sum(axis=1, keepdims=True)
        resid = (model - true_post) * ps[:, None]
        g -= step * (resid.T @ s_values)
        beta -= step * resid.sum(axis=0)
    return g, beta


def kl_objective(joint_sy, s_values, g, beta):
    ps = joint_sy.x_marginal.probs
    py = joint_sy.y_marginal.probs
    true_post = joint_sy.probs / ps[:, None]
    logits = s_values @ g.T + beta[None, :] + np.log(py)[None, :]
    logits -= logits.max(axis=1, keepdims=True)
    model = np.exp(logits)
    model /= model.sum(axis=1, keepdims=True)
    mask = true_post > 0
    acc = np.zeros_like(true_post)
    acc[mask] = true_post[mask] * np.log(true_post[mask] / model[mask])
    return float(ps @ acc.sum(axis=1))


class TestSoftmaxFit:
    def test_uninformative_features_give_zero(self, rng):
        ps = rng.dirichlet([4, 4, 4])
        py = rng.dirichlet([4, 4])
        j = mk.JointPmf(mk.alphabet(["-1", "0", "1"]), mk.alphabet("cd"), np.outer(ps, py))
        params = mk.softmax_fit(j)
        np.testing.assert_allclose(params.g, 0.0, atol=1e-12)
        np.testing.assert_allclose(params.beta, 0.0, atol=1e-12)

    def test_binary_hand_example(self):
        eps = 0.05
        table = np.array(
            [[0.25 * (1 + eps), 0.25 * (1 - eps)], [0.25 * (1 - eps), 0.25 * (1 + eps)]]
        )
        j = mk.JointPmf(mk.alphabet(["1", "-1"]), mk.alphabet(["c0", "c1"]), table)
        params = mk.softmax_fit(j)
        np.testing.assert_allclose(params.g.ravel(), [eps, -eps], atol=1e-12)
        np.testing.assert_allclose(params.beta, 0.0, atol=1e-12)

    def test_modal_features_give_modal_weights(self, rng):
        """With s the dominant feature vector the fitted weights are exactly
        sigma_i g_i(y) and the bias vanishes."""
        eps = 0.03
        px, py = random_pmf(rng, 5), random_pmf(rng, 4)
        f = mk.random_orthonormal_features(px, 2, rng)
        g = mk.random_orthonormal_features(py, 2, rng)
        j = mk.synth_weak_joint(px, py, list(f.T), list(g.T), np.array([1.0, 0.5]) * eps)
        md = mk.decompose(j, 2)
        params = mk.softmax_fit(induced_softmax_joint(j, md, 2))
        target = md.g_features * md.sigmas[None, :]
        assert np.max(np.abs(params.g - target)) <= 5 * eps * eps
        assert np.max(np.abs(params.beta)) <= 5 * eps * eps

    def test_posterior_rows_sum_to_one(self, rng):
        j = random_joint(rng, 4, 3)
        numeric = mk.JointPmf(
            mk.alphabet([f"{v:.3f}" for v in rng.standard_normal(4)]), j.y_alphabet, j.probs
        )
        params = mk.softmax_fit(numeric)
        np.testing.assert_allclose(params.posterior().sum(axis=1), 1.0, atol=1e-10)

    def test_singular_covariance_requires_flag(self, rng):
        py = rng.dirichlet([4, 4])
        ps = rng.dirichlet([4, 4, 4])
        j = mk.JointPmf(
            mk.alphabet(["0,0", "1,0", "2,0"]), mk.alphabet("cd"),
            np.outer(ps, py) + 0.0,
        )
        with pytest.raises(DataError) as err:
            mk.softmax_fit(j)
        assert_code(err, "SINGULAR_COVARIANCE")
        params = mk.softmax_fit(j, use_pseudoinverse=True)
        assert params.g.shape == (2, 2)

    def test_closed_form_not_beaten_by_gd_oracle(self, rng):
        """The closed form ties the 1e4-step descent oracle within 1e-6 on
        weak-dependence instances."""
        eps = 0.03
        px, py = random_pmf(rng, 4), random_pmf(rng, 3)
        f = mk.random_orthonormal_features(px, 2, rng)
        g = mk.random_orthonormal_features(py, 2, rng)
        j = mk.synth_weak_joint(px, py, list(f.T), list(g.T), np.array([1.0, 0.4]) * eps)
        md = mk.decompose(j, 2)
        jsy = induced_softmax_joint(j, md, 2)
        params = mk.softmax_fit(jsy)
        g_gd, b_gd = gd_softmax_oracle(jsy, params.s_values)
        closed = kl_objective(jsy, params.s_values, params.g, params.beta)
        oracle = kl_objective(jsy, params.s_values, g_gd, b_gd)
        assert oracle >= closed - 1e-6
        assert closed <= oracle + 1e-6
        assert closed <= oracle + 1e-3  # coarse band for the op contract


class TestSoftmaxDivergenceGap:
    def test_full_order_gap_is_zero(self, rng):
        j = random_joint(rng, 4, 4)
        assert mk.softmax_divergence_gap(j, 3) == pytest.approx(0.0, abs=1e-15)

    def test_weak_bss_edge(self):
        assert mk.softmax_divergence_gap(bss(0.05), 0) == pytest.approx(1.25e-3, abs=1e-12)

    def test_synth_spectrum(self, rng):
        px, py = random_pmf(rng, 4), random_pmf(rng, 4)
        f = mk.random_orthonormal_features(px, 2, rng)
        g = mk.random_orthonormal_features(py, 2, rng)
        j = mk.synth_weak_joint(px, py, list(f.T), list(g.T), [0.05, 0.02])
        assert mk.softmax_divergence_gap(j, 1) == pytest.approx(2e-4, abs=1e-10)

    def test_non_injective_rejected(self, rng):
        # duplicate x-rows make every feature constant across them; of the
        # two duplicated pairs (0, 3) and (1, 2), row-major order names (0, 3)
        py = rng.dirichlet([4, 4, 4])
        row = rng.dirichlet([4, 4, 4])
        other = rng.dirichlet([4, 4, 4])
        table = np.vstack([0.2 * row, 0.15 * other, 0.15 * other, 0.2 * row, 0.3 * py])
        table /= table.sum()
        j = mk.JointPmf(mk.alphabet("abcgh"), mk.alphabet("def"), table)
        with pytest.raises(DataError) as err:
            mk.softmax_divergence_gap(j, 1)
        assert_code(err, "NOT_INJECTIVE")
        assert "symbols 0 and 3 " in str(err.value)

    def test_gap_matches_true_model_divergence(self, rng):
        """The predicted residual matches the fitted model's averaged KL
        within 20% in the weak regime."""
        eps = 0.05
        px, py = random_pmf(rng, 5), random_pmf(rng, 4)
        f = mk.random_orthonormal_features(px, 2, rng)
        g = mk.random_orthonormal_features(py, 2, rng)
        j = mk.synth_weak_joint(px, py, list(f.T), list(g.T), np.array([1.0, 0.5]) * eps)
        md = mk.decompose(j, 3)
        k = 1
        jsy = induced_softmax_joint(j, md, k)
        params = mk.softmax_fit(jsy)
        true_gap = kl_objective(jsy, params.s_values, params.g, params.beta)
        predicted = mk.softmax_divergence_gap(j, k)
        assert 0.8 * predicted <= true_gap <= 1.2 * predicted
