"""DTM/CDM construction, modal decomposition, truncation, and local MI."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import modalkit as mk
from modalkit import DataError, NumericalError
from modalkit import linalg

from conftest import assert_code, bss, planted_joint, projector, random_joint


class TestDtm:
    def test_independent_uniform(self):
        j = mk.JointPmf(mk.alphabet("ab"), mk.alphabet("cd"), np.full((2, 2), 0.25))
        d = mk.build_dtm(j)
        np.testing.assert_allclose(d.b, 0.5)
        np.testing.assert_allclose(linalg.svd_oracle(d.b).sigmas, [1.0, 0.0], atol=1e-15)

    def test_identity_coupling(self):
        j = mk.JointPmf(mk.alphabet("ab"), mk.alphabet("cd"), np.diag([0.5, 0.5]))
        np.testing.assert_allclose(mk.build_dtm(j).b, np.eye(2), atol=1e-15)

    def test_bss_entries(self):
        np.testing.assert_allclose(
            mk.build_dtm(bss(0.3)).b, np.array([[0.65, 0.35], [0.35, 0.65]]), atol=1e-15
        )

    def test_unit_spectral_norm_and_trivial_pair(self, rng):
        """Spectral norm 1 with sqrt-marginal singular pair, for any joint."""
        for _ in range(20):
            j = random_joint(rng, rng.integers(2, 7), rng.integers(2, 7))
            d = mk.build_dtm(j)
            svd = linalg.svd_oracle(d.b)
            assert abs(svd.sigmas[0] - 1.0) <= 1e-9
            np.testing.assert_allclose(np.abs(svd.v[:, 0]), d.sqrt_px, atol=1e-9)
            np.testing.assert_allclose(np.abs(svd.u[:, 0]), d.sqrt_py, atol=1e-9)

    def test_zero_marginal_rows_zeroed(self):
        j = mk.JointPmf(mk.alphabet("ab"), mk.alphabet("cd"), np.array([[0.5, 0.5], [0.0, 0.0]]))
        d = mk.build_dtm(j)
        np.testing.assert_array_equal(d.b[:, 1], 0.0)


class TestDtmInversion:
    def test_identity_inverts_to_diagonal(self):
        d = mk.Dtm(np.eye(2), mk.alphabet("ab"), mk.alphabet("cd"), None, None)
        j = mk.dtm_to_joint(d)
        np.testing.assert_allclose(j.probs, np.diag([0.5, 0.5]), atol=1e-12)

    def test_round_trip(self, rng):
        for _ in range(20):
            j = random_joint(rng, rng.integers(2, 6), rng.integers(2, 6))
            again = mk.dtm_to_joint(mk.build_dtm(j))
            assert np.max(np.abs(again.probs - j.probs)) <= 1e-10

    def test_scaled_matrix_rejected(self):
        j = mk.JointPmf(mk.alphabet("ab"), mk.alphabet("cd"), np.full((2, 2), 0.25))
        d = mk.build_dtm(j)
        bad = mk.Dtm(0.9 * d.b, d.x_alphabet, d.y_alphabet, d.sqrt_px, d.sqrt_py)
        with pytest.raises(NumericalError) as err:
            mk.dtm_to_joint(bad)
        assert_code(err, "NOT_A_DTM")


class TestCdm:
    def test_independent_is_zero(self, rng):
        px = rng.dirichlet([4, 4, 4])
        py = rng.dirichlet([4, 4])
        j = mk.JointPmf(mk.alphabet("abc"), mk.alphabet("de"), np.outer(px, py))
        np.testing.assert_allclose(mk.build_cdm(j).btilde, 0.0, atol=1e-15)

    def test_bss_closed_form(self):
        r = 0.4
        np.testing.assert_allclose(
            mk.build_cdm(bss(r)).btilde,
            np.array([[r / 2, -r / 2], [-r / 2, r / 2]]),
            atol=1e-15,
        )

    def test_zero_mode_removed_and_contractive(self, rng):
        j = random_joint(rng, 4, 5)
        c = mk.build_cdm(j)
        assert np.max(np.abs(np.sqrt(c.py) @ c.btilde)) <= 1e-10
        assert np.max(np.abs(c.btilde @ np.sqrt(c.px))) <= 1e-10
        assert linalg.svd_oracle(c.btilde).sigmas[0] <= 1.0 + 1e-9

    def test_zero_marginal_rejected(self):
        j = mk.JointPmf(mk.alphabet("ab"), mk.alphabet("cd"), np.array([[0.5, 0.5], [0.0, 0.0]]))
        with pytest.raises(DataError) as err:
            mk.build_cdm(j)
        assert_code(err, "ZERO_MARGINAL")


class TestQuasiCdm:
    def test_equals_cdm_at_truth(self, rng):
        j = random_joint(rng, 3, 4)
        q = mk.build_quasi_cdm(j, (j.x_marginal, j.y_marginal))
        np.testing.assert_allclose(q.btilde, mk.build_cdm(j).btilde, atol=1e-15)

    def test_product_empirical_gives_zero(self, rng):
        j = random_joint(rng, 3, 3)
        prod = mk.JointPmf(
            j.x_alphabet, j.y_alphabet, np.outer(j.x_marginal.probs, j.y_marginal.probs)
        )
        q = mk.build_quasi_cdm(prod, (j.x_marginal, j.y_marginal))
        np.testing.assert_allclose(q.btilde, 0.0, atol=1e-15)

    def test_sigma_estimate_concentrates(self):
        """At n = 1e4 the top quasi-CDM value sits within 0.05 of the truth in
        at least 95% of seeds (stderr of sigma-hat is about 0.01)."""
        j = bss(0.3)
        marg = (j.x_marginal, j.y_marginal)
        hits = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            counts = rng.multinomial(10_000, j.probs.ravel()).reshape(2, 2)
            emp = mk.JointPmf(j.x_alphabet, j.y_alphabet, counts / 10_000)
            sig1 = linalg.svd_oracle(mk.build_quasi_cdm(emp, marg).btilde).sigmas[0]
            if abs(sig1 - 0.3) <= 0.05:
                hits += 1
        assert hits >= 190


class TestDecompose:
    def test_bss_mode(self):
        md = mk.decompose(bss(0.3), 1)
        assert md.sigmas[0] == pytest.approx(0.3, abs=1e-12)
        np.testing.assert_allclose(md.f_features[:, 0], [1.0, -1.0], atol=1e-12)
        np.testing.assert_allclose(md.g_features[:, 0], [1.0, -1.0], atol=1e-12)

    def test_independent_sigma_zero(self, rng):
        px = rng.dirichlet([4, 4])
        py = rng.dirichlet([4, 4, 4])
        j = mk.JointPmf(mk.alphabet("ab"), mk.alphabet("cde"), np.outer(px, py))
        md = mk.decompose(j, 1)
        assert md.sigmas[0] <= 1e-12

    def test_oracle_and_ace_agree(self, rng):
        j = random_joint(rng, 5, 7)
        md_o = mk.decompose(j, 4)
        md_a, _ = mk.ace_discrete(j, 4, mk.AceOptions(tol=1e-14, seed=1))
        np.testing.assert_allclose(md_o.sigmas, md_a.sigmas, atol=1e-8)

    def test_cross_correlation_structure(self, rng):
        """E[f_i g_j] under the joint is sigma_i on the diagonal, 0 off it."""
        j = random_joint(rng, 4, 5)
        md = mk.decompose(j, 3)
        cross = md.f_features.T @ j.probs @ md.g_features
        np.testing.assert_allclose(cross, np.diag(md.sigmas), atol=1e-8)

    def test_k_out_of_range(self, rng):
        with pytest.raises(DataError) as err:
            mk.decompose(random_joint(rng, 3, 3), 3)
        assert_code(err, "K_OUT_OF_RANGE")

    def test_zero_marginal_rejected(self):
        j = mk.JointPmf(
            mk.alphabet("abc"), mk.alphabet("de"),
            np.array([[0.5, 0.2], [0.3, 0.0], [0.0, 0.0]]),
        )
        with pytest.raises(DataError) as err:
            mk.decompose(j, 1)
        assert_code(err, "ZERO_MARGINAL")


class TestMaximalCorrelation:
    def test_independent_zero(self, rng):
        px = rng.dirichlet([4, 4, 4])
        py = rng.dirichlet([4, 4, 4])
        j = mk.JointPmf(mk.alphabet("abc"), mk.alphabet("def"), np.outer(px, py))
        assert mk.maximal_correlation(j, 1) == pytest.approx(0.0, abs=1e-12)

    def test_bss(self):
        assert mk.maximal_correlation(bss(0.3), 1) == pytest.approx(0.3, abs=1e-12)

    def test_identity_coupling_three_symbols(self):
        j = mk.JointPmf(mk.alphabet("abc"), mk.alphabet("def"), np.eye(3) / 3)
        assert mk.maximal_correlation(j, 2) == pytest.approx(2.0, abs=1e-10)

    def test_hgr_soundness(self, rng):
        """No admissible feature pair beats the top singular value; the modal
        pair attains it.  Candidates are Gram-Schmidt-normalized random
        features (zero-mean, unit-variance under the marginals)."""
        j = random_joint(rng, 4, 5)
        md = mk.decompose(j, 1)
        sigma1 = md.sigmas[0]
        wx, wy = j.x_marginal.probs, j.y_marginal.probs
        for _ in range(500):
            f = rng.standard_normal(4)
            g = rng.standard_normal(5)
            f -= wx @ f
            g -= wy @ g
            f /= np.sqrt(wx @ (f * f))
            g /= np.sqrt(wy @ (g * g))
            assert f @ (j.probs @ g) <= sigma1 + 1e-9
        attained = md.f_features[:, 0] @ (j.probs @ md.g_features[:, 0])
        assert attained == pytest.approx(sigma1, abs=1e-9)


class TestTruncation:
    def test_order_zero_is_product(self, rng):
        j = random_joint(rng, 3, 4)
        md = mk.decompose(j, 2)
        t = mk.reconstruct_truncated(md, 0)
        np.testing.assert_allclose(
            t.probs, np.outer(j.x_marginal.probs, j.y_marginal.probs), atol=1e-15
        )

    def test_bss_full_order_exact(self):
        j = bss(0.3)
        t = mk.reconstruct_truncated(mk.decompose(j, 1), 1)
        np.testing.assert_allclose(t.probs, j.probs, atol=1e-12)

    def test_full_order_reproduces_source(self, rng):
        j = random_joint(rng, 4, 4)
        md = mk.decompose(j, 3)
        t = mk.reconstruct_truncated(md, 3)
        assert np.max(np.abs(t.probs - j.probs)) <= 1e-10

    def test_marginals_preserved_at_every_order(self, rng):
        j = random_joint(rng, 5, 4)
        md = mk.decompose(j, 3)
        for k in range(4):
            t = mk.reconstruct_truncated(md, k)
            np.testing.assert_allclose(t.probs.sum(axis=1), j.x_marginal.probs, atol=1e-10)
            np.testing.assert_allclose(t.probs.sum(axis=0), j.y_marginal.probs, atol=1e-10)

    def test_strong_dependence_negativity_rejected(self):
        # spiky joint whose order-1 truncation dips to about -0.01
        gen = np.random.default_rng(0)
        gen.integers(3, 6)
        t = gen.dirichlet(np.ones(25) * 0.3).reshape(5, 5) + 1e-6
        t /= t.sum()
        j = mk.JointPmf(
            mk.alphabet(f"x{i}" for i in range(5)), mk.alphabet(f"y{i}" for i in range(5)), t
        )
        md = mk.decompose(j, 4)
        with pytest.raises(NumericalError) as err:
            mk.reconstruct_truncated(md, 1)
        assert_code(err, "NEGATIVE_CELL")

    def test_roundoff_negativity_clamped(self, rng):
        """Cells in (-1e-6, 0) are clamped to zero and the table renormalized."""
        j = mk.JointPmf(mk.alphabet("abc"), mk.alphabet("def"), np.eye(3) / 3)
        md = mk.decompose(j, 2)  # order-1 truncation bottoms out at exactly 0
        t = mk.reconstruct_truncated(md, 1)
        assert t.probs.min() >= 0.0
        assert t.probs.sum() == pytest.approx(1.0, abs=1e-12)


class TestPosteriorTruncated:
    def test_order_zero_rows_are_marginal(self, rng):
        j = random_joint(rng, 3, 4)
        md = mk.decompose(j, 2)
        rows = mk.posterior_truncated(md, 0, "y|x")
        for i in range(3):
            np.testing.assert_allclose(rows[i], j.y_marginal.probs, atol=1e-15)

    def test_bss_matches_exact_conditional(self):
        md = mk.decompose(bss(0.3), 1)
        rows = mk.posterior_truncated(md, 1, "y|x")
        np.testing.assert_allclose(rows[0], [0.65, 0.35], atol=1e-12)

    def test_rows_sum_to_one(self, rng):
        for _ in range(50):
            j = random_joint(rng, rng.integers(2, 6), rng.integers(2, 6))
            kmax = min(len(j.x_alphabet), len(j.y_alphabet)) - 1
            md = mk.decompose(j, kmax)
            for direction in ("y|x", "x|y"):
                rows = mk.posterior_truncated(md, kmax, direction)
                np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-10)


class TestLocalMi:
    def test_independent_zero(self, rng):
        px = rng.dirichlet([4, 4])
        py = rng.dirichlet([4, 4])
        j = mk.JointPmf(mk.alphabet("ab"), mk.alphabet("cd"), np.outer(px, py))
        assert mk.local_mi(mk.decompose(j, 1)) <= 1e-20

    def test_weak_bss_value(self):
        j = bss(0.02)
        md = mk.decompose(j, 1)
        local = mk.local_mi(md, 1)
        exact = mk.mutual_information(j)
        assert local == pytest.approx(2.0e-4, abs=1e-12)
        assert abs(exact - local) / exact <= 2 * 0.02

    def test_cubic_error_decay(self, rng):
        """|I_exact - local| shrinks like eps^3 on generic weak joints.

        Symmetric instances (e.g. the binary symmetric pair) have a vanishing
        cubic term and decay one order faster, so the sweep uses asymmetric
        synthesized modes.
        """
        px = mk.Pmf(mk.alphabet("abcde"), rng.dirichlet(np.full(5, 8.0)))
        py = mk.Pmf(mk.alphabet("pqrstu"), rng.dirichlet(np.full(6, 8.0)))
        f = mk.random_orthonormal_features(px, 2, rng)
        g = mk.random_orthonormal_features(py, 2, rng)
        eps_grid = [0.1, 0.03, 0.01]
        errs = []
        for eps in eps_grid:
            j = mk.synth_weak_joint(px, py, list(f.T), list(g.T), np.array([1.0, 0.6]) * eps)
            md = mk.decompose(j, 2)
            errs.append(abs(mk.mutual_information(j) - mk.local_mi(md, 2)))
        slope = np.polyfit(np.log(eps_grid), np.log(errs), 1)[0]
        assert 2.7 <= slope <= 3.3


class TestJsonExport:
    def test_schema(self):
        md = mk.decompose(bss(0.3), 1)
        data = json.loads(md.to_json())
        assert data["sigmas"] == [pytest.approx(0.3, abs=1e-12)]
        assert set(data) == {"sigmas", "f", "g", "marginals"}
        assert data["f"]["0"] == [pytest.approx(1.0)]
        assert data["marginals"]["x"]["0"] == pytest.approx(0.5)


class TestRepeatedSigmaSubspaces:
    def test_equal_modes_compare_as_projectors(self):
        """With a repeated singular value the individual features are free;
        only the spanned subspace is pinned."""
        j = mk.JointPmf(mk.alphabet("abc"), mk.alphabet("def"), np.eye(3) / 3)
        md = mk.decompose(j, 2)
        np.testing.assert_allclose(md.sigmas, [1.0, 1.0], atol=1e-10)
        # feature-vector projector must match the top-2 right singular space
        psi = np.sqrt(md.px.probs)[:, None] * md.f_features
        svd = linalg.svd_oracle(mk.build_cdm(j).btilde)
        np.testing.assert_allclose(
            projector(psi), projector(svd.v[:, :2]), atol=1e-8
        )


class TestRankDeficientProperties:
    """Oracle path on random joints of planted rank below K - 1, so the
    full-order decomposition always completes at least one zero mode."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(3, 6), st.integers(3, 6), st.integers(0, 2**32 - 1), st.data())
    def test_expansion_zero_modes_and_signs(self, nx, ny, seed, data):
        rank = data.draw(st.integers(1, min(nx, ny) - 2), label="rank")
        j = planted_joint(np.random.default_rng(seed), nx, ny, rank)
        md = mk.decompose(j, min(nx, ny) - 1)
        px, py = j.x_marginal.probs, j.y_marginal.probs
        assert np.max(np.abs(mk.reconstruct_truncated(md, md.order).probs - j.probs)) <= 1e-12
        for t in range(md.order + 1):
            table = mk.reconstruct_truncated(md, t).probs
            assert np.max(np.abs(table.sum(axis=1) - px)) <= 1e-12
            assert np.max(np.abs(table.sum(axis=0) - py)) <= 1e-12
        assert np.all(md.sigmas[:rank] > 1e-12)
        assert np.all(md.sigmas[rank:] == 0.0)
        # README sign rule: the first largest-magnitude entry of each
        # sqrt(P_X) f_i column is positive, whatever the joint's shape.
        psi = np.sqrt(px)[:, None] * md.f_features
        for col in psi.T:
            assert col[np.argmax(np.abs(col))] > 0


class TestZeroModeBasis:
    """Zero-mode features come from canonical vectors only, so they depend
    on the nonzero modes and the marginals, never on the solver."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(3, 6), st.integers(3, 6), st.integers(0, 2**32 - 1), st.data())
    def test_decompose_and_ace_share_zero_modes(self, nx, ny, seed, data):
        rank = data.draw(st.integers(1, min(nx, ny) - 2), label="rank")
        j = planted_joint(np.random.default_rng(seed), nx, ny, rank)
        k = min(nx, ny) - 1
        oracle = mk.decompose(j, k)
        md, _ = mk.ace_discrete(j, k, mk.AceOptions(tol=1e-14, seed=seed % 1000))
        assert np.all(oracle.sigmas[rank:] == 0.0) and np.all(md.sigmas[rank:] == 0.0)
        for feats, ref, p in (
            (md.f_features, oracle.f_features, j.x_marginal.probs),
            (md.g_features, oracle.g_features, j.y_marginal.probs),
        ):
            w = np.sqrt(p)[:, None]
            np.testing.assert_allclose(
                projector(w * feats[:, rank:]), projector(w * ref[:, rank:]), atol=1e-6
            )

    def test_solver_zero_columns_are_ignored(self, rng):
        """finish_modes gives the same features whatever orthonormal basis
        the solver hands it for the zero modes."""
        j = planted_joint(rng, 6, 5, 2)
        svd = linalg.svd_oracle(mk.build_cdm(j).btilde)
        px, py = j.x_marginal, j.y_marginal
        want = mk.modal.finish_modes(svd.sigmas[:4], svd.v[:, :4], svd.u[:, :4], px, py)
        psi_x, psi_y = svd.v[:, :4].copy(), svd.u[:, :4].copy()
        for psi in (psi_x, psi_y):  # rotate the solver's zero columns within their span
            q, _ = np.linalg.qr(rng.standard_normal((psi.shape[1] - 2, psi.shape[1] - 2)))
            psi[:, 2:] = psi[:, 2:] @ q
        got = mk.modal.finish_modes(svd.sigmas[:4], psi_x, psi_y, px, py)
        np.testing.assert_allclose(got.f_features, want.f_features, rtol=0, atol=1e-14)
        np.testing.assert_allclose(got.g_features, want.g_features, rtol=0, atol=1e-14)
