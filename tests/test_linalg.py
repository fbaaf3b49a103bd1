"""Linear-algebra kernel: QR, Cholesky, the SVD and its conventions, Ky Fan
norms, the classical variational facts the rest of the package leans on, and
the gates that hold the production SVD to the test-only Jacobi reference."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import modalkit as mk
from modalkit import DataError, NumericalError
from modalkit import linalg
from modalkit.modal import _ZERO_SIGMA_TOL

from conftest import assert_code, planted_joint, projector, random_joint
from jacobi import jacobi_svd

ROOT = Path(__file__).resolve().parent.parent


class TestPlumbing:
    def test_nonfinite_rejected(self):
        with pytest.raises(DataError):
            linalg.as_matrix(np.array([[np.inf, 0.0]]))


class TestThinQr:
    def test_orthonormal_input_is_fixed_point(self, rng):
        q0, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        q0 *= np.where(np.diag(np.linalg.qr(q0)[1]) < 0, -1, 1)  # positive-diag gauge
        q, r = linalg.thin_qr(q0)
        np.testing.assert_allclose(q, q0, atol=1e-12)
        np.testing.assert_allclose(r, np.eye(5), atol=1e-12)

    def test_rank_deficient_column_detected(self):
        with pytest.raises(NumericalError) as err:
            linalg.thin_qr(np.array([[2.0, 0.0], [0.0, 0.0], [0.0, 0.0]]))
        assert_code(err, "RANK_DEFICIENT")
        assert "column 1" in str(err.value)

    def test_reconstruction_residual(self, rng):
        for _ in range(10):
            a = rng.standard_normal((6, 3))
            q, r = linalg.thin_qr(a)
            assert np.max(np.abs(q @ r - a)) <= 1e-12
            assert np.max(np.abs(q.T @ q - np.eye(3))) <= 1e-12
            assert np.all(np.diag(r) >= 0)

    def test_wide_input_rejected(self, rng):
        with pytest.raises(DataError):
            linalg.thin_qr(rng.standard_normal((2, 3)))


class TestCholesky:
    def test_identity(self):
        np.testing.assert_array_equal(linalg.cholesky(np.eye(3)), np.eye(3))

    def test_hand_factorization(self):
        low = linalg.cholesky(np.array([[4.0, 2.0], [2.0, 5.0]]))
        np.testing.assert_allclose(low, np.array([[2.0, 0.0], [1.0, 2.0]]), atol=1e-15)

    def test_indefinite_rejected(self):
        with pytest.raises(NumericalError) as err:
            linalg.cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert_code(err, "NOT_POSITIVE_DEFINITE")

    def test_asymmetric_rejected(self):
        with pytest.raises(DataError):
            linalg.cholesky(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_tiny_pivot_rejected(self):
        """LAPACK factors this matrix (its second pivot is 1e-14 > 0), but a
        pivot at or below 1e-13 still fails: ACE whitening relies on it to
        take the jitter path."""
        s = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
        low = np.linalg.cholesky(s)
        assert 0.0 < low[1, 1] ** 2 <= 1e-13
        with pytest.raises(NumericalError) as err:
            linalg.cholesky(s)
        assert_code(err, "NOT_POSITIVE_DEFINITE")
        assert "index 1" in str(err.value)

    def test_singular_rejected(self):
        with pytest.raises(NumericalError) as err:
            linalg.cholesky(np.ones((3, 3)))
        assert_code(err, "NOT_POSITIVE_DEFINITE")

    def test_residual_and_solves(self, rng):
        a = rng.standard_normal((5, 5))
        s = a @ a.T + 5 * np.eye(5)
        low = linalg.cholesky(s)
        assert np.max(np.abs(low @ low.T - s)) <= 1e-10 * max(1, np.abs(s).max())
        b = rng.standard_normal(5)
        np.testing.assert_allclose(s @ linalg.chol_solve(s, b), b, atol=1e-10)


class TestSvdOracle:
    def test_identity(self):
        r = linalg.svd_oracle(np.eye(3))
        np.testing.assert_allclose(r.sigmas, 1.0)

    def test_permutation(self):
        r = linalg.svd_oracle(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(r.sigmas, 1.0)

    def test_sigmas_match_gram_eigenvalues(self, rng):
        """Singular values cross-checked against the symmetric-eigen oracle."""
        a = rng.standard_normal((5, 4))
        mine = linalg.svd_oracle(a).sigmas
        eig = np.sqrt(np.maximum(np.linalg.eigvalsh(a.T @ a)[::-1], 0))
        np.testing.assert_allclose(mine, eig, atol=1e-10)

    def test_result_invariants(self, rng):
        for shape in [(4, 4), (7, 3), (3, 7), (1, 5), (6, 1)]:
            a = rng.standard_normal(shape)
            r = linalg.svd_oracle(a)
            k = min(shape)
            assert np.all(np.diff(r.sigmas) <= 1e-12)
            assert np.all(r.sigmas >= 0)
            assert np.max(np.abs(r.u.T @ r.u - np.eye(k))) <= 1e-10
            assert np.max(np.abs(r.v.T @ r.v - np.eye(k))) <= 1e-10
            resid = np.sqrt(np.sum((r.reconstruct() - a) ** 2))
            assert resid <= 1e-10 * max(1.0, np.sqrt(np.sum(a * a)))

    def test_exact_rank_deficiency(self):
        a = np.outer([1.0, 2.0, 3.0], [4.0, 5.0])
        r = linalg.svd_oracle(a)
        assert r.sigmas[1] == 0.0
        assert np.max(np.abs(r.u.T @ r.u - np.eye(2))) <= 1e-12

    def test_parallel_columns_terminate(self):
        # regression: exactly dependent columns once livelocked the sweeps
        a = np.array([[0.124, -0.136], [-0.124, 0.136]])
        r = linalg.svd_oracle(a)
        assert r.sigmas[1] == 0.0
        assert np.max(np.abs(r.reconstruct() - a)) < 1e-15

    def test_sign_convention(self, rng):
        a = rng.standard_normal((5, 5))
        r = linalg.svd_oracle(a)
        for j in range(5):
            col = r.v[:, j]
            assert col[int(np.argmax(np.abs(col)))] > 0

    def test_input_never_mutated(self, rng):
        a = rng.standard_normal((3, 6))
        before = a.copy()
        linalg.svd_oracle(a)
        np.testing.assert_array_equal(a, before)

    def test_empty_matrix(self):
        r = linalg.svd_oracle(np.zeros((0, 0)))
        assert r.sigmas.shape == (0,) and r.u.shape == (0, 0) and r.v.shape == (0, 0)

    def test_zero_floor(self):
        """Sigmas at or below sigma_max * max(m, n) * 2.3e-16 are exact zeros;
        their columns still complete an orthonormal basis."""
        a = np.diag([1.0, 1e-17, 0.0])
        r = linalg.svd_oracle(a)
        np.testing.assert_array_equal(r.sigmas, [1.0, 0.0, 0.0])
        assert np.max(np.abs(r.u.T @ r.u - np.eye(3))) <= 1e-15
        assert np.max(np.abs(r.v.T @ r.v - np.eye(3))) <= 1e-15


def _tied_column(data, n):
    """A column whose largest magnitude is shared by two entries of opposite
    sign, all others clearly smaller."""
    top = data.draw(st.floats(1e-3, 1e3), label="top")
    i, j = sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
    rest = data.draw(st.lists(st.floats(-0.9, 0.9), min_size=n, max_size=n), label="rest")
    col = np.array(rest) * top
    sign = data.draw(st.sampled_from([-1.0, 1.0]), label="sign")
    col[i], col[j] = sign * top, -sign * top
    return col, i


class TestSignRule:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(2, 8), st.data())
    def test_tie_survives_ulp_perturbation(self, n, data):
        """On an exact magnitude tie the first tied entry leads, and moving
        every entry by a few ulps does not change the chosen sign."""
        col, first = _tied_column(data, n)
        signs = linalg.lead_signs(col[:, None])
        assert signs[0] * col[first] > 0
        steps = data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n), label="ulps")
        moved = col.copy()
        for idx, step in enumerate(steps):
            for _ in range(abs(step)):
                moved[idx] = np.nextafter(moved[idx], np.inf if step > 0 else -np.inf)
        np.testing.assert_array_equal(linalg.lead_signs(moved[:, None]), signs)

    def test_strict_maximum_leads(self):
        cols = np.array([[0.5, 0.0], [-0.7, 0.0], [0.2, 0.0]])
        np.testing.assert_array_equal(linalg.lead_signs(cols), [-1.0, 1.0])


class TestJacobiReference:
    """The test-only Jacobi SVD obeys the same result invariants."""

    def test_result_invariants(self, rng):
        for shape in [(4, 4), (7, 3), (3, 7), (1, 5), (6, 1)]:
            a = rng.standard_normal(shape)
            r = jacobi_svd(a)
            k = min(shape)
            assert np.max(np.abs(r.u.T @ r.u - np.eye(k))) <= 1e-10
            assert np.max(np.abs(r.v.T @ r.v - np.eye(k))) <= 1e-10
            assert np.max(np.abs(r.reconstruct() - a)) <= 1e-12

    def test_parallel_columns_terminate(self):
        # regression: exactly dependent columns once livelocked the sweeps
        a = np.array([[0.124, -0.136], [-0.124, 0.136]])
        r = jacobi_svd(a)
        assert r.sigmas[1] == 0.0
        assert np.max(np.abs(r.reconstruct() - a)) < 1e-15


def _gate_joints():
    """CDM inputs for the oracle gates: the fixtures, the synth goldens, and
    generated joints up to 200 x 200, full-rank and of planted rank."""
    for path in sorted((ROOT / "fixtures").glob("*.tsv")):
        yield path.stem, lambda path=path: mk.probability.load_joint_tsv(path)
    for name in ("synth", "synth_rankdef"):
        path = ROOT / "tests" / "golden" / f"{name}.json"
        yield name, lambda path=path: mk.joint_from_table(
            [tuple(row) for row in json.loads(path.read_text(encoding="utf-8"))["rows"]]
        )
    for nx, ny in [(3, 3), (4, 7), (10, 10), (30, 20), (50, 50), (200, 200)]:
        seed = 1000 * nx + ny
        yield f"full-{nx}x{ny}", lambda nx=nx, ny=ny, seed=seed: random_joint(
            np.random.default_rng(seed), nx, ny
        )
        rank = max(1, min(nx, ny) // 3)
        yield f"rank{rank}-{nx}x{ny}", lambda nx=nx, ny=ny, seed=seed, rank=rank: planted_joint(
            np.random.default_rng(seed), nx, ny, rank
        )


class TestOracleGates:
    """The production SVD against the Jacobi reference on CDMs: sigmas
    within 1e-12, the same rank decision at the modal zero floor, and the
    nonzero-mode projectors (every top-r block that is separated from the
    next sigma, and the whole nonzero block) within 1e-10."""

    @pytest.mark.parametrize("name,make", [pytest.param(n, m, id=n) for n, m in _gate_joints()])
    def test_matches_jacobi(self, name, make):
        cdm = mk.build_cdm(make()).btilde
        got, ref = linalg.svd_oracle(cdm), jacobi_svd(cdm)
        assert np.max(np.abs(got.sigmas - ref.sigmas)) <= 1e-12
        rank = int(np.sum(got.sigmas > _ZERO_SIGMA_TOL))
        assert rank == int(np.sum(ref.sigmas > _ZERO_SIGMA_TOL))
        sig = np.append(ref.sigmas, 0.0)
        for r in range(1, rank + 1):
            if r < rank and sig[r - 1] - sig[r] < 1e-3:
                continue
            for mine, theirs in ((got.u, ref.u), (got.v, ref.v)):
                assert np.max(np.abs(projector(mine[:, :r]) - projector(theirs[:, :r]))) <= 1e-10


class TestNorms:
    def test_ky_fan_values(self):
        d = np.diag([3.0, 1.0])
        assert linalg.ky_fan(d, 1) == pytest.approx(3.0)
        assert linalg.ky_fan(d, 2) == pytest.approx(4.0)

    def test_ky_fan_range(self):
        with pytest.raises(DataError) as err:
            linalg.ky_fan(np.eye(2), 3)
        assert_code(err, "K_OUT_OF_RANGE")


def _random_orthonormal(rng, n, k):
    q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return q


class TestVariationalFacts:
    def test_frobenius_maximization(self, rng):
        """max ||A M||_F^2 over orthonormal M is the top-k squared sigma sum,
        attained at the top right singular vectors."""
        for _ in range(50):
            a = rng.standard_normal((rng.integers(2, 6), rng.integers(2, 6)))
            svd = np.linalg.svd(a)
            for k in range(1, min(a.shape) + 1):
                cap = np.sum(svd.S[:k] ** 2)
                ms = np.linalg.qr(rng.standard_normal((200, a.shape[1], k)))[0]
                vals = np.sum((a @ ms) ** 2, axis=(1, 2))
                assert np.max(vals) <= cap + 1e-9
                at_opt = np.sum((a @ svd.Vh[:k].T) ** 2)
                assert abs(at_opt - cap) <= 1e-9

    def test_trace_maximization(self, rng):
        """tr(M1^T A M2) over orthonormal pairs tops out at the Ky Fan k-norm."""
        for _ in range(20):
            a = rng.standard_normal((5, 4))
            u, s, vt = np.linalg.svd(a)
            for k in (1, 2, 3):
                cap = np.sum(s[:k])
                for _ in range(50):
                    m1 = _random_orthonormal(rng, 5, k)
                    m2 = _random_orthonormal(rng, 4, k)
                    assert np.trace(m1.T @ a @ m2) <= cap + 1e-9
                at_opt = np.trace(u[:, :k].T @ a @ vt[:k].T)
                assert abs(at_opt - cap) <= 1e-9

    def test_eckart_young(self, rng):
        """Truncation error of the SVD equals the tail sigma energy."""
        for _ in range(20):
            a = rng.standard_normal((6, 5))
            r = linalg.svd_oracle(a)
            for k in range(1, 5):
                trunc = r.truncate(k).reconstruct()
                err2 = np.sum((a - trunc) ** 2)
                assert abs(err2 - np.sum(r.sigmas[k:] ** 2)) <= 1e-9
