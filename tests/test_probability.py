"""Probability-core behavior: construction, marginals, divergences, sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import modalkit as mk
from modalkit import DataError

from conftest import assert_code, bss, random_joint


class TestJointFromTable:
    def test_uniform_2x2(self):
        j = mk.joint_from_table([("a", "b", 0.25), ("a", "c", 0.25), ("d", "b", 0.25), ("d", "c", 0.25)])
        np.testing.assert_allclose(j.probs, 0.25)
        assert j.x_alphabet.symbols == ("a", "d")

    def test_tolerance_edge_renormalizes(self):
        j = mk.joint_from_table([("a", "b", 0.5 + 1e-10), ("a", "c", 0.5)])
        assert abs(j.probs.sum() - 1.0) < 1e-12

    def test_rejects_negative(self):
        with pytest.raises(DataError) as err:
            mk.joint_from_table([("a", "b", -0.1), ("a", "c", 1.1)])
        assert_code(err, "NEGATIVE_PROB")

    @pytest.mark.parametrize(
        "build",
        [
            lambda: mk.Pmf(mk.alphabet("ab"), np.array([math.nan, 1.0])),
            lambda: mk.JointPmf(mk.alphabet("ab"), mk.alphabet("c"), np.array([[math.nan], [1.0]])),
            lambda: mk.joint_from_table([("a", "b", math.nan), ("a", "c", 1.0)]),
        ],
        ids=["pmf", "joint", "table"],
    )
    def test_rejects_nan(self, build):
        with pytest.raises(DataError) as err:
            build()
        assert_code(err, "NEGATIVE_PROB")

    def test_rejects_bad_total(self):
        with pytest.raises(DataError) as err:
            mk.joint_from_table([("a", "b", 0.5), ("a", "c", 0.6)])
        assert_code(err, "SUM_NOT_ONE")

    def test_rejects_duplicate_cell(self):
        with pytest.raises(DataError) as err:
            mk.joint_from_table([("a", "b", 0.5), ("a", "b", 0.5)])
        assert_code(err, "DUPLICATE_CELL")

    def test_round_trip_is_exact(self, rng):
        j = random_joint(rng, 4, 3)
        rows = [
            (x, y, float(j.probs[i, jj]))
            for i, x in enumerate(j.x_alphabet)
            for jj, y in enumerate(j.y_alphabet)
        ]
        again = mk.joint_from_table(rows)
        np.testing.assert_array_equal(again.probs, j.probs)


class TestJointFromSamples:
    def test_counting(self):
        s = mk.SamplePairs((("a", "b"), ("a", "b"), ("c", "d"), ("c", "d")))
        j = mk.joint_from_samples(s)
        assert j.prob("a", "b") == 0.5
        assert j.prob("c", "d") == 0.5

    def test_point_mass(self):
        j = mk.joint_from_samples(mk.SamplePairs((("a", "b"),)))
        assert j.prob("a", "b") == 1.0

    def test_empty_rejected(self):
        with pytest.raises(DataError) as err:
            mk.joint_from_samples(mk.SamplePairs(()))
        assert_code(err, "EMPTY_SAMPLES")

    def test_unknown_symbol_with_declared_alphabet(self):
        with pytest.raises(DataError) as err:
            mk.joint_from_samples(
                mk.SamplePairs((("a", "b"),)), x_alphabet=mk.alphabet(["z"])
            )
        assert_code(err, "UNKNOWN_SYMBOL")

    def test_marginals_sum_exactly(self, rng):
        j = random_joint(rng, 3, 3)
        samples = mk.draw_samples(j, 400, seed=5)
        emp = mk.joint_from_samples(samples, j.x_alphabet, j.y_alphabet)
        assert emp.x_marginal.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_empirical_concentration_monte_carlo(self):
        """Entrywise |estimate - truth| <= 0.01 in at least 99% of seeds.

        At n = 1e5 the worst cell stderr is ~0.0015, so 0.01 sits beyond six
        sigmas and effectively every seed passes (binomial oracle).
        """
        j = bss(0.3)
        hits = 0
        for seed in range(100):
            emp = mk.joint_from_samples(
                mk.draw_samples(j, 100_000, seed=seed), j.x_alphabet, j.y_alphabet
            )
            if np.max(np.abs(emp.probs - j.probs)) <= 0.01:
                hits += 1
        assert hits >= 99


def _first_appearance(symbols) -> tuple:
    order = []
    for s in symbols:
        if s not in order:
            order.append(s)
    return tuple(order)


def _pairs(unique: bool):
    symbols = st.tuples(st.sampled_from("abcde"), st.sampled_from("pqrst"))
    return st.lists(symbols, min_size=1, max_size=25, unique=unique)


class TestAlphabetOrder:
    """Inferred alphabets list symbols in first-appearance order, however
    the symbols repeat and interleave."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_pairs(unique=True))
    def test_joint_from_table(self, cells):
        j = mk.joint_from_table([(x, y, 1.0 / len(cells)) for x, y in cells])
        assert j.x_alphabet.symbols == _first_appearance(x for x, _ in cells)
        assert j.y_alphabet.symbols == _first_appearance(y for _, y in cells)
        for x, y in cells:
            assert j.prob(x, y) == pytest.approx(1.0 / len(cells), abs=1e-15)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_pairs(unique=False))
    def test_joint_from_samples(self, pairs):
        j = mk.joint_from_samples(mk.SamplePairs(tuple(pairs)))
        assert j.x_alphabet.symbols == _first_appearance(x for x, _ in pairs)
        assert j.y_alphabet.symbols == _first_appearance(y for _, y in pairs)
        for x, y in set(pairs):
            assert j.prob(x, y) == pairs.count((x, y)) / len(pairs)


def _draw_loop(joint, n, seed):
    """The per-sample reference for ``draw_samples``: one tuple per draw."""
    idx = np.random.default_rng(seed).choice(joint.probs.size, size=n, p=joint.probs.ravel())
    ny = len(joint.y_alphabet)
    return tuple((joint.x_alphabet.symbols[i // ny], joint.y_alphabet.symbols[i % ny]) for i in idx)


def _count_loop(pairs, x_alphabet, y_alphabet):
    """The per-sample reference for ``joint_from_samples`` with given alphabets."""
    counts = np.zeros((len(x_alphabet), len(y_alphabet)))
    for x, y in pairs:
        counts[x_alphabet.index(x), y_alphabet.index(y)] += 1.0
    return counts / len(pairs)


class TestSamplingMatchesLoop:
    """The vectorized sampler and counter reproduce the per-sample loops:
    the same pairs in the same order for a seed, the same counts, and the
    same UNKNOWN_SYMBOL error for the first sample outside a given alphabet."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 300), st.integers(0, 2**32 - 1))
    def test_draw_samples(self, nx, ny, n, seed):
        j = random_joint(np.random.default_rng(seed), nx, ny)
        samples = mk.draw_samples(j, n, seed)
        assert samples.pairs == _draw_loop(j, n, seed)
        emp = mk.joint_from_samples(samples, j.x_alphabet, j.y_alphabet)
        np.testing.assert_array_equal(emp.probs, _count_loop(samples.pairs, j.x_alphabet, j.y_alphabet))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        _pairs(unique=False),
        st.lists(st.sampled_from("abcdez"), min_size=1, unique=True),
        st.lists(st.sampled_from("pqrstz"), min_size=1, unique=True),
    )
    def test_joint_from_samples_given_alphabets(self, pairs, xs, ys):
        samples = mk.SamplePairs(tuple(pairs))
        ax, ay = mk.alphabet(xs), mk.alphabet(ys)
        try:
            want = _count_loop(samples.pairs, ax, ay)
        except DataError as expected:
            with pytest.raises(DataError) as err:
                mk.joint_from_samples(samples, ax, ay)
            assert (err.value.code, str(err.value)) == ("UNKNOWN_SYMBOL", str(expected))
        else:
            np.testing.assert_array_equal(mk.joint_from_samples(samples, ax, ay).probs, want)


class TestMarginalsAndConditionals:
    def test_uniform(self):
        j = mk.joint_from_table([("a", "b", 0.25), ("a", "c", 0.25), ("d", "b", 0.25), ("d", "c", 0.25)])
        px, py = mk.marginals(j)
        np.testing.assert_allclose(px.probs, 0.5)
        np.testing.assert_allclose(py.probs, 0.5)

    def test_bss_marginals_uniform(self):
        px, py = mk.marginals(bss(0.7))
        np.testing.assert_allclose(px.probs, 0.5, atol=1e-15)
        np.testing.assert_allclose(py.probs, 0.5, atol=1e-15)

    def test_point_mass_marginals(self):
        j = mk.joint_from_table([("a", "b", 1.0)])
        px, py = mk.marginals(j)
        assert px.probs[0] == 1.0 and py.probs[0] == 1.0

    def test_independent_conditionals_equal_marginal(self, rng):
        px = rng.dirichlet([5, 5, 5])
        py = rng.dirichlet([5, 5])
        j = mk.JointPmf(mk.alphabet("abc"), mk.alphabet("de"), np.outer(px, py))
        cond = mk.conditional(j, "y|x")
        for pmf in cond.values():
            np.testing.assert_allclose(pmf.probs, j.y_marginal.probs, atol=1e-12)

    def test_bss_conditional_value(self):
        cond = mk.conditional(bss(0.3), "y|x")
        assert cond["0"].prob("0") == pytest.approx(0.65, abs=1e-12)

    def test_zero_marginal_rejected(self):
        j = mk.JointPmf(mk.alphabet("ab"), mk.alphabet("cd"), np.array([[0.5, 0.5], [0.0, 0.0]]))
        with pytest.raises(DataError) as err:
            mk.conditional(j, "y|x")
        assert_code(err, "ZERO_MARGINAL")

    def test_conditional_rows_sum_to_one(self, rng):
        j = random_joint(rng, 4, 5)
        for pmf in mk.conditional(j, "x|y").values():
            assert pmf.probs.sum() == pytest.approx(1.0, abs=1e-12)


class TestInformationMeasures:
    def test_independent_mi_zero(self, rng):
        px = rng.dirichlet([4, 4, 4])
        py = rng.dirichlet([4, 4])
        j = mk.JointPmf(mk.alphabet("abc"), mk.alphabet("de"), np.outer(px, py))
        assert mk.mutual_information(j) == pytest.approx(0.0, abs=1e-14)

    def test_bss_half_mi(self):
        """Closed form: (1+r)/2 log(1+r) + (1-r)/2 log(1-r) for BSS(r)."""
        r = 0.5
        want = (1 + r) / 2 * math.log(1 + r) + (1 - r) / 2 * math.log(1 - r)
        assert mk.mutual_information(bss(r)) == pytest.approx(want, abs=1e-14)
        assert want == pytest.approx(0.130812, abs=5e-7)

    def test_identity_coupling_mi(self):
        j = mk.JointPmf(mk.alphabet("ab"), mk.alphabet("cd"), np.diag([0.5, 0.5]))
        assert mk.mutual_information(j) == pytest.approx(math.log(2), abs=1e-14)

    def test_chi2_zero_iff_equal(self, rng):
        j = random_joint(rng, 3, 3)
        assert mk.chi2_divergence(j, j) == 0.0

    def test_chi2_bss_vs_product(self):
        for r in (0.2, 0.5, 0.8):
            j = bss(r)
            prod = mk.JointPmf(
                j.x_alphabet, j.y_alphabet, np.outer(j.x_marginal.probs, j.y_marginal.probs)
            )
            assert mk.chi2_divergence(j, prod) == pytest.approx(r * r, abs=1e-14)

    def test_chi2_zero_reference_rejected(self):
        p = mk.Pmf(mk.alphabet("ab"), np.array([0.5, 0.5]))
        q = mk.Pmf(mk.alphabet("ab"), np.array([1.0, 0.0]))
        with pytest.raises(DataError) as err:
            mk.chi2_divergence(p, q)
        assert_code(err, "ZERO_REFERENCE")

    def test_kl_hand_value(self):
        p = mk.Pmf(mk.alphabet("ab"), np.array([0.6, 0.4]))
        q = mk.Pmf(mk.alphabet("ab"), np.array([0.5, 0.5]))
        want = 0.6 * math.log(1.2) + 0.4 * math.log(0.8)
        assert mk.kl_divergence(p, q) == pytest.approx(want, abs=1e-15)
        assert want == pytest.approx(0.020136, abs=5e-7)

    def test_kl_support_mismatch(self):
        p = mk.Pmf(mk.alphabet("ab"), np.array([0.5, 0.5]))
        q = mk.Pmf(mk.alphabet("ab"), np.array([1.0, 0.0]))
        with pytest.raises(DataError) as err:
            mk.kl_divergence(p, q)
        assert_code(err, "SUPPORT_MISMATCH")

    def test_kl_log_chi2_sandwich(self, rng):
        """D(P||Q) <= log(1 + chi2(P||Q)) <= chi2(P||Q) on random pairs."""
        for _ in range(100):
            p = rng.dirichlet([2] * 5) + 0.01
            q = rng.dirichlet([2] * 5) + 0.01
            p, q = p / p.sum(), q / q.sum()
            pm = mk.Pmf(mk.alphabet("abcde"), p)
            qm = mk.Pmf(mk.alphabet("abcde"), q)
            chi2 = mk.chi2_divergence(pm, qm)
            kl = mk.kl_divergence(pm, qm)
            assert kl <= math.log(1 + chi2) + 1e-12
            assert math.log(1 + chi2) <= chi2 + 1e-12

    def test_chi2_equals_cdm_frobenius(self, rng):
        """chi2 against the product of marginals is the squared CDM norm."""
        for _ in range(20):
            j = random_joint(rng, 4, 6)
            prod = mk.JointPmf(
                j.x_alphabet, j.y_alphabet, np.outer(j.x_marginal.probs, j.y_marginal.probs)
            )
            frob2 = float(np.sum(mk.build_cdm(j).btilde ** 2))
            assert mk.chi2_divergence(j, prod) == pytest.approx(frob2, abs=1e-10)


class TestSampling:
    def test_point_mass_draws(self):
        j = mk.joint_from_table([("a", "b", 1.0)])
        s = mk.draw_samples(j, 5, seed=0)
        assert s.pairs == (("a", "b"),) * 5

    def test_determinism(self, rng):
        j = random_joint(rng, 3, 3)
        assert mk.draw_samples(j, 50, seed=7).pairs == mk.draw_samples(j, 50, seed=7).pairs

    def test_uniform_cell_frequencies(self):
        j = mk.joint_from_table(
            [("a", "b", 0.25), ("a", "c", 0.25), ("d", "b", 0.25), ("d", "c", 0.25)]
        )
        emp = mk.joint_from_samples(mk.draw_samples(j, 100_000, seed=3))
        assert np.max(np.abs(emp.probs - 0.25)) <= 0.01


class TestTsvInterface:
    def test_joint_round_trip(self, tmp_path, rng):
        j = random_joint(rng, 3, 4)
        path = tmp_path / "j.tsv"
        mk.probability.dump_joint_tsv(j, path)
        again = mk.load_joint_tsv(path)
        np.testing.assert_allclose(again.probs, j.probs, atol=1e-15)
        assert again.x_alphabet == j.x_alphabet

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "j.tsv"
        path.write_text("# header\n\na\tb\t0.5\na\tc\t0.5\n", encoding="utf-8")
        j = mk.load_joint_tsv(path)
        assert j.prob("a", "b") == 0.5

    def test_samples_file(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("a\tb\na\tc\n", encoding="utf-8")
        s = mk.load_samples_tsv(path)
        assert s.pairs == (("a", "b"), ("a", "c"))
