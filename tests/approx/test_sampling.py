"""Tests for repro.approx.sampling — scores, normalisation, waterfilling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.approx.sampling import (
    clipped_probabilities,
    importance_scores,
    normalize_probabilities,
    sample_with_replacement,
)


class TestImportanceScores:
    def test_values(self):
        a = np.array([[1.0, 0.0], [0.0, 2.0]])
        b = np.array([[3.0, 0.0], [0.0, 4.0]])
        np.testing.assert_allclose(importance_scores(a, b), [3.0, 8.0])

    def test_nonnegative(self, rng):
        a = rng.normal(size=(4, 6))
        b = rng.normal(size=(6, 3))
        assert (importance_scores(a, b) >= 0).all()

    def test_dim_mismatch(self, rng):
        with pytest.raises(ValueError):
            importance_scores(rng.normal(size=(2, 3)), rng.normal(size=(4, 2)))

    @pytest.mark.parametrize(
        "m, n, p",
        [(20, 1000, 1000), (20, 1000, 784), (20, 10, 1000), (1, 7, 5), (3, 1, 4), (6, 5, 1)],
    )
    @pytest.mark.parametrize("a_order", ["C", "F"])
    @pytest.mark.parametrize("b_order", ["C", "F"])
    def test_bitwise_equal_to_linalg_norm(self, rng, m, n, p, a_order, b_order):
        """Every layout sums in ``np.linalg.norm``'s order: pairwise along
        a contiguous axis, sequentially along a strided one."""
        a = np.asarray(rng.normal(size=(m, n)) * 7.0, order=a_order)
        b = np.asarray(rng.normal(size=(n, p)) * 0.3, order=b_order)
        for x, y in ((a, b), (b.T, a.T)):
            expected = np.linalg.norm(x, axis=0) * np.linalg.norm(y, axis=1)
            assert np.array_equal(importance_scores(x, y), expected)

    def test_one_row_operand_is_both_orders(self, rng):
        """A ``(1, n)`` operand is C- and F-contiguous at once; its
        reduced axis is contiguous, so NumPy sums it pairwise."""
        b = rng.normal(size=(1, 1000))
        assert b.flags.c_contiguous and b.flags.f_contiguous
        a = rng.normal(size=(5, 1))
        expected = np.linalg.norm(a, axis=0) * np.linalg.norm(b, axis=1)
        assert np.array_equal(importance_scores(a, b), expected)

    def test_broadcast_operands(self, rng):
        """A zero-stride axis is not a strided one: NumPy may sum it
        in another order."""
        # Strides (0, 8) and (8, 0): each reduced axis has stride 0.
        a = np.broadcast_to(rng.normal(size=(1, 40)), (30, 40))
        b = np.broadcast_to(rng.normal(size=(40, 1)), (40, 50))
        expected = np.linalg.norm(a, axis=0) * np.linalg.norm(b, axis=1)
        assert np.array_equal(importance_scores(a, b), expected)

    def test_delta_propagation_operand(self, rng):
        """``W.T`` of a row-major ``W``: rows of strided elements."""
        w = rng.normal(size=(1000, 1000))
        delta = rng.normal(size=(20, 1000))
        expected = np.linalg.norm(delta, axis=0) * np.linalg.norm(w.T, axis=1)
        assert np.array_equal(importance_scores(delta, w.T), expected)


class TestNormalize:
    def test_sums_to_one(self, rng):
        p = normalize_probabilities(rng.uniform(size=10))
        assert p.sum() == pytest.approx(1.0)

    def test_zero_scores_uniform(self):
        p = normalize_probabilities(np.zeros(4))
        np.testing.assert_allclose(p, 0.25)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            normalize_probabilities(np.array([1.0, -1.0]))


class TestClippedProbabilities:
    def test_budget_constraint_exact(self, rng):
        scores = rng.uniform(size=20)
        for k in (1, 5, 10, 19, 20):
            p = clipped_probabilities(scores, k)
            assert p.sum() == pytest.approx(k, rel=1e-9)

    def test_all_in_unit_interval(self, rng):
        p = clipped_probabilities(rng.uniform(size=15) ** 4, 7)
        assert ((p >= 0) & (p <= 1 + 1e-12)).all()

    def test_waterfilling_clips_dominant_scores(self):
        """A hugely dominant score is pinned at 1, not above."""
        scores = np.array([1000.0, 1.0, 1.0, 1.0])
        p = clipped_probabilities(scores, 2)
        assert p[0] == pytest.approx(1.0)
        # Remaining budget of 1 spreads proportionally over the equal tail.
        np.testing.assert_allclose(p[1:], 1.0 / 3, rtol=1e-9)
        assert p.sum() == pytest.approx(2.0)

    def test_k_equals_n_all_ones(self, rng):
        scores = rng.uniform(0.1, 1.0, size=8)
        np.testing.assert_allclose(clipped_probabilities(scores, 8), 1.0)

    def test_monotone_in_scores(self, rng):
        scores = np.sort(rng.uniform(size=12))
        p = clipped_probabilities(scores, 4)
        assert (np.diff(p) >= -1e-12).all()

    def test_zero_scores_uniform(self):
        p = clipped_probabilities(np.zeros(10), 3)
        np.testing.assert_allclose(p, 0.3)

    def test_zero_score_entries_get_zero(self):
        scores = np.array([0.0, 1.0, 1.0, 0.0])
        p = clipped_probabilities(scores, 1)
        assert p[0] == 0.0
        assert p[3] == 0.0

    @pytest.mark.parametrize("k", [0, 21])
    def test_invalid_k(self, k, rng):
        with pytest.raises(ValueError):
            clipped_probabilities(rng.uniform(size=20), k)

    @settings(max_examples=60)
    @given(
        arrays(np.float64, st.integers(2, 30), elements=st.floats(0, 100)),
        st.data(),
    )
    def test_property_budget_and_bounds(self, scores, data):
        k = data.draw(st.integers(1, scores.size))
        p = clipped_probabilities(scores, k)
        assert ((p >= -1e-12) & (p <= 1 + 1e-9)).all()
        assert p.sum() == pytest.approx(k, rel=1e-6, abs=1e-6)


class TestSampleWithReplacement:
    def test_count_and_probs(self, rng):
        probs = normalize_probabilities(np.arange(1.0, 6.0))
        idx, p_sel = sample_with_replacement(probs, 100, rng)
        assert idx.shape == (100,)
        np.testing.assert_allclose(p_sel, probs[idx])

    def test_zero_probability_never_sampled(self, rng):
        probs = np.array([0.0, 1.0])
        idx, _ = sample_with_replacement(probs, 50, rng)
        assert (idx == 1).all()

    def test_invalid_count(self, rng):
        with pytest.raises(ValueError):
            sample_with_replacement(np.array([1.0]), 0, rng)

    def test_empirical_frequencies(self):
        rng = np.random.default_rng(0)
        probs = np.array([0.7, 0.2, 0.1])
        idx, _ = sample_with_replacement(probs, 20_000, rng)
        freq = np.bincount(idx, minlength=3) / 20_000
        np.testing.assert_allclose(freq, probs, atol=0.02)


class TestNonFiniteGuards:
    def test_clipped_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            clipped_probabilities(np.array([1.0, np.nan, 2.0]), 2)

    def test_clipped_rejects_inf(self):
        with pytest.raises(ValueError, match="finite"):
            clipped_probabilities(np.array([1.0, np.inf]), 1)

    def test_normalize_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            normalize_probabilities(np.array([np.nan, 1.0]))

    def test_subnormal_scores_respect_budget(self):
        """Regression: subnormal scores once overflowed λ and mis-clipped
        every entry, breaking Σp = k."""
        tiny = np.full(2, 2.22507386e-309)
        p = clipped_probabilities(tiny, 1)
        np.testing.assert_allclose(p, 0.5)
        assert p.sum() == pytest.approx(1.0)

    def test_mixed_subnormal_tail_respects_budget(self):
        """Regression: a subnormal tail after clipping the head once
        overflowed λ on the second waterfilling pass."""
        scores = np.array([1.0, 2.22507386e-309, 2.22507386e-309])
        p = clipped_probabilities(scores, 2)
        assert p[0] == pytest.approx(1.0)
        np.testing.assert_allclose(p[1:], 0.5)
        assert p.sum() == pytest.approx(2.0)
