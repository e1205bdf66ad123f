"""Unit and property tests for repro.nn.layers.DenseLayer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.layers import DenseLayer


@pytest.fixture
def layer(rng):
    return DenseLayer(6, 4, rng)


class TestConstruction:
    def test_shapes(self, layer):
        assert layer.W.shape == (6, 4)
        assert layer.b.shape == (4,)

    def test_bias_starts_zero(self, layer):
        assert not layer.b.any()

    @pytest.mark.parametrize("n_in,n_out", [(0, 3), (3, 0), (-1, 2)])
    def test_invalid_dims(self, n_in, n_out, rng):
        with pytest.raises(ValueError):
            DenseLayer(n_in, n_out, rng)

    def test_num_params(self, layer):
        assert layer.num_params() == 6 * 4 + 4


class TestForward:
    def test_matches_manual(self, layer, rng):
        x = rng.normal(size=(3, 6))
        np.testing.assert_allclose(layer.forward(x), x @ layer.W + layer.b)

    def test_forward_rows_all_rows_is_exact(self, layer, rng):
        x = rng.normal(size=(2, 6))
        rows = np.arange(6)
        np.testing.assert_allclose(
            layer.forward_rows(x, rows), layer.forward(x), atol=1e-12
        )

    def test_forward_rows_with_scaling(self, layer, rng):
        x = rng.normal(size=(1, 6))
        rows = np.array([1, 3])
        scale = np.array([2.0, 0.5])
        expected = (x[:, rows] * scale) @ layer.W[rows, :] + layer.b
        np.testing.assert_allclose(
            layer.forward_rows(x, rows, scale), expected, atol=1e-12
        )


class TestBackward:
    def test_weight_gradients_match_finite_difference(self, rng):
        layer = DenseLayer(4, 3, rng)
        x = rng.normal(size=(2, 4))
        delta = rng.normal(size=(2, 3))
        g_w, g_b = layer.weight_gradients(x, delta)
        # d/dW of sum(delta * (xW + b)) is x^T delta.
        eps = 1e-6
        for i in range(4):
            for j in range(3):
                w_plus = layer.W.copy()
                w_plus[i, j] += eps
                w_minus = layer.W.copy()
                w_minus[i, j] -= eps
                f_plus = float((delta * (x @ w_plus + layer.b)).sum())
                f_minus = float((delta * (x @ w_minus + layer.b)).sum())
                assert g_w[i, j] == pytest.approx(
                    (f_plus - f_minus) / (2 * eps), abs=1e-5
                )
        np.testing.assert_allclose(g_b, delta.sum(axis=0))

    def test_backprop_delta(self, layer, rng):
        delta = rng.normal(size=(2, 4))
        np.testing.assert_allclose(layer.backprop_delta(delta), delta @ layer.W.T)


class TestUtilities:
    def test_column_norms(self, layer):
        np.testing.assert_allclose(
            layer.column_norms(), np.linalg.norm(layer.W, axis=0)
        )

    @settings(max_examples=25)
    @given(
        n_in=st.integers(1, 10),
        n_out=st.integers(1, 10),
        batch=st.integers(1, 5),
        seed=st.integers(0, 10**6),
    )
    def test_forward_shape_property(self, n_in, n_out, batch, seed):
        rng = np.random.default_rng(seed)
        layer = DenseLayer(n_in, n_out, rng)
        x = rng.normal(size=(batch, n_in))
        assert layer.forward(x).shape == (batch, n_out)
