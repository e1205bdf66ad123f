"""Tests for the empirical layerwise error measurement."""

import numpy as np
import pytest

from repro.core.alsh_approx import ALSHApproxTrainer
from repro.nn.network import MLP
from repro.theory.analysis import (
    make_alsh_selector,
    make_random_selector,
    make_topk_selector,
    measure_layerwise_error,
)


@pytest.fixture
def net():
    return MLP([16] + [32] * 4 + [3], seed=0)


class TestSelectors:
    def test_topk_budget(self, net, rng):
        selector = make_topk_selector(net, 0.25)
        cols = selector(0, rng.normal(size=16))
        assert cols.size == 8

    def test_topk_actually_top(self, net, rng):
        selector = make_topk_selector(net, 0.25)
        a = rng.normal(size=16)
        cols = set(selector(0, a).tolist())
        scores = np.abs(a @ net.layers[0].W)
        true_top = set(np.argsort(-scores)[:8].tolist())
        assert cols == true_top

    def test_random_selector_budget(self, net, rng):
        selector = make_random_selector(net, 0.5, seed=1)
        assert selector(1, rng.normal(size=32)).size == 16

    def test_invalid_fracs(self, net):
        with pytest.raises(ValueError):
            make_topk_selector(net, 0.0)
        with pytest.raises(ValueError):
            make_random_selector(net, 1.5)

    def test_alsh_selector_wraps_trainer(self, net, rng):
        trainer = ALSHApproxTrainer(net, seed=2)
        selector = make_alsh_selector(trainer)
        cols = selector(0, rng.normal(size=16))
        assert cols.size >= 1
        assert (cols < 32).all()

    def test_alsh_selector_leaves_trainer_untouched(self, net, rng):
        trainer = ALSHApproxTrainer(
            net, seed=2, min_active_frac=0.5, max_active_frac=0.5
        )
        rng_state = trainer.rng.bit_generator.state
        measure_layerwise_error(
            net, make_alsh_selector(trainer), rng.normal(size=(4, 16))
        )
        assert trainer.rng.bit_generator.state == rng_state
        assert trainer._active_count == 0


class TestMeasurement:
    def test_full_budget_zero_error(self, net, rng):
        selector = make_topk_selector(net, 1.0)
        errors = measure_layerwise_error(net, selector, rng.normal(size=(5, 16)))
        np.testing.assert_allclose(errors, 0.0, atol=1e-10)

    def test_errors_grow_with_depth(self, net, rng):
        """The §7 compounding shows up empirically even for the oracle
        selector on a ReLU network."""
        selector = make_topk_selector(net, 0.4)
        errors = measure_layerwise_error(net, selector, rng.normal(size=(20, 16)))
        assert errors[-1] > errors[0]

    def test_topk_beats_random(self, net, rng):
        """MIPS-style selection is strictly better than blind sampling at
        the same budget."""
        x = rng.normal(size=(20, 16))
        topk = measure_layerwise_error(net, make_topk_selector(net, 0.3), x)
        random = measure_layerwise_error(
            net, make_random_selector(net, 0.3, seed=3), x
        )
        assert topk.mean() < random.mean()

    def test_output_shape(self, net, rng):
        errors = measure_layerwise_error(
            net, make_topk_selector(net, 0.5), rng.normal(size=(3, 16))
        )
        assert errors.shape == (4,)

    def test_no_hidden_layers_rejected(self, rng):
        shallow = MLP([8, 3], seed=0)
        with pytest.raises(ValueError):
            measure_layerwise_error(
                shallow, make_topk_selector(shallow, 0.5), rng.normal(size=(2, 8))
            )
