"""Tests for the DROPOUT trainer (current-layer uniform sampling)."""

import numpy as np
import pytest

from repro.core.alsh_approx import ALSHApproxTrainer
from repro.core.dropout import DropoutTrainer
from repro.core.topk_approx import TopKApproxTrainer
from repro.nn.network import MLP

#: Column-sampled trainers configured to keep every hidden node, with
#: the batch size their step is defined on (top-k and ALSH select per
#: sample; dropout shares one mask across the batch).
KEEP_ALL = {
    "dropout": (
        lambda net: DropoutTrainer(net, lr=0.5, keep_prob=1.0, seed=1),
        3,
    ),
    "topk": (
        lambda net: TopKApproxTrainer(
            net, lr=0.5, optimizer="sgd", active_frac=1.0, seed=1
        ),
        1,
    ),
    "alsh": (
        lambda net: ALSHApproxTrainer(
            net, lr=0.5, optimizer="sgd", min_active_frac=1.0,
            max_active_frac=1.0, seed=1,
        ),
        1,
    ),
}


class TestValidation:
    def test_invalid_keep_prob(self):
        net = MLP([4, 3, 2], seed=0)
        with pytest.raises(ValueError):
            DropoutTrainer(net, keep_prob=0.0)
        with pytest.raises(ValueError):
            DropoutTrainer(net, keep_prob=1.5)

    def test_invalid_min_active(self):
        net = MLP([4, 3, 2], seed=0)
        with pytest.raises(ValueError):
            DropoutTrainer(net, min_active=0)


class TestSampling:
    def test_active_set_size_distribution(self):
        net = MLP([4, 100, 2], seed=0)
        trainer = DropoutTrainer(net, keep_prob=0.3, seed=1)
        sizes = [trainer._select_active(0, np.zeros(4)).size for _ in range(300)]
        assert np.mean(sizes) == pytest.approx(30, abs=3)

    def test_min_active_enforced(self):
        net = MLP([4, 100, 2], seed=0)
        trainer = DropoutTrainer(net, keep_prob=0.001, min_active=5, seed=1)
        for _ in range(50):
            assert trainer._select_active(0, np.zeros(4)).size >= 5


class TestTraining:
    @pytest.mark.parametrize("method", sorted(KEEP_ALL))
    def test_keep_prob_one_matches_standard_updates(self, rng, method):
        """With every node kept, a column-sampled step must equal the
        exact trainer's on every layer: each hidden layer backpropagates
        through its pre-update weights, as exact backprop does."""
        from repro.core.standard import StandardTrainer

        build, batch = KEEP_ALL[method]
        x = rng.normal(size=(3, 16))
        y = rng.integers(0, 3, 3)
        net_a = MLP([16, 12, 12, 3], seed=0)
        net_b = MLP([16, 12, 12, 3], seed=0)
        sampled = build(net_a)
        exact = StandardTrainer(net_b, lr=0.5, seed=1)
        for s in range(0, len(y), batch):
            sampled.train_batch(x[s : s + batch], y[s : s + batch])
            exact.train_batch(x[s : s + batch], y[s : s + batch])
        for la, lb in zip(net_a.layers, net_b.layers):
            np.testing.assert_allclose(la.W, lb.W, atol=1e-10)
            np.testing.assert_allclose(la.b, lb.b, atol=1e-10)

    def test_inactive_columns_untouched(self, rng):
        """Weights of dropped hidden nodes must not change in a step."""
        net = MLP([6, 40, 3], seed=0)
        trainer = DropoutTrainer(net, lr=0.5, keep_prob=0.1, seed=2)
        w_before = net.layers[0].W.copy()
        # Capture the sampled set by seeding the trainer's rng fork.
        probe = DropoutTrainer(net, lr=0.5, keep_prob=0.1, seed=2)
        cols = probe._select_active(0, np.zeros(6))
        trainer.train_batch(rng.normal(size=(1, 6)), np.array([0]))
        inactive = np.setdiff1d(np.arange(40), cols)
        np.testing.assert_array_equal(
            net.layers[0].W[:, inactive], w_before[:, inactive]
        )

    def test_learns_with_moderate_keep_prob(self, tiny_dataset):
        net = MLP([tiny_dataset.input_dim, 64, tiny_dataset.n_classes], seed=0)
        trainer = DropoutTrainer(net, lr=1e-2, keep_prob=0.5, seed=1)
        trainer.fit(
            tiny_dataset.x_train, tiny_dataset.y_train, epochs=10, batch_size=10
        )
        assert trainer.evaluate(tiny_dataset.x_test, tiny_dataset.y_test) > 0.5

    def test_tiny_keep_prob_hurts(self, hard_dataset):
        """The paper's p=0.05 fair-comparison setting cripples dropout
        relative to exact training (Table 2)."""
        from repro.core.standard import StandardTrainer

        def run(cls, **kw):
            net = MLP([hard_dataset.input_dim, 64, 64, hard_dataset.n_classes], seed=0)
            tr = cls(net, lr=1e-2, seed=1, **kw)
            tr.fit(hard_dataset.x_train, hard_dataset.y_train, epochs=5, batch_size=10)
            return tr.evaluate(hard_dataset.x_test, hard_dataset.y_test)

        assert run(DropoutTrainer, keep_prob=0.05) < run(StandardTrainer)

    def test_predict_scales_hidden_activations(self, rng):
        """Inference must apply the keep_prob weight-scaling rule."""
        net = MLP([6, 5, 3], seed=0)
        trainer = DropoutTrainer(net, keep_prob=0.4, seed=1)
        x = rng.normal(size=(4, 6))
        # Manual scaled forward.
        a = x
        a = net.hidden_activation.forward(net.layers[0].forward(a)) * 0.4
        logits = net.layers[1].forward(a)
        np.testing.assert_array_equal(trainer.predict(x), logits.argmax(axis=1))

    def test_loss_returned_finite(self, rng):
        net = MLP([6, 10, 3], seed=0)
        trainer = DropoutTrainer(net, lr=0.1, keep_prob=0.3, seed=1)
        loss = trainer.train_batch(rng.normal(size=(2, 6)), np.array([0, 2]))
        assert np.isfinite(loss)
