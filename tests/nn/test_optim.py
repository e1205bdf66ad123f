"""Unit tests for repro.nn.optim — dense and sparse-column updates."""

import numpy as np
import pytest

from repro.nn.optim import SGD, Adagrad, Adam, Momentum, get_optimizer


@pytest.fixture
def param():
    return np.ones((4, 6))


@pytest.fixture
def grad():
    rng = np.random.default_rng(0)
    return rng.normal(size=(4, 6))


class TestSGD:
    def test_dense_step(self, param, grad):
        opt = SGD(lr=0.1)
        expected = param - 0.1 * grad
        opt.update("w", param, grad)
        np.testing.assert_allclose(param, expected)

    def test_column_step_touches_only_selected(self, param, grad):
        opt = SGD(lr=0.1)
        cols = np.array([1, 4])
        before = param.copy()
        opt.update("w", param, grad[:, cols], index=cols)
        untouched = np.setdiff1d(np.arange(6), cols)
        np.testing.assert_array_equal(param[:, untouched], before[:, untouched])
        np.testing.assert_allclose(
            param[:, cols], before[:, cols] - 0.1 * grad[:, cols]
        )

    def test_bias_column_step(self):
        opt = SGD(lr=1.0)
        b = np.zeros(5)
        opt.update("b", b, np.array([2.0, 3.0]), index=np.array([0, 4]))
        np.testing.assert_allclose(b, [-2.0, 0.0, 0.0, 0.0, -3.0])

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            SGD(lr=0.0)


    def test_row_local_unless_clipped(self):
        assert SGD(0.1).row_local
        assert SGD(0.1, weight_decay=0.01).row_local
        assert not SGD(0.1, max_grad_norm=1.0).row_local
        for opt in (Momentum(0.1), Adagrad(0.1), Adam(0.1)):
            assert not opt.row_local

    def test_row_block_updates_equal_the_whole_update(self, grad):
        whole = np.random.default_rng(5).normal(size=(4, 6))
        blocked = whole.copy()
        opt = SGD(0.1, weight_decay=0.2)
        opt.update("w", whole, grad)
        for rows in (slice(0, 3), slice(3, 4)):
            opt.update("w", blocked[rows], grad[rows])
        assert np.array_equal(blocked, whole)


class TestMomentum:
    def test_accumulates_velocity(self):
        opt = Momentum(lr=1.0, beta=0.5)
        p = np.zeros(1)
        g = np.ones(1)
        opt.update("p", p, g)  # v=1, p=-1
        opt.update("p", p, g)  # v=1.5, p=-2.5
        assert p[0] == pytest.approx(-2.5)

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            Momentum(lr=0.1, beta=1.0)

    def test_sparse_state_isolated_per_column(self):
        opt = Momentum(lr=1.0, beta=0.9)
        p = np.zeros((2, 3))
        g = np.ones((2, 1))
        opt.update("w", p, g, index=np.array([0]))
        opt.update("w", p, g, index=np.array([0]))
        # Column 0 has momentum 1.9 cumulative; others untouched.
        assert p[0, 0] == pytest.approx(-2.9)
        assert p[0, 1] == 0.0


class TestAdagrad:
    def test_step_size_shrinks(self):
        opt = Adagrad(lr=1.0)
        p = np.zeros(1)
        g = np.ones(1)
        opt.update("p", p, g)
        first = -p[0]
        before = p[0]
        opt.update("p", p, g)
        second = before - p[0]
        assert second < first

    def test_first_step_is_lr(self):
        opt = Adagrad(lr=0.5)
        p = np.zeros(1)
        opt.update("p", p, np.array([2.0]))
        assert p[0] == pytest.approx(-0.5, rel=1e-6)


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        """Bias correction makes the first Adam step ≈ lr in magnitude."""
        opt = Adam(lr=0.01)
        p = np.zeros(3)
        opt.update("p", p, np.array([10.0, -3.0, 0.5]))
        np.testing.assert_allclose(np.abs(p), 0.01, rtol=1e-4)

    def test_lazy_column_step_counts(self):
        """Column step counters advance independently (lazy Adam)."""
        opt = Adam(lr=0.1)
        p = np.zeros((2, 3))
        g = np.ones((2, 1))
        opt.update("w", p, g, index=np.array([0]))
        opt.update("w", p, g, index=np.array([0]))
        opt.update("w", p, np.ones((2, 1)), index=np.array([2]))
        state = opt._state["w"]
        assert state["t"][0] == 2
        assert state["t"][1] == 0
        assert state["t"][2] == 1
        # Column 2's single update should look like a fresh first step.
        assert abs(p[0, 2]) == pytest.approx(0.1, rel=1e-4)

    def test_dense_and_sparse_interleave(self):
        opt = Adam(lr=0.1)
        p = np.zeros((2, 2))
        opt.update("w", p, np.ones((2, 2)))
        opt.update("w", p, np.ones((2, 1)), index=np.array([1]))
        state = opt._state["w"]
        np.testing.assert_array_equal(state["t"], [1, 2])

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam(lr=0.1, beta1=1.0)

    @staticmethod
    def _textbook(opt, m, v, t, grad):
        """One out-of-place Adam step: (new m, new v, step)."""
        m = opt.beta1 * m + (1 - opt.beta1) * grad
        v = opt.beta2 * v + (1 - opt.beta2) * grad * grad
        m_hat = m / (1.0 - opt.beta1**t)
        v_hat = v / (1.0 - opt.beta2**t)
        return m, v, opt.lr * m_hat / (np.sqrt(v_hat) + opt.eps)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize(
        "index",
        [None, np.array([0, 3, 4]), slice(1, 4)],
        ids=["dense", "columns", "column-slice"],
    )
    def test_in_place_step_is_bitwise_the_textbook_step(self, order, index):
        """The in-place arithmetic keeps the textbook's operation order,
        leaves the caller's gradient alone and never aliases the state."""
        rng = np.random.default_rng(4)
        opt = Adam(lr=0.01)
        p = np.asarray(rng.normal(size=(5, 6)), order=order)
        cols = slice(None) if index is None else index
        m, v = np.zeros((5, 6)), np.zeros((5, 6))
        expected = p.copy()
        for t in (1, 2, 3):
            grad = np.asarray(rng.normal(size=(5, 6))[:, cols], order=order)
            kept = grad.copy()
            m_c, v_c, step = self._textbook(opt, m[:, cols], v[:, cols], t, grad)
            m[:, cols], v[:, cols] = m_c, v_c
            expected[:, cols] -= step
            opt.update("w", p, grad, index=index)
            assert np.array_equal(grad, kept)
            state = opt._state["w"]
            assert np.array_equal(state["m"], m)
            assert np.array_equal(state["v"], v)
            assert np.array_equal(p, expected)

    def test_float32_gradient_keeps_its_rounding(self):
        opt = Adam(lr=0.01)
        p = np.zeros(4)
        grad = np.array([0.3, -1.7, 2.2, 1e-3], dtype=np.float32)
        _, _, step = self._textbook(opt, np.zeros(4), np.zeros(4), 1, grad)
        opt.update("b", p, grad)
        assert np.array_equal(p, -step)


class TestConvergence:
    @pytest.mark.parametrize("name", ["sgd", "momentum", "adagrad", "adam"])
    def test_minimises_quadratic(self, name):
        """Every optimiser should make progress on f(p) = ||p - t||^2."""
        target = np.array([1.0, -2.0, 3.0])
        p = np.zeros(3)
        opt = get_optimizer(name, lr=0.1)
        # Adagrad's step decays like 1/sqrt(t); give it more iterations.
        for _ in range(2000 if name == "adagrad" else 300):
            grad = 2.0 * (p - target)
            opt.update("p", p, grad)
        np.testing.assert_allclose(p, target, atol=0.1)


class TestRegistry:
    def test_lookup(self):
        assert isinstance(get_optimizer("adam", 0.1), Adam)

    def test_instance_passthrough(self):
        opt = SGD(0.1)
        assert get_optimizer(opt, 0.5) is opt

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown optimizer"):
            get_optimizer("lion", 0.1)

    def test_reset_clears_state(self):
        opt = Adam(lr=0.1)
        p = np.zeros(2)
        opt.update("p", p, np.ones(2))
        opt.reset()
        assert not opt._state


class TestWeightDecay:
    def test_sgd_decoupled_decay(self):
        opt = SGD(lr=0.1)
        opt.weight_decay = 0.5
        p = np.full(3, 2.0)
        opt.update("p", p, np.zeros(3))
        # p <- p * (1 - lr*wd) = 2 * 0.95
        np.testing.assert_allclose(p, 1.9)

    def test_constructor_kwarg(self):
        opt = get_optimizer("adam", 0.1, weight_decay=0.01)
        assert opt.weight_decay == 0.01

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SGD(lr=0.1, weight_decay=-0.1)

    def test_sparse_decay_only_touched_columns(self):
        opt = SGD(lr=0.1, weight_decay=1.0)
        p = np.ones((2, 4))
        opt.update("w", p, np.zeros((2, 1)), index=np.array([2]))
        np.testing.assert_allclose(p[:, 2], 0.9)
        np.testing.assert_allclose(p[:, [0, 1, 3]], 1.0)


class TestGradClipping:
    def test_large_gradient_clipped(self):
        opt = SGD(lr=1.0, max_grad_norm=1.0)
        p = np.zeros(2)
        opt.update("p", p, np.array([30.0, 40.0]))  # norm 50 -> scaled to 1
        np.testing.assert_allclose(np.linalg.norm(p), 1.0)
        np.testing.assert_allclose(p, [-0.6, -0.8])

    def test_small_gradient_untouched(self):
        opt = SGD(lr=1.0, max_grad_norm=10.0)
        p = np.zeros(2)
        opt.update("p", p, np.array([0.3, 0.4]))
        np.testing.assert_allclose(p, [-0.3, -0.4])

    def test_zero_gradient_safe(self):
        opt = SGD(lr=1.0, max_grad_norm=1.0)
        p = np.ones(2)
        opt.update("p", p, np.zeros(2))
        np.testing.assert_allclose(p, 1.0)

    def test_invalid_norm(self):
        with pytest.raises(ValueError):
            SGD(lr=0.1, max_grad_norm=0.0)

    def test_clipping_stabilises_deep_mc(self, tiny_dataset):
        """The practical payoff: gradient clipping lets deep MC-approx run
        at a learning rate that would otherwise risk divergence."""
        from repro.core.mc_approx import MCApproxTrainer
        from repro.nn.network import MLP
        from repro.nn.optim import SGD as SGDOpt

        net = MLP([tiny_dataset.input_dim] + [32] * 5 + [tiny_dataset.n_classes],
                  seed=0)
        opt = SGDOpt(lr=5e-2, max_grad_norm=1.0)
        trainer = MCApproxTrainer(net, optimizer=opt, k=10,
                                  min_node_samples=4, seed=1)
        history = trainer.fit(
            tiny_dataset.x_train, tiny_dataset.y_train, epochs=3, batch_size=20
        )
        assert np.isfinite(history.losses()).all()
