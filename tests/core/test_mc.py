"""Tests for the MC-APPROX trainer."""

import numpy as np
import pytest

import repro.core.mc_approx as mc
from repro.approx.bernoulli import bernoulli_probabilities, bernoulli_sample
from repro.backend import active_backend
from repro.core.mc_approx import MCApproxTrainer, _row_blocks
from repro.core.standard import StandardTrainer
from repro.nn.losses import NLLLoss
from repro.nn.network import MLP
from repro.nn.optim import SGD, Adam, Momentum
from repro.obs import InMemoryRecorder


class TestValidation:
    def test_invalid_k(self):
        with pytest.raises(ValueError):
            MCApproxTrainer(MLP([4, 3, 2], seed=0), k=0)

    def test_invalid_node_frac(self):
        with pytest.raises(ValueError):
            MCApproxTrainer(MLP([4, 3, 2], seed=0), node_frac=0.0)


class TestSampledMatmul:
    def test_full_budget_exact(self, rng):
        trainer = MCApproxTrainer(MLP([4, 3, 2], seed=0), seed=1)
        a = rng.normal(size=(5, 10))
        b = rng.normal(size=(10, 6))
        np.testing.assert_allclose(
            trainer._sampled_matmul(a, b, 10), a @ b, atol=1e-10
        )

    def test_budget_clipped_to_inner_dim(self, rng):
        trainer = MCApproxTrainer(MLP([4, 3, 2], seed=0), seed=1)
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(3, 2))
        # budget 50 > inner dim 3: must behave like exact.
        np.testing.assert_allclose(
            trainer._sampled_matmul(a, b, 50), a @ b, atol=1e-10
        )

    def test_unbiased_estimate(self, rng):
        trainer = MCApproxTrainer(MLP([4, 3, 2], seed=0), seed=1)
        a = rng.normal(size=(4, 20))
        b = rng.normal(size=(20, 3))
        exact = a @ b
        acc = np.zeros_like(exact)
        n = 600
        for _ in range(n):
            acc += trainer._sampled_matmul(a, b, 5)
        err = np.linalg.norm(acc / n - exact, "fro") / np.linalg.norm(exact, "fro")
        assert err < 0.15


class TestGradientFidelity:
    def test_expected_update_tracks_exact_gradient(self, rng):
        """The mean MC weight update must align with the exact gradient
        direction (cosine similarity near 1)."""
        x = rng.normal(size=(16, 10))
        y = rng.integers(0, 3, 16)
        ref = MLP([10, 12, 3], seed=0)
        exact_grads = ref.backward(ref.forward(x), y)
        lr = 0.1
        n_trials = 200
        mean_update = [np.zeros_like(layer.W) for layer in ref.layers]
        for t in range(n_trials):
            net = MLP([10, 12, 3], seed=0)
            trainer = MCApproxTrainer(net, lr=lr, k=6, node_frac=0.5, seed=t)
            trainer.train_batch(x, y)
            for i, layer in enumerate(net.layers):
                mean_update[i] += ref.layers[i].W - layer.W  # = lr * grad_est
        for i, (g_w, _) in enumerate(exact_grads):
            est = mean_update[i] / (n_trials * lr)
            cos = (est * g_w).sum() / (
                np.linalg.norm(est) * np.linalg.norm(g_w)
            )
            assert cos > 0.95, f"layer {i} cosine {cos}"

    def test_full_budget_matches_standard(self, rng):
        """k and node_frac at full budget make MC-approx identical to the
        exact trainer (sampling keeps everything, scales are 1)."""
        x = rng.normal(size=(4, 8))
        y = rng.integers(0, 3, 4)
        net_a = MLP([8, 6, 3], seed=0)
        net_b = MLP([8, 6, 3], seed=0)
        MCApproxTrainer(net_a, lr=0.1, k=100, node_frac=1.0, seed=1).train_batch(x, y)
        StandardTrainer(net_b, lr=0.1, seed=1).train_batch(x, y)
        for la, lb in zip(net_a.layers, net_b.layers):
            np.testing.assert_allclose(la.W, lb.W, atol=1e-10)
            np.testing.assert_allclose(la.b, lb.b, atol=1e-10)


class TestTraining:
    def test_learns_minibatch(self, tiny_dataset):
        net = MLP([tiny_dataset.input_dim, 48, tiny_dataset.n_classes], seed=0)
        trainer = MCApproxTrainer(net, lr=1e-2, k=10, seed=1)
        trainer.fit(
            tiny_dataset.x_train, tiny_dataset.y_train, epochs=10, batch_size=20
        )
        assert trainer.evaluate(tiny_dataset.x_test, tiny_dataset.y_test) > 0.6

    def test_scales_with_depth(self, tiny_dataset):
        """Unlike ALSH-approx, MC-approx keeps learning at depth (backprop-
        only approximation doesn't compound through the forward chain)."""
        net = MLP(
            [tiny_dataset.input_dim] + [32] * 5 + [tiny_dataset.n_classes], seed=0
        )
        trainer = MCApproxTrainer(net, lr=1e-2, k=10, seed=1)
        trainer.fit(
            tiny_dataset.x_train, tiny_dataset.y_train, epochs=12, batch_size=20
        )
        assert trainer.evaluate(tiny_dataset.x_test, tiny_dataset.y_test) > 0.5

    def test_forward_pass_exact_by_default(self, rng):
        """The published method approximates only backprop: the training
        loss reported for a batch equals the exact network loss."""
        net = MLP([8, 6, 3], seed=0)
        trainer = MCApproxTrainer(net, lr=0.0001, seed=1)
        x = rng.normal(size=(3, 8))
        y = np.array([0, 1, 2])
        expected = net.loss(x, y)
        assert trainer.train_batch(x, y) == pytest.approx(expected)

    def test_forward_approximation_flag(self, rng):
        """approximate_forward=True perturbs the forward pass (the §10.1
        negative-result ablation)."""
        net = MLP([8, 20, 3], seed=0)
        trainer = MCApproxTrainer(
            net, lr=0.0001, node_frac=0.2, min_node_samples=1,
            approximate_forward=True, seed=1,
        )
        x = rng.normal(size=(3, 8))
        y = np.array([0, 1, 2])
        exact = net.loss(x, y)
        losses = [trainer.train_batch(x, y) for _ in range(5)]
        assert any(abs(l - exact) > 1e-9 for l in losses)


# ----------------------------------------------------------------------
# fused weight-gradient update
# ----------------------------------------------------------------------
#: The paper's network, 784 -> 1000^3 -> 10, at batch 20.
PAPER_SIZES = [784, 1000, 1000, 1000, 10]
BATCH = 20


def _whole_gradient_step(trainer, x, y):
    """One MC step the way it ran before row blocks: every weight
    gradient is built in full and handed to ``optimizer.update``.

    Same draws, in the same order, from the trainer's own stream.
    """
    layers = trainer.net.layers
    act = trainer.net.hidden_activation
    backend = active_backend()

    def sampled(a, b, budget):
        budget = min(max(budget, 1), a.shape[1])
        idx, scales = bernoulli_sample(
            bernoulli_probabilities(a, b, budget), trainer.rng
        )
        if idx.size == 0:
            return np.zeros((a.shape[0], b.shape[1]))
        return backend.sampled_matmul(a, b, idx, scales)

    activations, zs, a = [x], [], x
    for i, layer in enumerate(layers):
        zs.append(layer.forward(a))
        if i < len(layers) - 1:
            a = act.forward(zs[-1])
            activations.append(a)
    delta = NLLLoss.fused_logit_gradient(zs[-1], y)
    for i in range(len(layers) - 1, -1, -1):
        layer = layers[i]
        g_w = sampled(activations[i].T, delta, min(trainer.k, x.shape[0]))
        g_b = delta.sum(axis=0)
        if i > 0:
            da = sampled(delta, layer.W.T, trainer._node_budget(layer.n_out))
            delta = da * act.derivative(zs[i - 1])
        trainer.optimizer.update(("W", i), layer.W, g_w)
        trainer.optimizer.update(("b", i), layer.b, g_b)


def _twin_steps(sizes, make_optimizer, steps=1, seed=0):
    """(fused trainer, whole-gradient twin) after ``steps`` batches."""
    rng = np.random.default_rng(seed)
    x = np.maximum(rng.normal(size=(steps * BATCH, sizes[0])), 0.0)
    y = rng.integers(0, sizes[-1], steps * BATCH)
    fused = MCApproxTrainer(
        MLP(sizes, seed=0), optimizer=make_optimizer(), seed=1
    )
    whole = MCApproxTrainer(
        MLP(sizes, seed=0), optimizer=make_optimizer(), seed=1
    )
    for s in range(0, steps * BATCH, BATCH):
        fused.train_batch(x[s : s + BATCH], y[s : s + BATCH])
        _whole_gradient_step(whole, x[s : s + BATCH], y[s : s + BATCH])
    return fused, whole


def _assert_same_weights(a, b):
    for la, lb in zip(a.net.layers, b.net.layers):
        assert np.array_equal(la.W, lb.W)
        assert np.array_equal(la.b, lb.b)


class TestRowBlocks:
    def test_blocks_cover_rows_in_order(self):
        for n_rows in (1, 2, 31, 32, 33, 64, 784, 801, 1000):
            blocks = _row_blocks(n_rows, 8000)
            assert blocks[0].start == 0 and blocks[-1].stop == n_rows
            for lo, hi in zip(blocks, blocks[1:]):
                assert lo.stop == hi.start

    def test_no_one_row_block_in_a_multi_row_matrix(self):
        rows_per_block = mc.FUSED_BLOCK_BYTES // 8000
        blocks = _row_blocks(rows_per_block * 3 + 1, 8000)
        assert len(blocks) == 3
        assert blocks[-1].stop - blocks[-1].start == rows_per_block + 1
        assert _row_blocks(1, 8000) == [slice(0, 1)]

    def test_small_matrix_is_one_block(self):
        assert _row_blocks(1000, 80) == [slice(0, 1000)]


class TestFusedUpdate:
    """Row-local optimisers take the weight gradient in row blocks; the
    step must be bitwise the one that builds each gradient whole."""

    @pytest.mark.parametrize(
        "sizes, make_optimizer",
        [
            (PAPER_SIZES, lambda: SGD(1e-3)),
            (PAPER_SIZES, lambda: SGD(1e-3, weight_decay=0.01)),
            # 801 rows: 25 full blocks and a one-row remainder.
            ([801, 1000, 1000, 1000, 10], lambda: SGD(1e-3)),
        ],
        ids=["sgd", "sgd-weight-decay", "one-row-remainder"],
    )
    def test_paper_width_step_matches_whole_gradient(self, sizes, make_optimizer):
        assert make_optimizer().row_local
        assert len(_row_blocks(sizes[0], 8 * sizes[1])) > 1
        fused, whole = _twin_steps(sizes, make_optimizer)
        _assert_same_weights(fused, whole)
        assert np.array_equal(
            fused.rng.bit_generator.state["state"]["state"],
            whole.rng.bit_generator.state["state"]["state"],
        )

    @pytest.mark.parametrize(
        "make_optimizer",
        [
            lambda: Momentum(1e-3),
            lambda: Adam(1e-3),
            lambda: SGD(1e-3, max_grad_norm=1.0),
        ],
        ids=["momentum", "adam", "clipped-sgd"],
    )
    def test_other_optimisers_take_the_whole_gradient(self, make_optimizer):
        assert not make_optimizer().row_local
        fused, whole = _twin_steps(PAPER_SIZES, make_optimizer, steps=2)
        _assert_same_weights(fused, whole)

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_empty_weight_gradient_draw(self, monkeypatch, weight_decay):
        """An empty draw estimates a zero gradient: ``W`` only decays."""

        def draw(probs, rng):
            idx, scales = bernoulli_sample(probs, rng)
            if probs.size == BATCH:  # the weight-gradient draw
                return idx[:0], scales[:0]
            return idx, scales

        monkeypatch.setattr(mc, "bernoulli_sample", draw)
        sizes = [300, 400, 10]
        assert len(_row_blocks(sizes[0], 8 * sizes[1])) > 1
        trainer = MCApproxTrainer(
            MLP(sizes, seed=0),
            optimizer=SGD(1e-3, weight_decay=weight_decay),
            seed=1,
        )
        before = [layer.W.copy() for layer in trainer.net.layers]
        rng = np.random.default_rng(2)
        trainer.train_batch(
            rng.normal(size=(BATCH, sizes[0])), rng.integers(0, 10, BATCH)
        )
        for w0, layer in zip(before, trainer.net.layers):
            expected = w0.copy()
            expected *= 1.0 - 1e-3 * weight_decay
            assert np.array_equal(layer.W, expected)

    def test_traced_step_counts_each_product_once(self):
        """Counters of a traced paper-width step equal those of the
        whole-gradient path: one dense update per parameter, one
        sampled product's FLOPs and gathered bytes per product."""

        class WholeSGD(SGD):
            row_local = False

        recorders, trainers = [], []
        for opt in (SGD(1e-3), WholeSGD(1e-3)):
            rec = InMemoryRecorder()
            trainer = MCApproxTrainer(
                MLP(PAPER_SIZES, seed=0), optimizer=opt, seed=1, recorder=rec
            )
            rng = np.random.default_rng(3)
            trainer.train_batch(
                np.maximum(rng.normal(size=(BATCH, 784)), 0.0),
                rng.integers(0, 10, BATCH),
            )
            recorders.append(rec.snapshot())
            trainers.append(trainer)
        fused, whole = recorders
        for name in (
            "optim.dense_updates",
            "kernel.flops.sampled_matmul",
            "mem.gather_bytes",
        ):
            assert fused["counters"][name] == whole["counters"][name], name
        assert fused["counters"]["optim.dense_updates"] == 2 * (len(PAPER_SIZES) - 1)
        # The fused step really ran in blocks.
        calls = lambda snap: snap["timings"]["kernel.sampled_matmul"]["count"]
        assert calls(fused) > calls(whole)
        _assert_same_weights(*trainers)
