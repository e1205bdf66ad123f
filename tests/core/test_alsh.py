"""Tests for the ALSH-APPROX trainer."""

import numpy as np
import pytest

from repro.core.alsh_approx import ALSHApproxTrainer
from repro.lsh.rebuild import RebuildScheduler
from repro.nn.network import MLP


def make_trainer_and_net(depth=2, width=40, seed=0, **kwargs):
    net = MLP([20] + [width] * depth + [4], seed=seed)
    trainer = ALSHApproxTrainer(net, lr=1e-3, seed=seed + 1, **kwargs)
    return trainer, net


class TestValidation:
    def test_invalid_active_fractions(self):
        net = MLP([8, 6, 3], seed=0)
        with pytest.raises(ValueError):
            ALSHApproxTrainer(net, min_active_frac=0.5, max_active_frac=0.2)
        with pytest.raises(ValueError):
            ALSHApproxTrainer(net, min_active_frac=0.0)


class TestIndexes:
    def test_one_index_per_hidden_layer(self):
        trainer, _ = make_trainer_and_net(depth=3)
        assert len(trainer.indexes) == 3
        assert trainer.n_hidden == 3

    def test_index_sized_to_layer(self):
        trainer, net = make_trainer_and_net(depth=2, width=40)
        assert len(trainer.indexes[0]) == 40
        assert trainer.indexes[0].dim == 20  # fan-in of layer 0
        assert trainer.indexes[1].dim == 40

    def test_memory_bytes(self):
        trainer, _ = make_trainer_and_net()
        assert trainer.index_memory_bytes() > 0


class TestActiveSelection:
    def test_bounds_respected(self, rng):
        trainer, net = make_trainer_and_net(
            depth=1, width=60, min_active_frac=0.1, max_active_frac=0.3
        )
        for _ in range(20):
            active = trainer._select_active(0, rng.normal(size=20))
            assert 6 <= active.size <= 18

    def test_active_fraction_tracked(self, rng):
        trainer, _ = make_trainer_and_net(depth=2)
        assert (trainer.average_active_fraction() == 0).all()
        trainer.train_batch(rng.normal(size=(1, 20)), np.array([0]))
        fracs = trainer.average_active_fraction()
        assert (fracs > 0).all()
        assert (fracs <= 1).all()


class TestInferenceIsReadOnly:
    """Sampled ``predict`` selects on a copy of the trainer's stream with
    ``record=False``: evaluating moves no state that training reads."""

    def test_validation_does_not_perturb_training(self, tiny_dataset):
        def fit(**val):
            net = MLP(
                [tiny_dataset.input_dim, 32, 32, tiny_dataset.n_classes], seed=0
            )
            trainer = ALSHApproxTrainer(net, seed=1)
            trainer.fit(
                tiny_dataset.x_train, tiny_dataset.y_train,
                epochs=2, batch_size=20, **val,
            )
            return trainer

        plain = fit()
        validated = fit(x_val=tiny_dataset.x_val, y_val=tiny_dataset.y_val)
        for i, (a, b) in enumerate(zip(plain.net.layers, validated.net.layers)):
            np.testing.assert_array_equal(a.W, b.W, err_msg=f"W{i}")
            np.testing.assert_array_equal(a.b, b.b, err_msg=f"b{i}")

    def test_predict_moves_no_trainer_state(self, rng):
        from repro.obs import InMemoryRecorder

        net = MLP([20, 40, 40, 4], seed=0)
        trainer = ALSHApproxTrainer(net, seed=1, recorder=InMemoryRecorder())
        trainer.train_batch(rng.normal(size=(3, 20)), np.array([0, 1, 2]))
        x = rng.normal(size=(6, 20))
        rng_state = trainer.rng.bit_generator.state
        active = trainer.average_active_fraction().copy()
        counters = trainer.obs.snapshot()["counters"]
        lsh_counters = {k: v for k, v in counters.items() if k.startswith("lsh.")}
        first = trainer.predict(x)
        np.testing.assert_array_equal(first, trainer.predict(x))
        assert trainer.rng.bit_generator.state == rng_state
        np.testing.assert_array_equal(trainer.average_active_fraction(), active)
        after = trainer.obs.snapshot()["counters"]
        assert {k: v for k, v in after.items() if k.startswith("lsh.")} == lsh_counters


class TestTraining:
    def test_inactive_columns_untouched_per_step(self, rng):
        """Only the active columns of a hidden layer may change."""
        trainer, net = make_trainer_and_net(depth=1, width=50, seed=3)
        w_before = net.layers[0].W.copy()
        trainer.train_batch(rng.normal(size=(1, 20)), np.array([1]))
        changed = np.nonzero(np.abs(net.layers[0].W - w_before).sum(axis=0))[0]
        lo, hi = trainer._bounds(50)
        assert changed.size <= hi

    def test_learns_shallow(self, tiny_dataset):
        """With 1 hidden layer ALSH-approx should learn above chance —
        the paper's depth-1 regime where it is competitive."""
        net = MLP([tiny_dataset.input_dim, 48, tiny_dataset.n_classes], seed=0)
        trainer = ALSHApproxTrainer(
            net, lr=1e-3, seed=1, max_active_frac=0.5, min_active_frac=0.1
        )
        trainer.fit(
            tiny_dataset.x_train, tiny_dataset.y_train, epochs=4, batch_size=1
        )
        assert trainer.evaluate(tiny_dataset.x_test, tiny_dataset.y_test) > 0.5

    def test_depth_degradation(self, hard_dataset):
        """The paper's headline negative result (Thm 7.2, Fig. 7): accuracy
        degrades sharply as hidden layers are added."""

        def run(depth):
            net = MLP(
                [hard_dataset.input_dim] + [48] * depth + [hard_dataset.n_classes],
                seed=0,
            )
            tr = ALSHApproxTrainer(net, lr=1e-3, seed=1)
            tr.fit(
                hard_dataset.x_train, hard_dataset.y_train, epochs=3, batch_size=1
            )
            return tr.evaluate(hard_dataset.x_test, hard_dataset.y_test)

        shallow = run(1)
        deep = run(5)
        assert shallow > deep + 0.1

    def test_rebuild_scheduler_consumed(self, rng):
        sched = RebuildScheduler(early_every=5, late_every=5, warmup_samples=0)
        net = MLP([20, 30, 4], seed=0)
        trainer = ALSHApproxTrainer(net, lr=1e-3, seed=1, rebuild=sched)
        x = rng.normal(size=(20, 20))
        y = rng.integers(0, 4, 20)
        trainer.train_batch(x, y)
        assert sched.rebuild_count == 4
        # Touched sets are flushed on rebuild.
        assert all(len(t) < 30 for t in trainer._touched)

    def test_batch_loops_per_sample(self, rng):
        trainer, _ = make_trainer_and_net()
        loss = trainer.train_batch(rng.normal(size=(3, 20)), np.array([0, 1, 2]))
        assert np.isfinite(loss)


class TestInference:
    def test_sampled_prediction_shape(self, rng):
        trainer, _ = make_trainer_and_net()
        preds = trainer.predict(rng.normal(size=(7, 20)))
        assert preds.shape == (7,)
        assert ((preds >= 0) & (preds < 4)).all()

    def test_exact_prediction_available(self, rng):
        trainer, net = make_trainer_and_net()
        x = rng.normal(size=(5, 20))
        np.testing.assert_array_equal(trainer.predict_exact(x), net.predict(x))


class TestUnionBatchMode:
    def test_invalid_mode_rejected(self):
        net = MLP([8, 6, 3], seed=0)
        with pytest.raises(ValueError, match="batch_mode"):
            ALSHApproxTrainer(net, batch_mode="mean")

    def test_union_step_runs_and_is_finite(self, rng):
        net = MLP([20, 40, 4], seed=0)
        trainer = ALSHApproxTrainer(net, lr=1e-3, seed=1, batch_mode="union")
        loss = trainer.train_batch(
            rng.normal(size=(16, 20)), rng.integers(0, 4, 16)
        )
        assert np.isfinite(loss)

    def test_union_respects_caps(self, rng):
        net = MLP([20, 60, 4], seed=0)
        trainer = ALSHApproxTrainer(
            net, seed=1, batch_mode="union",
            min_active_frac=0.1, max_active_frac=0.3,
        )
        cand = trainer._select_active(0, rng.normal(size=(12, 20)))
        assert 6 <= cand.size <= 18

    def test_union_learns(self, tiny_dataset):
        net = MLP([tiny_dataset.input_dim, 48, tiny_dataset.n_classes], seed=0)
        trainer = ALSHApproxTrainer(
            net, lr=1e-3, seed=1, batch_mode="union",
            min_active_frac=0.1, max_active_frac=0.5,
        )
        trainer.fit(
            tiny_dataset.x_train, tiny_dataset.y_train, epochs=6, batch_size=20
        )
        assert trainer.evaluate(tiny_dataset.x_test, tiny_dataset.y_test) > 0.5

    def test_union_faster_than_per_sample(self, tiny_dataset):
        """The point of the mode: vectorised batches beat the Python loop."""

        def epoch_time(mode):
            net = MLP([tiny_dataset.input_dim, 64, tiny_dataset.n_classes],
                      seed=0)
            trainer = ALSHApproxTrainer(net, seed=1, batch_mode=mode)
            best = min(
                trainer.fit(
                    tiny_dataset.x_train, tiny_dataset.y_train,
                    epochs=1, batch_size=20,
                ).total_time
                for _ in range(2)
            )
            return best

        assert epoch_time("union") < epoch_time("per_sample")

    def test_batch_size_one_falls_back_to_per_sample(self, rng):
        """Union mode with a single sample is exactly the per-sample path."""
        x = rng.normal(size=(1, 20))
        y = np.array([1])
        net_a = MLP([20, 30, 4], seed=0)
        net_b = MLP([20, 30, 4], seed=0)
        ALSHApproxTrainer(net_a, seed=5, batch_mode="union").train_batch(x, y)
        ALSHApproxTrainer(net_b, seed=5, batch_mode="per_sample").train_batch(x, y)
        for la, lb in zip(net_a.layers, net_b.layers):
            np.testing.assert_array_equal(la.W, lb.W)

    def test_union_touched_columns_tracked(self, rng):
        net = MLP([20, 40, 4], seed=0)
        trainer = ALSHApproxTrainer(net, seed=1, batch_mode="union")
        trainer.train_batch(rng.normal(size=(8, 20)), rng.integers(0, 4, 8))
        assert len(trainer._touched[0]) > 0


class TestBackends:
    """The flat bucket storage must not change training trajectories.

    Both backends hash with seed-identical functions and return identical
    candidate sets, so for a fixed trainer seed the sequence of active
    sets — and therefore every weight update — must match bitwise.
    """

    def test_invalid_backend_rejected(self):
        net = MLP([8, 6, 3], seed=0)
        with pytest.raises(ValueError, match="backend"):
            ALSHApproxTrainer(net, backend="sparse")

    @pytest.mark.parametrize("batch_mode", ["per_sample", "union"])
    def test_backends_train_identically(self, rng, batch_mode):
        x = rng.normal(size=(40, 20))
        y = rng.integers(0, 4, 40)
        losses = {}
        for backend in ("dict", "flat"):
            net = MLP([20, 30, 30, 4], seed=0)
            # early_every small enough that the run crosses a rebuild.
            sched = RebuildScheduler(
                early_every=15, late_every=15, warmup_samples=0
            )
            trainer = ALSHApproxTrainer(
                net, lr=1e-3, seed=1, batch_mode=batch_mode,
                backend=backend, rebuild=sched,
            )
            losses[backend] = [
                trainer.train_batch(x[i : i + 8], y[i : i + 8])
                for i in range(0, 40, 8)
            ]
            losses[backend].append(net.layers[0].W.copy())
            assert sched.rebuild_count > 0
        *loss_d, w_d = losses["dict"]
        *loss_f, w_f = losses["flat"]
        assert loss_d == loss_f  # bitwise, not approx
        np.testing.assert_array_equal(w_d, w_f)
