"""Node-major weight storage of the column-sampled trainers.

Dropout, top-k and ALSH run one column-sampled step that reads and writes
whole columns of each hidden ``W`` (one node's fan-in each), so those
trainers store hidden weights in Fortran order, and lazy Adam's moments
follow them.  The layout must hold from construction, through training,
and across every kill-resume path.  The row-sampled MC trainer, the dense
trainers and every output layer stay row-major.  Only memory order
differs between the layouts: a step computes the same bits on either.
"""

import numpy as np
import pytest

from repro.core.registry import make_trainer
from repro.nn.checkpoint import load_checkpoint, save_checkpoint
from repro.nn.network import MLP
from repro.stream.trainer import make_stream_trainer

SIZES = [12, 16, 16, 3]

#: Every column-sampled configuration, each with Adam so lazy moments exist.
COLUMN_SAMPLED = {
    "dropout": ("dropout", {"optimizer": "adam", "keep_prob": 0.5}),
    "topk": ("topk", {}),
    "alsh": ("alsh", {}),
    "alsh-union": ("alsh", {"batch_mode": "union"}),
}
ROW_MAJOR = ["standard", "mc", "adaptive_dropout"]


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(5)
    return rng.normal(size=(48, 12)), rng.integers(0, 3, size=48)


def build(config, sizes=SIZES):
    method, kwargs = COLUMN_SAMPLED[config]
    return make_trainer(method, MLP(sizes, seed=7), seed=11, **kwargs)


def is_node_major(arr):
    return arr.flags.f_contiguous and not arr.flags.c_contiguous


def assert_node_major(trainer, slots=True):
    """Every hidden ``W`` (and, with ``slots``, its Adam m/v) is node-major."""
    layers = trainer.net.layers
    for i, layer in enumerate(layers[:-1]):
        assert is_node_major(layer.W), f"hidden W{i} is not node-major"
        if slots:
            state = trainer.optimizer._state[("W", i)]
            for slot in ("m", "v"):
                assert is_node_major(state[slot]), f"adam {slot}{i} is not node-major"
    assert layers[-1].W.flags.c_contiguous, "output W must stay row-major"


class TestColumnSampledTrainersAreNodeMajor:
    @pytest.mark.parametrize("config", COLUMN_SAMPLED)
    def test_after_construction(self, config):
        assert_node_major(build(config), slots=False)

    @pytest.mark.parametrize("config", COLUMN_SAMPLED)
    def test_after_a_step(self, config, data):
        trainer = build(config)
        trainer.train_batch(data[0][:4], data[1][:4])
        assert_node_major(trainer)

    @pytest.mark.parametrize("config", COLUMN_SAMPLED)
    def test_after_fit_kill_resume(self, config, data, tmp_path):
        x, y = data
        build(config).fit(
            x, y, epochs=2, batch_size=16, checkpoint_dir=tmp_path
        )
        resumed = build(config)
        resumed.fit(x, y, epochs=4, batch_size=16, checkpoint_dir=tmp_path)
        assert_node_major(resumed)

    @pytest.mark.parametrize("config", ["dropout", "alsh"])
    def test_row_major_checkpoint_resumes_node_major(
        self, config, data, tmp_path
    ):
        """Weights and Adam slots archived in row-major order (as an
        earlier writer stored them) come back in the live layout, and
        training continues on the same bits as from the node-major file."""
        x, y = data
        build(config).fit(
            x, y, epochs=2, batch_size=16, checkpoint_dir=tmp_path / "f"
        )
        name = f"{COLUMN_SAMPLED[config][0]}.ckpt.npz"
        ckpt = load_checkpoint(tmp_path / "f" / name)
        assert is_node_major(ckpt.arrays["net.W0"])
        ckpt.arrays = {
            key: np.ascontiguousarray(arr) for key, arr in ckpt.arrays.items()
        }
        save_checkpoint(ckpt, tmp_path / "c" / name)
        runs = []
        for folder in ("f", "c"):
            trainer = build(config)
            trainer.fit(
                x, y, epochs=3, batch_size=16, checkpoint_dir=tmp_path / folder
            )
            assert_node_major(trainer)
            runs.append(trainer)
        for a, b in zip(runs[0].net.layers, runs[1].net.layers):
            np.testing.assert_array_equal(a.W, b.W)

    def test_after_stream_kill_resume(self, tmp_path):
        kwargs = dict(
            dim=12, n_classes=3, width=16, depth=2, batch_size=10,
            eval_every=None, lr=0.01, seed=0,
            checkpoint_dir=tmp_path, checkpoint_every=10,
        )
        make_stream_trainer(**kwargs).run(25, resume=False)
        resumed = make_stream_trainer(**kwargs)
        resumed.run(40, resume=True)
        assert resumed.batches_done == 40
        assert_node_major(resumed.trainer)


class TestRowMajorTrainersStayRowMajor:
    @pytest.mark.parametrize("method", ROW_MAJOR)
    def test_every_layer_row_major(self, method, data):
        trainer = make_trainer(method, MLP(SIZES, seed=7), seed=11)
        trainer.train_batch(data[0][:4], data[1][:4])
        for i, layer in enumerate(trainer.net.layers):
            assert layer.W.flags.c_contiguous, f"{method} W{i}"


class TestLayoutDoesNotChangeTheStep:
    @pytest.mark.parametrize("config", COLUMN_SAMPLED)
    def test_one_step_bitwise_equal(self, config, data):
        """A step on node-major weights computes exactly what the same
        step computes on a row-major copy of the same network."""
        sizes = [12, 40, 40, 3]
        node_major = build(config, sizes)
        row_major = build(config, sizes)
        for layer in row_major.net.layers:
            layer.W = np.ascontiguousarray(layer.W)
        x, y = data[0][:6], data[1][:6]
        node_major.train_batch(x, y)
        row_major.train_batch(x, y)
        assert_node_major(node_major)
        assert all(layer.W.flags.c_contiguous for layer in row_major.net.layers)
        for i, (a, b) in enumerate(
            zip(node_major.net.layers, row_major.net.layers)
        ):
            np.testing.assert_array_equal(a.W, b.W, err_msg=f"W{i}")
            np.testing.assert_array_equal(a.b, b.b, err_msg=f"b{i}")
        for key, state in node_major.optimizer._state.items():
            for slot, arr in state.items():
                np.testing.assert_array_equal(
                    arr, row_major.optimizer._state[key][slot],
                    err_msg=f"{key} {slot}",
                )


class TestOneRowGradientFollowsTheLayout:
    @pytest.mark.parametrize("config", ["topk", "alsh"])
    def test_lazy_adam_gets_column_major_gradients(self, config, data):
        """Per-sample steps hand lazy Adam each hidden weight gradient in
        the node-major order of ``W`` and its gathered moment slices, so
        no elementwise op of the update mixes layouts."""
        trainer = build(config, [12, 40, 40, 3])
        seen = []
        update = trainer.optimizer.update

        def spy(key, param, grad, index=None):
            if key[0] == "W" and index is not None:
                seen.append(grad.flags.f_contiguous)
            return update(key, param, grad, index=index)

        trainer.optimizer.update = spy
        trainer.train_batch(data[0][:3], data[1][:3])
        assert seen and all(seen)
