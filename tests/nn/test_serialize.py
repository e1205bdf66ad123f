"""Tests for MLP and ConvClassifier serialisation."""

import gc
import warnings

import numpy as np
import pytest

from repro.nn.conv import ConvClassifier, ConvFeatureExtractor
from repro.nn.network import MLP
from repro.nn.serialize import (
    load_conv,
    load_mlp,
    read_archive,
    save_conv,
    save_mlp,
)


class TestRoundTrip:
    def test_weights_preserved(self, tmp_path, rng):
        net = MLP([8, 6, 4], seed=3)
        path = save_mlp(net, tmp_path / "model")
        loaded = load_mlp(path)
        assert loaded.layer_sizes == net.layer_sizes
        for la, lb in zip(net.layers, loaded.layers):
            np.testing.assert_array_equal(la.W, lb.W)
            np.testing.assert_array_equal(la.b, lb.b)

    def test_predictions_identical(self, tmp_path, rng):
        net = MLP([8, 16, 3], seed=0)
        x = rng.normal(size=(10, 8))
        path = save_mlp(net, tmp_path / "model.npz")
        loaded = load_mlp(path)
        np.testing.assert_array_equal(net.predict(x), loaded.predict(x))

    def test_activations_preserved(self, tmp_path):
        net = MLP([4, 3, 2], hidden_activation="tanh", seed=0)
        loaded = load_mlp(save_mlp(net, tmp_path / "m"))
        assert loaded.hidden_activation.name == "tanh"

    def test_suffix_appended(self, tmp_path):
        path = save_mlp(MLP([4, 2], seed=0), tmp_path / "model")
        assert path.suffix == ".npz"

    def test_trained_model_round_trip(self, tmp_path, tiny_dataset):
        from repro.core.standard import StandardTrainer

        net = MLP([tiny_dataset.input_dim, 16, tiny_dataset.n_classes], seed=0)
        StandardTrainer(net, lr=1e-2, seed=1).fit(
            tiny_dataset.x_train, tiny_dataset.y_train, epochs=2, batch_size=20
        )
        loaded = load_mlp(save_mlp(net, tmp_path / "trained"))
        np.testing.assert_array_equal(
            net.predict(tiny_dataset.x_test), loaded.predict(tiny_dataset.x_test)
        )


def _conv_model(seed=0, image=8):
    extractor = ConvFeatureExtractor(
        in_channels=3, channels=(4, 6), field=3, pool=2, seed=seed
    )
    head = MLP([extractor.feature_dim(image, image), 12, 5], seed=seed)
    return ConvClassifier(extractor, head, lr=3e-2)


class TestConvRoundTrip:
    def test_all_parameters_preserved_bitwise(self, tmp_path):
        model = _conv_model(seed=7)
        loaded = load_conv(save_conv(model, tmp_path / "conv"))
        assert loaded.lr == model.lr
        assert len(loaded.extractor.stages) == len(model.extractor.stages)
        for (ca, pa), (cb, pb) in zip(
            model.extractor.stages, loaded.extractor.stages
        ):
            np.testing.assert_array_equal(ca.kernels, cb.kernels)
            np.testing.assert_array_equal(ca.bias, cb.bias)
            assert (ca.field, ca.stride, ca.pad) == (cb.field, cb.stride, cb.pad)
            assert pa.size == pb.size
        for la, lb in zip(model.head.layers, loaded.head.layers):
            np.testing.assert_array_equal(la.W, lb.W)
            np.testing.assert_array_equal(la.b, lb.b)

    def test_predictions_identical(self, tmp_path, rng):
        model = _conv_model(seed=1)
        x = rng.normal(size=(6, 3, 8, 8))
        loaded = load_conv(save_conv(model, tmp_path / "conv.npz"))
        np.testing.assert_array_equal(model.predict(x), loaded.predict(x))
        np.testing.assert_array_equal(model.features(x), loaded.features(x))

    def test_trained_model_round_trip(self, tmp_path, rng):
        model = _conv_model(seed=2)
        x = rng.normal(size=(20, 3, 8, 8))
        y = rng.integers(0, 5, size=20)
        model.fit(x, y, epochs=1, batch_size=5, seed=0)
        loaded = load_conv(save_conv(model, tmp_path / "trained"))
        np.testing.assert_array_equal(model.predict(x), loaded.predict(x))

    def test_suffix_appended(self, tmp_path):
        path = save_conv(_conv_model(), tmp_path / "conv")
        assert path.suffix == ".npz"


class TestKindMismatch:
    def test_load_mlp_rejects_conv_archive(self, tmp_path):
        path = save_conv(_conv_model(), tmp_path / "conv")
        with pytest.raises(ValueError, match="conv_classifier"):
            load_mlp(path)

    def test_load_conv_rejects_mlp_archive(self, tmp_path):
        path = save_mlp(MLP([4, 2], seed=0), tmp_path / "mlp")
        with pytest.raises(ValueError, match="expected 'conv_classifier'"):
            load_conv(path)


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_mlp(tmp_path / "ghost.npz")
        with pytest.raises(FileNotFoundError):
            load_conv(tmp_path / "ghost.npz")

    def test_not_a_model(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, x=np.zeros(3))
        with pytest.raises(ValueError, match="not a saved model"):
            load_mlp(path)

    def test_creates_parent_dirs(self, tmp_path):
        path = save_mlp(MLP([4, 2], seed=0), tmp_path / "a" / "b" / "model")
        assert path.exists()


class TestAtomicWrite:
    def test_no_temp_files_left_behind(self, tmp_path):
        from repro.nn.serialize import atomic_savez

        path = tmp_path / "model.npz"
        for _ in range(3):
            atomic_savez(path, {"x": np.arange(4)})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.npz"]

    def test_failed_write_preserves_previous_archive(self, tmp_path):
        """A crash mid-save must leave the old archive intact."""
        from repro.nn.serialize import atomic_savez

        path = tmp_path / "model.npz"
        atomic_savez(path, {"x": np.arange(4)})

        class Unpicklable:
            def __reduce__(self):
                raise RuntimeError("boom mid-write")

        with pytest.raises(RuntimeError):
            atomic_savez(path, {"x": np.array([Unpicklable()], dtype=object)})
        loaded = np.load(path)
        np.testing.assert_array_equal(loaded["x"], np.arange(4))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.npz"]

    def test_save_mlp_is_atomic(self, tmp_path):
        path = save_mlp(MLP([4, 3, 2], seed=0), tmp_path / "model")
        save_mlp(MLP([4, 3, 2], seed=1), path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.npz"]


class TestCorruptArchives:
    @pytest.mark.parametrize("keep_fraction", [0.2, 0.6, 0.95])
    def test_truncated_mlp_archive(self, tmp_path, keep_fraction):
        path = save_mlp(MLP([16, 8, 4], seed=0), tmp_path / "model")
        blob = path.read_bytes()
        path.write_bytes(blob[: int(len(blob) * keep_fraction)])
        with pytest.raises(ValueError, match="truncated or corrupt"):
            load_mlp(path)

    @pytest.mark.parametrize("keep_fraction", [0.2, 0.6])
    def test_truncated_archive_closes_its_file(self, tmp_path, keep_fraction):
        """A rejected archive leaves no open file for the collector."""
        path = save_mlp(MLP([16, 8, 4], seed=0), tmp_path / "model")
        blob = path.read_bytes()
        path.write_bytes(blob[: int(len(blob) * keep_fraction)])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(ValueError, match="truncated or corrupt"):
                read_archive(path)
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaks, [str(w.message) for w in leaks]

    def test_truncated_conv_archive(self, tmp_path):
        path = save_conv(_conv_model(), tmp_path / "conv")
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ValueError, match="truncated or corrupt"):
            load_conv(path)

    def test_garbage_bytes(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"\x00\x01 definitely not a zip")
        with pytest.raises(ValueError, match="truncated or corrupt"):
            load_mlp(path)

    def test_missing_layer_arrays(self, tmp_path):
        """A valid zip with members deleted fails with the model error,
        not a KeyError."""
        import json

        meta = {"format_version": 1, "kind": "mlp", "layer_sizes": [4, 3, 2],
                "hidden_activation": "relu", "output_activation": "log_softmax"}
        path = tmp_path / "partial.npz"
        np.savez(
            path,
            meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
            W0=np.zeros((4, 3)), b0=np.zeros(3),
        )
        with pytest.raises(ValueError, match="layer 1 arrays missing"):
            load_mlp(path)
