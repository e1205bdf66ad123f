"""Model persistence: save/load MLP and ConvClassifier checkpoints.

Models are stored as NumPy ``.npz`` archives holding the architecture
metadata plus every layer's weight matrix and bias, so a trained network
survives a process restart — needed for the longer paper-scale runs and
for comparing checkpoints across training methods.  The convolutional
variant additionally records each conv stage's kernels, stride/padding
and pool size, so the §8.4 "exact conv front-end + approximated head"
protocol can resume from a trained extractor.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
import zipfile
import zlib
from pathlib import Path
from typing import Dict, Union

import numpy as np

from .conv import ConvClassifier, ConvFeatureExtractor
from .network import MLP

__all__ = [
    "save_mlp",
    "load_mlp",
    "save_conv",
    "load_conv",
    "atomic_savez",
    "read_archive",
]

_FORMAT_VERSION = 1
_MLP_KIND = "mlp"
_CONV_KIND = "conv_classifier"

#: Everything ``np.load`` can raise on a truncated or garbled ``.npz`` —
#: a half-written zip directory (BadZipFile), a cut-off member (zlib
#: error / EOFError / struct.error) or a mangled ``.npy`` header
#: (ValueError / OSError).
_CORRUPT_ARCHIVE_ERRORS = (
    zipfile.BadZipFile,
    zlib.error,
    EOFError,
    struct.error,
    ValueError,
    OSError,
    KeyError,
)


def _normalise_path(path: Union[str, Path]) -> Path:
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    return path


def atomic_savez(path: Union[str, Path], arrays: Dict[str, np.ndarray]) -> Path:
    """Write an ``.npz`` archive atomically (same-dir temp + ``os.replace``).

    A crash at any point leaves either the previous archive or the new one
    intact, never a truncated file — the property the checkpoint/resume
    subsystem and the model savers rely on.  Returns ``path``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as f:
            np.savez(f, **arrays)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise
    return path


def read_archive(path: Union[str, Path]) -> Dict[str, np.ndarray]:
    """Load every array of an ``.npz`` archive, validating integrity.

    Raises ``FileNotFoundError`` for a missing file and a clear
    ``ValueError`` for truncated/corrupt archives (every member is read
    eagerly, so mid-file truncation cannot surface later as a confusing
    decompression error).
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    try:
        # Own the handle: np.load leaks the file it opened itself when it
        # raises on a truncated archive.
        with open(path, "rb") as handle, np.load(handle) as archive:
            return {name: archive[name] for name in archive.files}
    except _CORRUPT_ARCHIVE_ERRORS as exc:
        raise ValueError(
            f"{path} is not a readable .npz archive (truncated or corrupt): "
            f"{exc}"
        ) from exc


def _read_meta(archive, path: Path, expected_kind: str) -> dict:
    if "meta" not in archive:
        raise ValueError(f"{path} is not a saved model (no meta entry)")
    meta = json.loads(archive["meta"].tobytes().decode())
    if meta.get("format_version") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported format version {meta.get('format_version')!r}"
        )
    # Archives written before the conv checkpoint existed carry no kind
    # marker; they are all MLPs.
    kind = meta.get("kind", _MLP_KIND)
    if kind != expected_kind:
        raise ValueError(
            f"{path} holds a {kind!r} checkpoint, expected {expected_kind!r}"
        )
    return meta


def save_mlp(net: MLP, path: Union[str, Path]) -> Path:
    """Serialise a network to ``path`` (``.npz`` appended if missing).

    Returns the path actually written.
    """
    path = _normalise_path(path)
    meta = {
        "format_version": _FORMAT_VERSION,
        "kind": _MLP_KIND,
        "layer_sizes": list(net.layer_sizes),
        "hidden_activation": net.hidden_activation.name,
        "output_activation": net.output_activation.name,
    }
    arrays = {"meta": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)}
    for i, layer in enumerate(net.layers):
        arrays[f"W{i}"] = layer.W
        arrays[f"b{i}"] = layer.b
    return atomic_savez(path, arrays)


def _restore_mlp(archive, path: Path, meta: dict, prefix: str = "") -> MLP:
    net = MLP(
        meta["layer_sizes"],
        hidden_activation=meta["hidden_activation"],
        output_activation=meta["output_activation"],
        seed=0,
    )
    for i, layer in enumerate(net.layers):
        try:
            w = archive[f"{prefix}W{i}"]
            b = archive[f"{prefix}b{i}"]
        except KeyError:
            raise ValueError(f"layer {i} arrays missing from {path}") from None
        if w.shape != layer.W.shape or b.shape != layer.b.shape:
            raise ValueError(f"layer {i} shape mismatch in {path}")
        layer.W = w.copy()
        layer.b = b.copy()
    return net


def load_mlp(path: Union[str, Path]) -> MLP:
    """Load a network saved by :func:`save_mlp`.

    Raises ``ValueError`` for missing/corrupt archives, unknown format
    versions, or archives holding a different model kind.
    """
    path = Path(path)
    archive = read_archive(path)
    meta = _read_meta(archive, path, _MLP_KIND)
    return _restore_mlp(archive, path, meta)


def save_conv(model: ConvClassifier, path: Union[str, Path]) -> Path:
    """Serialise a :class:`ConvClassifier` to ``path`` (``.npz``).

    Stores every conv stage's kernel bank, bias, stride/padding and pool
    size alongside the MLP head (prefixed ``head_``), so the loaded model
    is bit-identical to the saved one.  Returns the path actually written.
    """
    path = _normalise_path(path)
    meta = {
        "format_version": _FORMAT_VERSION,
        "kind": _CONV_KIND,
        "lr": model.lr,
        "stages": [
            {"stride": conv.stride, "pad": conv.pad, "pool": pool.size}
            for conv, pool in model.extractor.stages
        ],
        "head": {
            "layer_sizes": list(model.head.layer_sizes),
            "hidden_activation": model.head.hidden_activation.name,
            "output_activation": model.head.output_activation.name,
        },
    }
    arrays = {"meta": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)}
    for i, (conv, _) in enumerate(model.extractor.stages):
        arrays[f"K{i}"] = conv.kernels
        arrays[f"cb{i}"] = conv.bias
    for i, layer in enumerate(model.head.layers):
        arrays[f"head_W{i}"] = layer.W
        arrays[f"head_b{i}"] = layer.b
    return atomic_savez(path, arrays)


def load_conv(path: Union[str, Path]) -> ConvClassifier:
    """Load a classifier saved by :func:`save_conv`.

    Raises ``ValueError`` for missing/corrupt archives, unknown format
    versions, or archives holding a different model kind.
    """
    path = Path(path)
    archive = read_archive(path)
    meta = _read_meta(archive, path, _CONV_KIND)
    stage_meta = meta["stages"]
    kernels = [archive[f"K{i}"] for i in range(len(stage_meta))]
    if not kernels:
        raise ValueError(f"{path} holds no conv stages")
    extractor = ConvFeatureExtractor(
        in_channels=kernels[0].shape[1],
        channels=[k.shape[0] for k in kernels],
        field=kernels[0].shape[2],
        pool=stage_meta[0]["pool"],
        seed=0,
    )
    for i, (conv, pool) in enumerate(extractor.stages):
        # Per-stage geometry may differ from the constructor defaults
        # (heterogeneous fields/pools are legal when stages are built
        # by hand), so restore it explicitly.
        conv.kernels = kernels[i].copy()
        conv.bias = archive[f"cb{i}"].copy()
        conv.field = kernels[i].shape[2]
        conv.stride = stage_meta[i]["stride"]
        conv.pad = stage_meta[i]["pad"]
        pool.size = stage_meta[i]["pool"]
    head = _restore_mlp(archive, path, meta["head"], prefix="head_")
    return ConvClassifier(extractor, head, lr=meta["lr"])
