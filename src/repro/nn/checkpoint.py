"""Crash-safe training checkpoints: capture, persist, resume.

The paper's evaluation grid (6 datasets × 6 methods × 50 epochs, plus the
depth/batch sweeps of Figures 7–12) is hours of CPU compute; a fault that
loses a run invalidates its timing comparison.  This module is the
persistence layer that makes mid-run trainer state survive a crash:

* :class:`TrainerCheckpoint` is the *complete* state of a
  :class:`~repro.core.base.Trainer` at an epoch boundary — network
  weights, optimiser slot variables, the trainer's and the batch
  loader's ``np.random.Generator`` bit-generator states, early-stopping
  bookkeeping, the :class:`~repro.core.base.History` so far, and any
  method-specific auxiliary state (ALSH hash tables and rebuild
  counters, drift references, …) contributed by the trainer's
  ``checkpoint_state`` hook.
* :func:`save_checkpoint` writes it as a single kind-tagged ``.npz``
  archive, **atomically** (same-directory temp file + ``os.replace``),
  so a crash mid-write can never destroy the previous good checkpoint.
* :func:`load_checkpoint` reads it back, raising a clear ``ValueError``
  on truncated/corrupt archives, foreign kinds or unknown versions.

The hard guarantee (enforced by ``tests/core/test_resume_equality.py``):
a run checkpointed at epoch *k* and resumed is **bitwise identical** to
an uninterrupted run with the same seed — weights, losses, validation
accuracies and test predictions.  Everything that can influence a
floating-point operation after epoch *k* is captured exactly; wall-clock
timings are the only fields allowed to differ.

The same carry covers observability: when the trainer records through
an enabled recorder, the ``payload["obs"]`` section holds the recorded
time series (:mod:`repro.obs.timeseries`) and, when quality probes are
attached, the probe manager's step counter, disabled set and private
RNG stream — so a killed-and-resumed run reproduces the *identical*
metric series, index-for-index (wall-clock series like
``train.epoch_time`` excepted).  Checkpoints from before this section
restore fine; the field is simply absent.

The scalar/structured portion travels as one JSON blob (Python's JSON
round-trips floats and arbitrary-precision ints exactly, which covers
PCG64 bit-generator states); arrays travel as native ``.npz`` members,
also exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Union

import json

import numpy as np

from .network import MLP
from .serialize import atomic_savez, read_archive

__all__ = [
    "TrainerCheckpoint",
    "checkpoint_path",
    "save_checkpoint",
    "load_checkpoint",
    "network_arrays",
    "restore_network",
]

_FORMAT_VERSION = 1
_CKPT_KIND = "trainer_checkpoint"
_META_ENTRY = "meta"


@dataclass
class TrainerCheckpoint:
    """Complete trainer state at an epoch boundary.

    ``payload`` holds everything JSON-safe (rng states, optimiser layout,
    history, early-stopping bookkeeping, method aux metadata); ``arrays``
    holds every ndarray (weights, optimiser slots, hash-table state),
    keyed by dotted names.  The split exists purely so the whole thing
    fits one ``.npz`` archive without pickling.
    """

    method: str
    epoch: int  #: completed epochs at capture time
    stopped_early: bool = False
    payload: Dict[str, Any] = field(default_factory=dict)
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)


def checkpoint_path(
    directory: Union[str, Path], tag: Optional[str] = None
) -> Path:
    """Canonical checkpoint file path for a run tag inside a directory."""
    name = f"{tag}.ckpt.npz" if tag else "trainer.ckpt.npz"
    return Path(directory) / name


def save_checkpoint(
    ckpt: TrainerCheckpoint, path: Union[str, Path]
) -> Path:
    """Atomically persist a checkpoint as a kind-tagged ``.npz`` archive.

    A crash at any point leaves either the previous checkpoint or the new
    one on disk, never a truncated archive.  Returns the path written.
    """
    if _META_ENTRY in ckpt.arrays:
        raise ValueError(f"array name {_META_ENTRY!r} is reserved")
    meta = {
        "format_version": _FORMAT_VERSION,
        "kind": _CKPT_KIND,
        "method": ckpt.method,
        "epoch": int(ckpt.epoch),
        "stopped_early": bool(ckpt.stopped_early),
        "payload": ckpt.payload,
    }
    arrays = {
        _META_ENTRY: np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    }
    arrays.update(ckpt.arrays)
    return atomic_savez(path, arrays)


def load_checkpoint(path: Union[str, Path]) -> TrainerCheckpoint:
    """Load a checkpoint written by :func:`save_checkpoint`.

    Raises ``FileNotFoundError`` for a missing file and ``ValueError``
    for corrupt/truncated archives, non-checkpoint archives or unknown
    format versions.
    """
    path = Path(path)
    arrays = read_archive(path)
    if _META_ENTRY not in arrays:
        raise ValueError(f"{path} is not a trainer checkpoint (no meta entry)")
    try:
        meta = json.loads(arrays.pop(_META_ENTRY).tobytes().decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path} has a corrupt meta entry: {exc}") from exc
    if meta.get("kind") != _CKPT_KIND:
        raise ValueError(
            f"{path} holds a {meta.get('kind')!r} archive, "
            f"expected {_CKPT_KIND!r}"
        )
    if meta.get("format_version") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported checkpoint format version "
            f"{meta.get('format_version')!r}"
        )
    return TrainerCheckpoint(
        method=meta["method"],
        epoch=int(meta["epoch"]),
        stopped_early=bool(meta["stopped_early"]),
        payload=meta.get("payload", {}),
        arrays=arrays,
    )


def network_arrays(net: MLP) -> Dict[str, np.ndarray]:
    """Every layer's ``W`` and ``b``, named ``net.W{i}`` and ``net.b{i}``."""
    arrays: Dict[str, np.ndarray] = {}
    for i, layer in enumerate(net.layers):
        arrays[f"net.W{i}"] = layer.W
        arrays[f"net.b{i}"] = layer.b
    return arrays


def restore_network(net: MLP, arrays: Dict[str, np.ndarray]) -> None:
    """Copy checkpointed weights into ``net``, keeping each layer's layout.

    Each restored ``W`` takes the memory order of the live layer it
    replaces (node-major hidden layers of the column-sampled trainers stay
    node-major), whatever order the archive stored.  Raises ``ValueError``
    for missing arrays or a shape mismatch.
    """
    for i, layer in enumerate(net.layers):
        try:
            w = arrays[f"net.W{i}"]
            b = arrays[f"net.b{i}"]
        except KeyError:
            raise ValueError(
                f"checkpoint is missing arrays for layer {i}"
            ) from None
        if w.shape != layer.W.shape or b.shape != layer.b.shape:
            raise ValueError(
                f"layer {i} shape mismatch: checkpoint {w.shape} vs "
                f"network {layer.W.shape}"
            )
        layer.W = np.array(w, order="F" if np.isfortran(layer.W) else "C")
        layer.b = b.copy()
