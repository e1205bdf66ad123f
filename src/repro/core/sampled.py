"""One column-sampled training step — the paper's §5 framing made literal.

DROPOUT, TOPK-APPROX and ALSH-APPROX all "sample from the current layer":
each hidden layer computes only a subset of its nodes — a subset of the
*columns* of ``W`` — and backpropagation flows only through those
columns.  The methods differ only in *which* columns a layer keeps:

* DROPOUT — a Bernoulli mask drawn blind to the data, one per batch;
* TOPK-APPROX — the exact top-k inner products (the MIPS oracle);
* ALSH-APPROX — the colliding buckets of an LSH index, clamped to size.

This module owns everything else, once: :func:`sampled_forward` runs the
hidden layers over a block of rows that share one selection per layer,
and :class:`ColumnSampledTrainer` adds the loss head, the dense
output-layer update and the column-sparse hidden backward.  A method
supplies only its selector, :meth:`ColumnSampledTrainer._select`.

The trainer stores its hidden weights node-major (:func:`_store_node_major`):
the kernels here read and write whole columns of ``W``, one node's fan-in
each, so each column is kept contiguous in memory.
"""

from __future__ import annotations

import copy
from typing import Callable, List, Tuple

import numpy as np

from ..nn.losses import NLLLoss
from ..nn.network import MLP
from ..obs.counters import SAMPLER_COLS_KEPT, SAMPLER_COLS_POOL
from .base import Trainer

__all__ = ["ColumnSampledTrainer", "sampled_forward", "topk_columns"]

Selector = Callable[[int, np.ndarray], np.ndarray]
"""``select(layer_idx, a_prev) -> sorted kept column ids`` for a 2-D block."""


def topk_columns(
    a_prev: np.ndarray, w: np.ndarray, frac: float, backend
) -> np.ndarray:
    """Sorted ids of the ``frac`` share of columns with the largest
    ``|⟨a_prev, W·j⟩|`` — exact maximum-inner-product search.

    ``a_prev`` is one row, 1-D or as a ``(1, n_in)`` block.
    """
    keep = max(1, int(round(frac * w.shape[1])))
    scores = np.abs(backend.matmul(a_prev, w)).reshape(-1)
    top = np.argpartition(-scores, keep - 1)[:keep]
    top.sort()
    return top


def _store_node_major(net: MLP) -> None:
    """Store every hidden layer's ``W`` node-major, in Fortran order.

    The logical ``n_in × n_out`` shape and every value stay the same; only
    the memory order changes, so a node's fan-in (column ``j``) is one
    contiguous run.  The column gathers and scatters of the step
    (``W[:, kept]`` in the kernels and in the lazy optimiser's moments,
    which inherit the layout through ``zeros_like``) then copy contiguous
    runs instead of a few elements out of every row.  The output layer is
    dense and keeps its row-major storage.  Layers convert one at a time,
    so peak memory grows by at most one matrix.
    """
    for layer in net.layers[:-1]:
        layer.W = np.asfortranarray(layer.W)


def sampled_forward(
    net: MLP, a: np.ndarray, select: Selector, backend
) -> Tuple[List[np.ndarray], List[np.ndarray], List[np.ndarray], np.ndarray]:
    """Forward a 2-D block of rows, computing only the selected columns.

    Every hidden layer asks ``select`` for its kept columns, computes
    their pre-activations with the ``matmul_cols`` kernel and scatters
    the activations into a zero-filled layer output; the output layer is
    dense.  Returns ``(acts, zs, cols, logits)``: the input of every layer
    (``acts[0]`` is ``a``), the kept pre-activations and column ids of
    every hidden layer, and the logits.
    """
    layers = net.layers
    act = net.hidden_activation
    acts, zs, cols = [a], [], []
    for i, layer in enumerate(layers[:-1]):
        kept = select(i, a)
        z = backend.matmul_cols(a, layer.W, layer.b, kept)
        a = np.zeros((a.shape[0], layer.n_out))
        a[:, kept] = act.forward(z)
        acts.append(a)
        zs.append(z)
        cols.append(kept)
    logits = backend.matmul_add_bias(a, layers[-1].W, layers[-1].b)
    return acts, zs, cols, logits


class ColumnSampledTrainer(Trainer):
    """Trainer whose hidden layers run on selected columns only.

    One step forwards a block of rows through :func:`sampled_forward`,
    takes the NLL loss head, updates the output layer densely and the
    hidden layers column-sparsely.  Every layer backpropagates its delta
    through its *pre-update* weights before the optimiser step touches
    them, exactly as exact backprop does.  Hidden weights are stored
    node-major from construction on (:func:`_store_node_major`).

    Subclasses implement :meth:`_select`.  Kernels, the optimiser and the
    LSH indexes are looked up at call time, never cached, so wrappers
    installed on them after construction see every call.
    """

    #: Whether all rows of a batch share one selection per layer
    #: (dropout's mask) rather than each row selecting its own (top-k,
    #: ALSH).  Training, :meth:`predict` and the probes honour it.
    shared_selection = False

    def __init__(self, network: MLP, **kwargs):
        super().__init__(network, **kwargs)
        _store_node_major(network)

    def _select(
        self,
        layer_idx: int,
        a_prev: np.ndarray,
        rng: np.random.Generator,
        record: bool,
    ) -> np.ndarray:
        """Sorted kept column ids of hidden layer ``layer_idx``.

        ``a_prev`` is the 2-D block of layer inputs sharing the selection;
        ``rng`` supplies any sampling randomness.  ``record`` is false on
        the read-only probe path, where a selector must leave every
        counter and diagnostic untouched.
        """
        raise NotImplementedError

    def _select_active(self, layer_idx: int, a_prev: np.ndarray) -> np.ndarray:
        """Training-time selection for one row (1-D) or a block of rows."""
        return self._select(layer_idx, np.atleast_2d(a_prev), self.rng, True)

    def _shares_step(self) -> bool:
        """Whether a training batch takes one step on one shared selection."""
        return self.shared_selection

    def _after_step(self, cols: List[np.ndarray], batch: int) -> None:
        """Hook after a step's updates; counts the kept columns."""
        if self.obs.enabled:
            for layer, kept in zip(self.net.layers, cols):
                self.obs.add(SAMPLER_COLS_KEPT, int(kept.size))
                self.obs.add(SAMPLER_COLS_POOL, int(layer.n_out))

    def _blocks(self, x: np.ndarray) -> List[np.ndarray]:
        """The row blocks of ``x`` that share one selection."""
        if self.shared_selection:
            return [x]
        return [x[s : s + 1] for s in range(x.shape[0])]

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def train_batch(self, x: np.ndarray, y: np.ndarray) -> float:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y))
        if self._shares_step():
            return self._step(x, y)
        total = 0.0
        for s in range(x.shape[0]):
            total += self._step(x[s : s + 1], y[s : s + 1])
        return total / x.shape[0]

    def _step(self, x: np.ndarray, y: np.ndarray) -> float:
        """One optimisation step on a block of rows sharing a selection."""
        layers = self.net.layers
        act = self.net.hidden_activation
        out = len(layers) - 1
        backend = self._backend()

        with self._time_forward():
            acts, zs, cols, logits = sampled_forward(
                self.net, x, self._select_active, backend
            )
            loss = self.loss_fn.value(
                self.net.output_activation.forward(logits), y
            )

        with self._time_backward():
            delta = NLLLoss.fused_logit_gradient(logits, y)
            # Output layer: dense update (every class participates).
            da = backend.matmul(delta, layers[-1].W.T)
            g_w = backend.grad_cols(acts[-1], delta)
            self._update(("W", out), layers[-1].W, g_w)
            self._update(("b", out), layers[-1].b, delta.sum(axis=0))
            # Hidden layers: column-sparse gradients over the kept sets.
            for i in range(out - 1, -1, -1):
                kept = cols[i]
                # Column-major like the da[:, kept] gather: NumPy sums a
                # contiguous axis pairwise, so the layout fixes the bits
                # of the bias gradient below.
                delta_c = np.multiply(
                    da[:, kept], act.derivative(zs[i]), order="F"
                )
                if x.shape[0] == 1 and np.isfortran(layers[i].W):
                    # One row: an outer product, no sums, so its
                    # transpose has the same bits and comes out
                    # column-major, like the node-major W and the
                    # moment slices lazy Adam gathers from it.
                    g_w = backend.grad_cols(delta_c, acts[i]).T
                else:
                    g_w = backend.grad_cols(acts[i], delta_c)
                g_b = delta_c.sum(axis=0)
                if i > 0:
                    da = backend.backprop_cols(delta_c, layers[i].W, kept)
                self._update(("W", i), layers[i].W, g_w, index=kept)
                self._update(("b", i), layers[i].b, g_b, index=kept)
            self._after_step(cols, x.shape[0])
        if self.obs.enabled:
            self._record_step_flops(
                x.shape[0], [kept.size for kept in cols] + [layers[-1].n_out]
            )
        return loss

    # ------------------------------------------------------------------
    # quality probes and inference
    # ------------------------------------------------------------------
    def _read_only_forward(self, x, rng):
        """:func:`sampled_forward` over the selection blocks of ``x``,
        selecting with ``rng`` and ``record=False``.

        No trainer RNG stream, selection counter or diagnostic moves, so
        inference and probing leave training exactly as it was.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        backend = self._backend()

        def select(i, a):
            return self._select(i, a, rng, False)

        return [
            sampled_forward(self.net, rows, select, backend)
            for rows in self._blocks(x)
        ]

    def probe_approx_forward(self, x, rng):
        """Training-style sampled forward, read-only.

        Selection randomness comes from the probe's ``rng`` (never the
        trainer's) and selectors run with ``record=False``, so probing
        moves no RNG stream, selection counter or diagnostic of
        training; its kernels are timed and counted like any forward.
        """
        runs = self._read_only_forward(x, rng)
        hidden = [
            np.vstack([acts[i] for acts, _, _, _ in runs])
            for i in range(1, len(self.net.layers))
        ]
        return hidden + [np.vstack([run[3] for run in runs])]

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Sampled inference — the same active-node selection as training.

        This is the §10.3 setting: "when predicting the label of an input
        sample, the same set of nodes is activated", which is what
        produces the predicted-label collapse in deep networks.  Any
        selection randomness (ALSH's size clamp) comes from a copy of the
        trainer's stream: inference draws what the next step would, but
        consumes nothing, so evaluating never perturbs training.
        """
        runs = self._read_only_forward(x, copy.deepcopy(self.rng))
        preds = [logits.argmax(axis=1) for _, _, _, logits in runs]
        return np.concatenate(preds) if preds else np.empty(0, dtype=int)

    def predict_exact(self, x: np.ndarray) -> np.ndarray:
        """Exact forward through the trained weights (diagnostic)."""
        return self.net.predict(x)
