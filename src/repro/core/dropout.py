"""DROPOUT — uniform node sampling from the current layer (§5.1).

Srivastava et al.'s dropout viewed the way the paper frames it (Figure 2):
per training step, each hidden layer keeps a uniformly random subset of its
nodes — a subset of the *columns* of W — and both the feedforward products
and backpropagation touch only those columns.  The keep probability is the
paper's p = 0.05, chosen to match the ≈5 % active sets of ALSH-approx
(§8.4), which is exactly why plain dropout fares so badly in Table 2: at
p = 0.05 the kept subset is tiny *and chosen blind to the data*.

Inference uses the classic weight-scaling rule: hidden activations are
multiplied by p so their expected value matches training.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn.network import MLP
from ..obs import Recorder
from .sampled import ColumnSampledTrainer

__all__ = ["DropoutTrainer"]


class DropoutTrainer(ColumnSampledTrainer):
    """Dropout with computation restricted to the kept columns.

    One mask per hidden layer is drawn per *batch* (a shared mask is what
    lets the kept columns be sliced out of the GEMM; with the paper's
    stochastic setting, batch size 1, this is the per-sample mask of the
    original algorithm).

    Parameters
    ----------
    keep_prob:
        Probability a node stays active (paper: 0.05).
    min_active:
        Lower bound on the kept-set size, so a layer never goes dark.
    """

    name = "dropout"
    shared_selection = True

    def __init__(
        self,
        network: MLP,
        lr: float = 1e-3,
        optimizer="sgd",
        keep_prob: float = 0.05,
        min_active: int = 1,
        seed: Optional[int] = None,
        recorder: Optional[Recorder] = None,
        compute_backend=None,
    ):
        super().__init__(
            network,
            lr=lr,
            optimizer=optimizer,
            seed=seed,
            recorder=recorder,
            compute_backend=compute_backend,
        )
        if not 0.0 < keep_prob <= 1.0:
            raise ValueError(f"keep_prob must be in (0, 1], got {keep_prob}")
        if min_active < 1:
            raise ValueError(f"min_active must be at least 1, got {min_active}")
        self.keep_prob = float(keep_prob)
        self.min_active = int(min_active)

    def _select(self, layer_idx, a_prev, rng, record) -> np.ndarray:
        """Uniformly random kept set for one hidden layer, blind to the data."""
        n_nodes = self.net.layers[layer_idx].n_out
        keep = np.nonzero(rng.random(n_nodes) < self.keep_prob)[0]
        if keep.size < self.min_active:
            extra = rng.choice(n_nodes, size=self.min_active, replace=False)
            keep = np.union1d(keep, extra)
        return keep

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Exact forward with hidden activations scaled by keep_prob."""
        a = np.atleast_2d(np.asarray(x, dtype=float))
        layers = self.net.layers
        for i in range(len(layers) - 1):
            a = self.net.hidden_activation.forward(layers[i].forward(a))
            a = a * self.keep_prob
        logits = layers[-1].forward(a)
        return logits.argmax(axis=1)
