"""Empirical layerwise error measurement on live networks.

§7's theory assumes a linear activation and exact active-node detection;
this module measures the same quantity — the relative activation-estimation
error per hidden layer — on real (ReLU) networks under real selectors:
the ALSH index of a live :class:`~repro.core.alsh_approx.ALSHApproxTrainer`,
an oracle top-k selector, or a uniform-random one.  The error-propagation
bench uses it to show the theory's exponential growth shows up in practice.
"""

from __future__ import annotations

import copy
from typing import Callable, List

import numpy as np

from ..backend import active_backend
from ..core.sampled import sampled_forward, topk_columns
from ..nn.network import MLP

__all__ = [
    "make_topk_selector",
    "make_random_selector",
    "make_alsh_selector",
    "measure_layerwise_error",
]

Selector = Callable[[int, np.ndarray], np.ndarray]
"""``selector(layer_idx, a_prev) -> active column ids`` for one sample."""


def make_topk_selector(net: MLP, frac: float) -> Selector:
    """Oracle selector: the columns with largest |⟨a_prev, W·j⟩|.

    This is the best case for "sampling from the current layer" — perfect
    MIPS — so any error it shows is inherent to the approach, not to LSH
    recall.
    """
    if not 0.0 < frac <= 1.0:
        raise ValueError(f"frac must be in (0, 1], got {frac}")

    def selector(layer_idx: int, a_prev: np.ndarray) -> np.ndarray:
        return topk_columns(a_prev, net.layers[layer_idx].W, frac, active_backend())

    return selector


def make_random_selector(net: MLP, frac: float, seed: int = 0) -> Selector:
    """Uniform-random selector with the same budget (dropout-like)."""
    if not 0.0 < frac <= 1.0:
        raise ValueError(f"frac must be in (0, 1], got {frac}")
    rng = np.random.default_rng(seed)

    def selector(layer_idx: int, a_prev: np.ndarray) -> np.ndarray:
        layer = net.layers[layer_idx]
        keep = max(1, int(round(frac * layer.n_out)))
        return rng.choice(layer.n_out, size=keep, replace=False)

    return selector


def make_alsh_selector(trainer) -> Selector:
    """Selector backed by a live ALSH trainer's hash tables, read-only.

    The size clamp draws from a copy of the trainer's stream and the
    lookups run with ``record=False``, so measuring moves no RNG stream,
    counter or diagnostic of the trainer.
    """
    rng = copy.deepcopy(trainer.rng)

    def selector(layer_idx: int, a_prev: np.ndarray) -> np.ndarray:
        return trainer._select(layer_idx, np.atleast_2d(a_prev), rng, False)

    return selector


def measure_layerwise_error(
    net: MLP, selector: Selector, x: np.ndarray
) -> np.ndarray:
    """Mean relative error ‖â^k − a^k‖/‖a^k‖ per hidden layer.

    The *estimated* chain feeds each layer the previous layer's estimate
    (errors compound, as in Lemma 7.1) — it is the column-sampled forward
    the trainers run (:func:`repro.core.sampled.sampled_forward`); the
    exact chain is computed alongside for reference.  Averaged over the
    rows of ``x``.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n_hidden = len(net.layers) - 1
    if n_hidden < 1:
        raise ValueError("network has no hidden layers to measure")
    act = net.hidden_activation
    backend = active_backend()
    totals = np.zeros(n_hidden)
    for sample in x:
        estimates = sampled_forward(
            net, sample[None, :], lambda i, a: selector(i, a[0]), backend
        )[0]
        a_true = sample
        for i in range(n_hidden):
            layer = net.layers[i]
            a_true = act.forward(a_true @ layer.W + layer.b)
            a_hat = estimates[i + 1][0]
            denom = np.linalg.norm(a_true)
            if denom == 0.0:
                totals[i] += 0.0 if np.linalg.norm(a_hat) == 0.0 else 1.0
            else:
                totals[i] += np.linalg.norm(a_hat - a_true) / denom
    return totals / x.shape[0]
