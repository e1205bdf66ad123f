"""TOPK-APPROX — ALSH-approx with an exact-MIPS oracle selector.

The paper's Theorem 7.2 assumes "the active nodes are detected exactly"
and *still* proves exponential error growth: the collapse is inherent to
sampling-from-the-current-layer, not an artefact of LSH recall.  This
trainer makes that argument executable: it is ALSH-approx with the hash
tables replaced by a brute-force maximum-inner-product search, i.e. the
best possible active-set selector at a given budget.  If TOPK-APPROX also
collapses with depth (it does — see the depth ablation bench), the LSH
machinery is exonerated and the blame lands on feedforward approximation
itself, exactly as §7 claims.

It is deliberately *not* a practical method: exact MIPS costs the full
product it is supposed to avoid.  It exists as scientific apparatus.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn.network import MLP
from ..obs import Recorder
from .sampled import ColumnSampledTrainer, topk_columns

__all__ = ["TopKApproxTrainer"]


class TopKApproxTrainer(ColumnSampledTrainer):
    """Current-layer sampling with oracle (exact top-k) node selection.

    Each sample selects and trains its own active sets, exactly like
    per-sample ALSH-approx; inference samples the same way.

    Parameters
    ----------
    active_frac:
        Fraction of each hidden layer kept active per sample — matched to
        ALSH-approx's active-set size for apples-to-apples comparisons.
    """

    name = "topk"

    def __init__(
        self,
        network: MLP,
        lr: float = 1e-3,
        optimizer="adam",
        active_frac: float = 0.25,
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
        if not 0.0 < active_frac <= 1.0:
            raise ValueError(f"active_frac must be in (0, 1], got {active_frac}")
        self.active_frac = float(active_frac)

    def _select(self, layer_idx, a_prev, rng, record) -> np.ndarray:
        """Exact top-k columns by |⟨a_prev, W·j⟩| — the MIPS oracle.

        Deterministic, so ``rng`` is unused: the forward-error probe on
        TOPK measures the pure sampling-from-the-current-layer drift
        Theorem 7.2 bounds, with selector noise excluded.  The selector
        itself is a full product, so ``flops.actual`` understates the
        oracle's true cost — it measures what a *perfect* selector
        would save.
        """
        return topk_columns(
            a_prev, self.net.layers[layer_idx].W, self.active_frac, self._backend()
        )
