"""Shared sampling utilities for the matrix-product estimators.

Both families the paper connects — Drineas-style with-replacement sampling
(§6.1) and Adelman-style Bernoulli sampling (§6.2) — start from importance
scores ``‖A·i‖ · ‖B i·‖`` over the inner dimension.  This module provides
the score computation, probability normalisation, and the waterfilling
solver needed for the clipped Bernoulli probabilities
``p_i = min{k · score_i / Σ score, 1}`` under the constraint ``Σ p_i = k``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "importance_scores",
    "normalize_probabilities",
    "clipped_probabilities",
    "sample_with_replacement",
]


def importance_scores(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Scores ‖A·i‖·‖B i·‖ over the shared inner dimension.

    ``a`` is m×n, ``b`` is n×p; returns an n-vector of non-negative scores.
    """
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(
            f"inner dimensions differ: A is {a.shape}, B is {b.shape}"
        )
    return _norms(a, axis=0) * _norms(b, axis=1)


def _norms(x: np.ndarray, axis: int) -> np.ndarray:
    """``np.linalg.norm(x, axis=axis)`` of a 2-D array, bit for bit.

    NumPy sums a reduction pairwise when the reduced axis is the
    contiguous one, and sequentially, one strided slice after another,
    when the other axis is.  In that strided case ``norm`` first squares
    the whole array into a temporary; ``einsum`` adds the same squares in
    the same order in one pass.  That is the ``W.T`` of every delta
    propagation, whose rows are strided columns of a row-major ``W``.
    """
    kept = 1 - axis
    if (
        x.dtype == np.float64
        and x.shape[axis] > 1
        and x.shape[kept] > 1
        and x.strides[kept] == x.itemsize
        and x.strides[axis] > x.itemsize
    ):
        return np.sqrt(np.einsum("ij,ij->j" if axis == 0 else "ij,ij->i", x, x))
    return np.linalg.norm(x, axis=axis)


def normalize_probabilities(scores: np.ndarray) -> np.ndarray:
    """Scores → probability vector; all-zero scores become uniform.

    The uniform fallback keeps the estimators well-defined on degenerate
    inputs (e.g. an all-dead ReLU activation batch).
    """
    scores = np.asarray(scores, dtype=float)
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite (diverged training run?)")
    if (scores < 0).any():
        raise ValueError("scores must be non-negative")
    total = scores.sum()
    if total == 0.0:
        return np.full(scores.shape, 1.0 / scores.size)
    return scores / total


def clipped_probabilities(scores: np.ndarray, k: int) -> np.ndarray:
    """Bernoulli probabilities p_i = min{λ·score_i, 1} with Σ p_i = k.

    This is the §6.2 distribution (paper Eq. 7).  When the naive
    ``k·score/Σscore`` assignment pushes some entries past 1, the mass is
    redistributed by waterfilling: clipped entries are pinned at 1 and λ is
    re-solved over the remainder, so the budget constraint holds exactly.
    """
    scores = np.asarray(scores, dtype=float)
    n = scores.size
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if not np.isfinite(scores).all():
        # Non-finite scores mean the caller's matrices diverged (inf/NaN
        # weights); failing fast beats the alternative — NaN comparisons
        # would make the waterfilling loop spin forever.
        raise ValueError("scores must be finite (diverged training run?)")
    if (scores < 0).any():
        raise ValueError("scores must be non-negative")
    if scores.sum() == 0.0:
        return np.full(n, k / n)

    p = np.zeros(n)
    active = np.ones(n, dtype=bool)
    budget = float(k)
    # Each pass pins at least one entry at 1, so this terminates in ≤ n steps.
    while True:
        active_scores = scores[active]
        if active_scores.size == 0:
            break
        # The solution is invariant to a positive rescaling; renormalising
        # the *active* scores by their max each pass keeps λ and the trial
        # probabilities finite even for subnormal score tails (overflow
        # here once mis-clipped whole passes and broke the Σp = k budget).
        active_max = active_scores.max()
        if active_max == 0.0:
            # Remaining scores are all zero: spread leftover budget evenly.
            p[active] = min(budget / active_scores.size, 1.0)
            break
        scaled = active_scores / active_max
        lam = budget / scaled.sum()
        trial = lam * scaled
        if (trial <= 1.0).all():
            p[active] = trial
            break
        newly_clipped = active.copy()
        newly_clipped[active] = trial > 1.0
        p[newly_clipped] = 1.0
        budget -= float(newly_clipped.sum())
        active &= ~newly_clipped
        if budget <= 0.0 or not active.any():
            break
    return p


def sample_with_replacement(
    probs: np.ndarray, c: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """Draw ``c`` i.i.d. indices; returns (indices, their probabilities)."""
    probs = np.asarray(probs, dtype=float)
    if c <= 0:
        raise ValueError(f"c must be positive, got {c}")
    idx = rng.choice(probs.size, size=c, replace=True, p=probs)
    return idx, probs[idx]
