"""First-order optimisers with dense *and* sparse-column updates.

ALSH-approx (§5.2) only back-propagates through the active nodes of each
layer, so its weight-gradient updates touch a small subset of the columns of
``W``.  To keep that sparsity profitable, every optimiser here supports an
``index`` argument that restricts the update — including its internal state
(moments, accumulators, step counts) — to the selected columns.

The paper uses SGD for most methods and Adam for ALSH-approx (§8.4, noting
the reference implementation works better with Adam than the original
Adagrad); all four are provided.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

__all__ = ["Optimizer", "SGD", "Momentum", "Adagrad", "Adam", "get_optimizer"]


def _slice(arr: np.ndarray, index: Optional[np.ndarray]):
    """View of ``arr`` restricted to output-node columns.

    For 2-D parameters (weight matrices, ``n_in × n_out``) the index selects
    columns; for 1-D parameters (biases) it selects entries.
    """
    if index is None:
        return arr
    if arr.ndim == 2:
        return arr[:, index]
    return arr[index]


def _assign(arr: np.ndarray, index: Optional[np.ndarray], value: np.ndarray):
    """Write ``value`` into the column slice of ``arr`` selected by index."""
    if index is None:
        arr[...] = value
    elif arr.ndim == 2:
        arr[:, index] = value
    else:
        arr[index] = value


class Optimizer:
    """Base class holding per-parameter state keyed by caller-chosen ids.

    Parameters are updated in place.  ``key`` must be stable across steps
    (e.g. ``("W", layer_idx)``); state arrays are allocated lazily at full
    parameter size so sparse and dense updates can interleave freely.

    ``weight_decay`` applies decoupled L2 shrinkage (AdamW-style):
    ``p ← p · (1 − lr·wd)`` before the gradient step, restricted to the
    updated columns for sparse updates so untouched weights are not decayed
    (matching the lazy-state convention).

    ``max_grad_norm`` clips each incoming gradient tensor to the given
    Frobenius norm before it is applied — the standard guard against the
    variance blow-ups that 1/p-scaled sampled gradients can produce in
    deep networks (see repro.core.mc_approx).
    """

    def __init__(
        self,
        lr: float,
        weight_decay: float = 0.0,
        max_grad_norm: Optional[float] = None,
    ):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if weight_decay < 0:
            raise ValueError(f"weight_decay must be non-negative, got {weight_decay}")
        if max_grad_norm is not None and max_grad_norm <= 0:
            raise ValueError(f"max_grad_norm must be positive, got {max_grad_norm}")
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.max_grad_norm = None if max_grad_norm is None else float(max_grad_norm)
        self._state: Dict[object, Dict[str, np.ndarray]] = {}
        #: Keys whose slots came from :meth:`load_state_dict` and have not
        #: yet met their parameter (see :meth:`_get_state`).
        self._restored: set = set()

    def _clip(self, grad: np.ndarray) -> np.ndarray:
        if self.max_grad_norm is None:
            return grad
        norm = float(np.linalg.norm(grad))
        if norm <= self.max_grad_norm or norm == 0.0:
            return grad
        return grad * (self.max_grad_norm / norm)

    def _apply_weight_decay(
        self, param: np.ndarray, index: Optional[np.ndarray]
    ) -> None:
        if self.weight_decay == 0.0:
            return
        shrink = 1.0 - self.lr * self.weight_decay
        if index is None:
            param *= shrink
        elif param.ndim == 2:
            param[:, index] *= shrink
        else:
            param[index] *= shrink

    def _get_state(self, key, param: np.ndarray) -> Dict[str, np.ndarray]:
        state = self._state.get(key)
        if state is None:
            state = self._init_state(param)
            self._state[key] = state
        elif self._restored and key in self._restored:
            # A restored slot takes its parameter's memory order on first
            # use, as a fresh one does through ``zeros_like``.
            self._restored.discard(key)
            order = "F" if np.isfortran(param) else "C"
            for slot, arr in state.items():
                if arr.shape == param.shape:
                    state[slot] = np.asarray(arr, order=order)
        return state

    def _init_state(self, param: np.ndarray) -> Dict[str, np.ndarray]:
        return {}

    @property
    def row_local(self) -> bool:
        """Whether the update of a row block of a parameter depends only
        on that block and its gradient rows.

        Then :meth:`update` on a view ``param[rows]`` with ``grad[rows]``
        gives exactly those rows of the whole update, and a caller may
        apply a gradient block by block as it computes it.  Optimisers
        that keep per-parameter state or clip by a whole-tensor norm are
        not row-local.
        """
        return False

    def update(
        self,
        key,
        param: np.ndarray,
        grad: np.ndarray,
        index: Optional[np.ndarray] = None,
    ) -> None:
        """Apply one optimisation step in place.

        ``grad`` must already be restricted to the ``index`` columns when an
        index is given (that is exactly what the sparse trainers produce).
        """
        raise NotImplementedError

    def reset(self) -> None:
        """Drop all accumulated state (fresh optimiser)."""
        self._state.clear()
        self._restored.clear()

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self):
        """Complete optimiser state as ``(meta, arrays)``.

        ``meta`` is JSON-safe (optimiser name, learning rate, slot layout)
        and ``arrays`` maps flat names to the slot arrays, ready for an
        ``.npz`` checkpoint.  Parameter keys must be strings or flat tuples
        of JSON scalars (the trainers use ``("W", i)`` / ``("b", i)``).
        """
        meta = {
            "name": getattr(self, "name", type(self).__name__.lower()),
            "lr": self.lr,
            "keys": [],
        }
        arrays = {}
        for j, (key, state) in enumerate(self._state.items()):
            meta["keys"].append(
                {
                    "key": list(key) if isinstance(key, tuple) else key,
                    "tuple": isinstance(key, tuple),
                    "slots": sorted(state),
                }
            )
            for slot in state:
                arrays[f"opt.{j}.{slot}"] = state[slot]
        return meta, arrays

    def load_state_dict(self, meta, arrays) -> None:
        """Restore state captured by :meth:`state_dict` (exact copy)."""
        name = getattr(self, "name", type(self).__name__.lower())
        if meta.get("name") != name:
            raise ValueError(
                f"checkpoint holds {meta.get('name')!r} optimiser state, "
                f"this trainer uses {name!r}"
            )
        self.lr = float(meta["lr"])
        self._state.clear()
        for j, entry in enumerate(meta["keys"]):
            key = tuple(entry["key"]) if entry["tuple"] else entry["key"]
            self._state[key] = {
                slot: np.array(arrays[f"opt.{j}.{slot}"])
                for slot in entry["slots"]
            }
        self._restored = set(self._state)


class SGD(Optimizer):
    """Plain stochastic gradient descent: ``p ← p − lr · g``."""

    name = "sgd"

    @property
    def row_local(self) -> bool:
        # Decoupled weight decay is elementwise; clipping is not.
        return self.max_grad_norm is None

    def update(self, key, param, grad, index=None):
        self._apply_weight_decay(param, index)
        grad = self._clip(grad)
        if index is None:
            param -= self.lr * grad
        elif param.ndim == 2:
            param[:, index] -= self.lr * grad
        else:
            param[index] -= self.lr * grad


class Momentum(Optimizer):
    """SGD with classical momentum."""

    name = "momentum"

    def __init__(self, lr: float, beta: float = 0.9, weight_decay: float = 0.0,
                 max_grad_norm=None):
        super().__init__(lr, weight_decay, max_grad_norm)
        if not 0.0 <= beta < 1.0:
            raise ValueError(f"beta must be in [0, 1), got {beta}")
        self.beta = float(beta)

    def _init_state(self, param):
        return {"v": np.zeros_like(param, dtype=float)}

    def update(self, key, param, grad, index=None):
        self._apply_weight_decay(param, index)
        grad = self._clip(grad)
        state = self._get_state(key, param)
        v = _slice(state["v"], index)
        v_new = self.beta * v + grad
        _assign(state["v"], index, v_new)
        if index is None:
            param -= self.lr * v_new
        elif param.ndim == 2:
            param[:, index] -= self.lr * v_new
        else:
            param[index] -= self.lr * v_new


class Adagrad(Optimizer):
    """Adagrad — the optimiser in the original ALSH-approx paper [50]."""

    name = "adagrad"

    def __init__(self, lr: float, eps: float = 1e-10, weight_decay: float = 0.0,
                 max_grad_norm=None):
        super().__init__(lr, weight_decay, max_grad_norm)
        self.eps = float(eps)

    def _init_state(self, param):
        return {"g2": np.zeros_like(param, dtype=float)}

    def update(self, key, param, grad, index=None):
        self._apply_weight_decay(param, index)
        grad = self._clip(grad)
        state = self._get_state(key, param)
        g2 = _slice(state["g2"], index) + grad * grad
        _assign(state["g2"], index, g2)
        step = self.lr * grad / (np.sqrt(g2) + self.eps)
        if index is None:
            param -= step
        elif param.ndim == 2:
            param[:, index] -= step
        else:
            param[index] -= step


class Adam(Optimizer):
    """Adam — used for ALSH-approx in the paper's experiments (§8.4).

    For sparse-column updates the bias-correction step count is tracked per
    column, following the "lazy Adam" convention: a column's moments only
    advance when it receives a gradient.
    """

    name = "adam"

    def __init__(
        self,
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        max_grad_norm: Optional[float] = None,
    ):
        super().__init__(lr, weight_decay, max_grad_norm)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError(f"betas must be in [0, 1): {beta1}, {beta2}")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)

    def _init_state(self, param):
        n_cols = param.shape[-1] if param.ndim == 2 else param.shape[0]
        return {
            "m": np.zeros_like(param, dtype=float),
            "v": np.zeros_like(param, dtype=float),
            "t": np.zeros(n_cols, dtype=np.int64),
        }

    def update(self, key, param, grad, index=None):
        self._apply_weight_decay(param, index)
        grad = self._clip(grad)
        state = self._get_state(key, param)
        col_idx = slice(None) if index is None else index
        state["t"][col_idx] += 1
        t = state["t"][col_idx]

        # In place on the gathered slices (views of the state for a dense
        # update), in the order of beta1·m + (1-beta1)·g and
        # beta2·v + ((1-beta2)·g)·g; ``scaled`` holds each scaled g.
        m = _slice(state["m"], index)
        v = _slice(state["v"], index)
        gathered = not np.may_share_memory(v, state["v"])
        scaled = np.multiply(1 - self.beta1, grad)
        np.multiply(self.beta1, m, out=m)
        np.add(m, scaled, out=m)
        np.multiply(1 - self.beta2, grad, out=scaled)
        np.multiply(scaled, grad, out=scaled)
        np.multiply(self.beta2, v, out=v)
        np.add(v, scaled, out=v)
        if gathered:
            _assign(state["m"], index, m)
            _assign(state["v"], index, v)

        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        # step = lr·(m/bc1) / (sqrt(v/bc2) + eps).  v/bc2 overwrites v
        # only if v is a gathered copy; the step reuses ``scaled`` only
        # if it fits (not for a float32 or broadcast grad).
        fits = scaled.dtype == m.dtype and scaled.shape == m.shape
        step = np.divide(m, bc1, out=scaled if fits else None)
        np.multiply(self.lr, step, out=step)
        denom = np.divide(v, bc2, out=v if gathered else None)
        np.sqrt(denom, out=denom)
        np.add(denom, self.eps, out=denom)
        np.divide(step, denom, out=step)
        if index is None:
            param -= step
        elif param.ndim == 2:
            param[:, index] -= step
        else:
            param[index] -= step


_REGISTRY = {cls.name: cls for cls in (SGD, Momentum, Adagrad, Adam)}


def get_optimizer(name, lr: float, **kwargs) -> Optimizer:
    """Build an optimiser by name with the given learning rate."""
    if isinstance(name, Optimizer):
        return name
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown optimizer {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return cls(lr, **kwargs)
