"""Pure helpers shared by the benchmark's orchestrator, worker and tests.

Nothing here imports NumPy, so the orchestrator can use it before any
child process has pinned its thread pools.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence

#: Environment that pins every BLAS/OpenMP pool to one thread.  It must be
#: in place before NumPy is first imported, which is why the orchestrator
#: puts it into each child's environment rather than setting it in-process.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

#: Fewest samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10

#: Tail percentiles to choose from, lowest first.
TAIL_CANDIDATES = (0.9, 0.99, 0.999)

#: The open-loop generator's first request is due this long after it
#: starts, so request 0 is not already late.
START_DELAY_S = 0.05


def tail_quantile(n: int) -> float:
    """Highest candidate quantile with at least ``MIN_BEYOND`` samples above it.

    With ``n`` samples, ``n * (1 - q)`` of them lie beyond quantile ``q``.
    Raises ``ValueError`` when even the lowest candidate is too high for
    ``n`` — the run is too short to report a tail at all.
    """
    chosen = None
    for q in TAIL_CANDIDATES:
        # round() absorbs binary error in 1 - q (1 - 0.99 is 0.01000...0009).
        if round(n * (1.0 - q), 9) >= MIN_BEYOND:
            chosen = q
    if chosen is None:
        raise ValueError(
            f"{n} samples leave fewer than {MIN_BEYOND} beyond every "
            f"candidate quantile {list(TAIL_CANDIDATES)}"
        )
    return chosen


def quantile_label(q: float) -> str:
    """``0.9`` -> ``"p90"``, ``0.999`` -> ``"p99.9"``."""
    return "p" + f"{q * 100:.4f}".rstrip("0").rstrip(".")


class SpanTimer:
    """Times wrapped calls by name and tracks their top-level coverage.

    ``wrap(name, fn)`` returns ``fn`` with its wall time added to
    ``totals[name]`` and its call count to ``calls[name]``.  Calls that
    start while another wrapped call is running (an LSH query that runs a
    backend GEMM, say) still count under their own name but not again
    under ``covered``, which sums only the outermost intervals: the share
    of a step that some timed child accounts for.  One thread at a time.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.totals: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.covered = 0.0
        self._depth = 0

    def wrap(self, name: str, fn: Callable) -> Callable:
        clock = self.clock

        def timed(*args, **kwargs):
            self._depth += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self._depth -= 1
                self.totals[name] = self.totals.get(name, 0.0) + elapsed
                self.calls[name] = self.calls.get(name, 0) + 1
                if self._depth == 0:
                    self.covered += elapsed

        timed.__name__ = getattr(fn, "__name__", name)
        return timed

    def reset(self) -> None:
        """Forget everything recorded so far (end of warm-up)."""
        self.totals.clear()
        self.calls.clear()
        self.covered = 0.0


def self_time(total: float, covered: float) -> Dict[str, float]:
    """A parent's self time and child coverage from its interval totals.

    ``total`` is the parent's summed wall time and ``covered`` the part
    of it its timed children account for (:attr:`SpanTimer.covered`).
    """
    if total <= 0.0:
        raise ValueError(f"parent total must be positive, got {total}")
    if covered < 0.0:
        raise ValueError(f"covered time must be non-negative, got {covered}")
    return {"self": total - covered, "coverage_frac": covered / total}


def open_loop(
    submit: Callable[[int], object],
    n: int,
    rate: float,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
    refused: tuple = (),
) -> Dict[str, list]:
    """Fire ``n`` submissions on a fixed schedule of ``rate`` per second.

    Request ``i`` is due at ``t0 + i / rate``, with ``t0`` a fixed
    ``START_DELAY_S`` after the call.  The generator sleeps until
    each due time, never for a request already late, so a stall delays
    the requests behind it instead of thinning the schedule.  Returns the
    due and actual send times and what ``submit(i)`` returned, or the
    exception it raised if that is one of the ``refused`` types (a
    refused request is a missed request; any other exception propagates).
    Latency is measured from ``due``, which charges the system for any
    wait the stall imposed.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    t0 = clock() + START_DELAY_S
    due: List[float] = []
    sent: List[float] = []
    handles: List[object] = []
    for i in range(n):
        when = t0 + i / rate
        now = clock()
        if now < when:
            sleep(when - now)
        due.append(when)
        sent.append(clock())
        try:
            handles.append(submit(i))
        except refused as exc:
            handles.append(exc)
    return {"due": due, "sent": sent, "handles": handles}


def latencies_from_due(
    due: Sequence[float], completed: Sequence[Optional[float]]
) -> List[Optional[float]]:
    """Per-request latency ``completed - due`` (None where never completed)."""
    return [None if c is None else c - d for d, c in zip(due, completed)]


#: Workload names, in the order BENCHMARK.json lists them.
WORKLOADS = ("train-alsh-s", "train-mc-m", "serve-alsh-topk")

#: End-to-end metrics (untraced run) -> unit.  Every workload reports all.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "rate_per_s": "1/s",
    "latency_ms.p50": "ms",
    "loss": "nats",
    "recall_at_10": "frac",
}

#: Per-layer metrics (traced run) -> unit.  A layer a workload never
#: enters reports 0: that is the measured work, not a missing value.
PER_LAYER = {
    "core.forward_ms": "ms",
    "core.backward_ms": "ms",
    "core.self_ms": "ms",
    "core.coverage_frac": "frac",
    "nn.optim.update_ms": "ms",
    "nn.optim.lazy_cols": "count",
    "nn.optim.moved_mb": "MB",
    "backend.matmul_cols_ms": "ms",
    "backend.backprop_cols_ms": "ms",
    "backend.grad_cols_ms": "ms",
    "backend.matmul_ms": "ms",
    "backend.matmul_add_bias_ms": "ms",
    "backend.sampled_matmul_ms": "ms",
    "backend.flops_ratio": "frac",
    "lsh.query_ms": "ms",
    "lsh.query_batch_ms": "ms",
    "lsh.candidates": "count",
    "lsh.update_ms": "ms",
    "lsh.rehashed_cols": "count",
    "lsh.garbage_frac": "frac",
    "lsh.build_s": "s",
    "approx.probabilities_ms": "ms",
    "approx.sample_ms": "ms",
    "approx.rows_kept_frac": "frac",
    "serve.batcher.queue_wait_ms.p50": "ms",
    "serve.batcher.batch_size": "count",
    "serve.registry.trunk_ms": "ms",
    "serve.head.topk_ms": "ms",
    "serve.head.fallback_frac": "frac",
    "data.generate_s": "s",
    "obs.trace_overhead_frac": "frac",
    "loadgen.late_ms.p99": "ms",
}
