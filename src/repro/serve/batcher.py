"""Async micro-batching request queue (stdlib threading only).

Inference traffic arrives one sample at a time, but the hardware wants
batches: one batch-64 GEMM costs ~an order of magnitude less than 64
batch-1 GEMVs.  The :class:`MicroBatcher` buys that back by holding
requests for up to ``max_wait`` seconds (or until ``max_batch`` are
waiting, whichever comes first), running one batched forward, and
scattering the result rows to their callers.

The *policy* — when is a batch ready, which requests expired — lives in
:class:`BatchCollector`, a pure object driven entirely by timestamps
passed in.  The threaded runtime injects ``time.monotonic``; tests
inject a fake clock and step it, so every deadline path is exercised
deterministically without sleeping.

Overload never blocks and never deadlocks:

* a full queue rejects new work immediately (:class:`ServerOverloaded`,
  the 429 path) rather than queueing unboundedly;
* requests whose deadline passes while queued are shed at dispatch time
  (:class:`DeadlineExceeded`) so a slow handler degrades to serving
  fewer, fresher requests instead of a growing backlog of stale ones;
* a handler that raises fails only the requests in its batch — the
  worker survives and the next batch is served.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import NULL_RECORDER, Recorder
from ..obs.counters import (
    HIST_SERVE_LATENCY,
    HIST_SERVE_QUEUE_WAIT,
    SERVE_BATCHES,
    SERVE_HANDLER_ERRORS,
    SERVE_QUEUE_DEPTH,
    SERVE_REQUESTS,
    SERVE_SHED_DEADLINE,
    SERVE_SHED_QUEUE_FULL,
)
from ..obs.histogram import Histogram
from ..obs.timeseries import SERIES_SERVE_BATCH_SIZE
from ..obs.tracectx import NULL_TRACER, RequestTracer

__all__ = [
    "ServeError",
    "ServerOverloaded",
    "DeadlineExceeded",
    "ServerClosed",
    "ServeRequest",
    "BatchCollector",
    "MicroBatcher",
]


class ServeError(Exception):
    """Base class for serving-layer failures."""


class ServerOverloaded(ServeError):
    """Request rejected because the queue is at its depth limit (429)."""


class DeadlineExceeded(ServeError):
    """Request shed because its deadline passed before dispatch."""


class ServerClosed(ServeError):
    """Request rejected or abandoned because the server shut down."""


class ServeRequest:
    """One queued inference request; a minimal single-waiter future.

    ``x`` is one sample (a 1-D feature row); ``deadline`` is an absolute
    clock value or ``None``.  ``request_id`` is the trace id minted at
    submit time (None when tracing is off).  The batcher fulfils the
    request with :meth:`set_result` / :meth:`set_exception`; the caller
    blocks in :meth:`result`.
    """

    __slots__ = ("x", "enqueued_at", "deadline", "request_id", "_event",
                 "_result", "_exception", "completed_at")

    def __init__(self, x: np.ndarray, enqueued_at: float,
                 deadline: Optional[float] = None,
                 request_id: Optional[str] = None):
        self.x = x
        self.enqueued_at = float(enqueued_at)
        self.deadline = None if deadline is None else float(deadline)
        self.request_id = request_id
        self._event = threading.Event()
        self._result = None
        self._exception: Optional[BaseException] = None
        self.completed_at: Optional[float] = None

    def expired(self, now: float) -> bool:
        # Inclusive: a request dispatched exactly at its deadline has zero
        # remaining budget, so it is shed rather than served late.
        return self.deadline is not None and now >= self.deadline

    def set_result(self, value, now: float) -> None:
        self._result = value
        self.completed_at = float(now)
        self._event.set()

    def set_exception(self, exc: BaseException, now: float) -> None:
        self._exception = exc
        self.completed_at = float(now)
        self._event.set()

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None):
        """Block until fulfilled; raises the request's failure if any."""
        if not self._event.wait(timeout):
            raise TimeoutError("request not completed within timeout")
        if self._exception is not None:
            raise self._exception
        return self._result

    @property
    def latency(self) -> Optional[float]:
        """Enqueue-to-completion seconds (None while pending)."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.enqueued_at


class BatchCollector:
    """Pure micro-batching policy: no threads, no clock of its own.

    A batch is *ready* when ``max_batch`` requests are pending or the
    oldest pending request has waited ``max_wait`` seconds.  All time
    enters through method arguments, so tests drive the policy with a
    scripted clock.
    """

    def __init__(self, max_batch: int, max_wait: float):
        if max_batch < 1:
            raise ValueError(f"max_batch must be at least 1, got {max_batch}")
        if max_wait < 0:
            raise ValueError(f"max_wait must be non-negative, got {max_wait}")
        self.max_batch = int(max_batch)
        self.max_wait = float(max_wait)
        self.pending: List[ServeRequest] = []

    def __len__(self) -> int:
        return len(self.pending)

    def offer(self, request: ServeRequest) -> None:
        self.pending.append(request)

    def ready(self, now: float) -> bool:
        """Whether a batch should be dispatched at time ``now``."""
        if not self.pending:
            return False
        if len(self.pending) >= self.max_batch:
            return True
        return now - self.pending[0].enqueued_at >= self.max_wait

    def wait_time(self, now: float) -> Optional[float]:
        """Seconds until the oldest request's wait expires (None if idle)."""
        if not self.pending:
            return None
        return max(0.0, self.pending[0].enqueued_at + self.max_wait - now)

    def drain(self, now: float) -> tuple:
        """Take the next batch: ``(live_requests, expired_requests)``.

        Removes up to ``max_batch`` live requests in arrival order,
        shedding every already-expired request encountered on the way
        (expired requests do not consume batch slots).
        """
        live: List[ServeRequest] = []
        expired: List[ServeRequest] = []
        taken = 0
        for request in self.pending:
            if request.expired(now):
                expired.append(request)
                taken += 1
            elif len(live) < self.max_batch:
                live.append(request)
                taken += 1
            else:
                break
        self.pending = self.pending[taken:]
        return live, expired


class MicroBatcher:
    """Threaded runtime around :class:`BatchCollector`.

    Parameters
    ----------
    handler:
        ``(batch_x) -> batch_out`` where ``batch_x`` stacks the batch's
        sample rows; row ``i`` of the result answers request ``i``.
    max_batch, max_wait:
        Batch-formation policy (see :class:`BatchCollector`).
    max_queue:
        Bound on pending requests; submissions beyond it are shed with
        :class:`ServerOverloaded`.
    default_deadline:
        Per-request deadline in seconds from enqueue (None = no
        deadline); individual submissions may override.
    clock:
        Monotonic time source (tests inject a fake).
    recorder:
        Observability sink (queue-depth gauge, shed counters,
        batch-size series, latency/queue-wait histograms).
    tracer:
        Per-request trace propagation (:class:`RequestTracer`); the
        default :data:`NULL_TRACER` mints no ids and drops all events.
    start_worker:
        ``False`` leaves dispatch to explicit :meth:`run_once` calls —
        the deterministic mode the clock-injected tests run in.

    Latency tracking is O(buckets), not O(requests): completed-request
    latencies and queue waits land in two bounded log-bucket
    :class:`~repro.obs.histogram.Histogram`\\ s (:attr:`latency`,
    :attr:`queue_wait`) that a long-running server can hold forever.
    """

    def __init__(
        self,
        handler: Callable[[np.ndarray], np.ndarray],
        max_batch: int = 32,
        max_wait: float = 0.002,
        max_queue: int = 256,
        default_deadline: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
        recorder: Recorder = NULL_RECORDER,
        tracer: RequestTracer = NULL_TRACER,
        start_worker: bool = True,
    ):
        if max_queue < 1:
            raise ValueError(f"max_queue must be at least 1, got {max_queue}")
        self.handler = handler
        self.collector = BatchCollector(max_batch, max_wait)
        self.max_queue = int(max_queue)
        self.default_deadline = default_deadline
        self.clock = clock
        self.obs = recorder
        self.tracer = tracer
        #: bounded latency/queue-wait histograms — always on, because
        #: ``stats()`` must answer even under the null recorder.  With a
        #: live recorder they ARE the recorder's histograms (aliased via
        #: ``get_histogram``), so one O(1) record per sample feeds both
        #: ``stats()`` and the snapshot/JSONL/exporter surface.
        if recorder.enabled and hasattr(recorder, "get_histogram"):
            self.latency = recorder.get_histogram(HIST_SERVE_LATENCY)
            self.queue_wait = recorder.get_histogram(HIST_SERVE_QUEUE_WAIT)
        else:
            self.latency = Histogram()
            self.queue_wait = Histogram()
        #: trace batch id of the batch currently inside the handler
        #: (readable by the handler itself for batch-scoped spans).
        self.dispatching_batch_id: Optional[str] = None
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._closed = False
        self._batch_seq = 0
        self._depth_high_water = 0
        self._worker: Optional[threading.Thread] = None
        if start_worker:
            self._worker = threading.Thread(
                target=self._run, name="micro-batcher", daemon=True
            )
            self._worker.start()

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    def submit(
        self,
        x: np.ndarray,
        deadline: Optional[float] = None,
        request_id: Optional[str] = None,
    ) -> ServeRequest:
        """Enqueue one sample; returns its future-like request handle.

        ``request_id`` is the trace id minted by the caller (the server
        mints one per submission when tracing is on); when omitted the
        batcher mints its own via the tracer.

        Raises :class:`ServerClosed` after shutdown and
        :class:`ServerOverloaded` when the queue is at depth — the two
        conditions a client must handle rather than wait out.
        """
        now = self.clock()
        rel = self.default_deadline if deadline is None else deadline
        if request_id is None:
            request_id = self.tracer.mint()
        request = ServeRequest(
            np.asarray(x, dtype=float),
            enqueued_at=now,
            deadline=None if rel is None else now + float(rel),
            request_id=request_id,
        )
        with self._wake:
            if self._closed:
                raise ServerClosed("server is shut down")
            depth = len(self.collector)
            if depth >= self.max_queue:
                self.obs.add(SERVE_SHED_QUEUE_FULL)
                self.tracer.event(request_id, "shed_queue_full", t=now)
                raise ServerOverloaded(
                    f"queue at depth limit {self.max_queue}; retry later"
                )
            self.collector.offer(request)
            depth += 1
            if depth > self._depth_high_water:
                self._depth_high_water = depth
                self.obs.gauge(SERVE_QUEUE_DEPTH, depth)
            self.obs.add(SERVE_REQUESTS)
            self._wake.notify()
        self.tracer.event(request_id, "enqueued", t=now, depth=depth)
        return request

    def queue_depth(self) -> int:
        with self._lock:
            return len(self.collector)

    def health(self) -> Tuple[bool, str]:
        """``(healthy, reason)``: whether submitted requests get served.

        Unhealthy once the batcher is closed or its worker thread has
        stopped; the ``/healthz`` endpoint of a server reports this.
        Without a worker (``start_worker=False``) dispatch is the
        caller's, so only closing makes it unhealthy.
        """
        if self._closed:
            return False, "micro-batcher is closed"
        if self._worker is not None and not self._worker.is_alive():
            return False, "micro-batcher worker thread is not running"
        return True, "ok"

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, live: Sequence[ServeRequest],
                  expired: Sequence[ServeRequest]) -> int:
        """Run one batch outside the lock; fulfil every request."""
        now = self.clock()
        for request in expired:
            self.obs.add(SERVE_SHED_DEADLINE)
            self.tracer.event(request.request_id, "shed_deadline", t=now)
            request.set_exception(
                DeadlineExceeded("deadline passed while queued"), now
            )
        if not live:
            return 0
        batch_id = self.tracer.mint_batch()
        for request in live:
            self.queue_wait.record(now - request.enqueued_at)
            self.tracer.event(
                request.request_id, "dispatched", batch=batch_id, t=now
            )
        if batch_id is not None:
            self.tracer.batch_event(
                batch_id, "handler_start", size=len(live)
            )
        self.dispatching_batch_id = batch_id
        try:
            # Stacking is guarded too: rows of mismatched widths must
            # fail their batch, not kill the worker thread.
            out = self.handler(np.stack([r.x for r in live]))
        except Exception as exc:  # degrade: fail the batch, keep serving
            self.obs.add(SERVE_HANDLER_ERRORS)
            now = self.clock()
            for request in live:
                self.tracer.event(
                    request.request_id, "failed", batch=batch_id, t=now
                )
                request.set_exception(
                    ServeError(f"batch failed: {exc!r}"), now
                )
            return len(live)
        finally:
            self.dispatching_batch_id = None
        now = self.clock()
        if batch_id is not None:
            self.tracer.batch_event(batch_id, "handler_end", t=now)
        self._batch_seq += 1
        self.obs.add(SERVE_BATCHES)
        self.obs.series(SERIES_SERVE_BATCH_SIZE, self._batch_seq, len(live))
        for i, request in enumerate(live):
            request.set_result(out[i], now)
            latency = request.latency
            if latency is not None:
                self.latency.record(latency)
                self.tracer.event(
                    request.request_id, "completed", batch=batch_id, t=now
                )
        return len(live)

    def run_once(self, force: bool = False) -> int:
        """Synchronously dispatch one batch if the policy says so.

        Returns the number of requests completed (served, failed or
        shed).  ``force=True`` dispatches whatever is pending without
        waiting for the policy — the drain path of :meth:`close`.
        """
        now = self.clock()
        with self._lock:
            if not (force and self.collector.pending) and not self.collector.ready(now):
                return 0
            live, expired = self.collector.drain(now)
        self._dispatch(live, expired)
        return len(live) + len(expired)

    def _run(self) -> None:
        while True:
            with self._wake:
                while True:
                    if self._closed and not self.collector.pending:
                        return
                    now = self.clock()
                    if self.collector.ready(now) or (
                        self._closed and self.collector.pending
                    ):
                        live, expired = self.collector.drain(now)
                        break
                    wait = self.collector.wait_time(now)
                    self._wake.wait(timeout=wait)
            self._dispatch(live, expired)

    # ------------------------------------------------------------------
    def close(self, drain: bool = True, timeout: float = 5.0) -> None:
        """Shut down; by default serve what is queued first.

        With ``drain=False`` pending requests fail with
        :class:`ServerClosed` instead of being served.
        """
        with self._wake:
            if self._closed:
                return
            self._closed = True
            if not drain:
                now = self.clock()
                for request in self.collector.pending:
                    request.set_exception(ServerClosed("server shut down"), now)
                self.collector.pending = []
            self._wake.notify_all()
        if self._worker is not None:
            self._worker.join(timeout=timeout)
        elif drain:
            while self.run_once(force=True):
                pass

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
