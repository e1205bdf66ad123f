"""Fault injection: crashing and slow handlers degrade, never deadlock.

These tests run the real worker thread on purpose — the guarantee under
test is that overload and handler failure leave the server *answering*
(with errors or 429s), not wedged.  Every ``result`` call carries a
timeout, so a regression shows up as a test failure, not a hang.
"""

import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.obs import InMemoryRecorder
from repro.obs.export import MetricsServer
from repro.obs.counters import SERVE_HANDLER_ERRORS, SERVE_SHED_QUEUE_FULL
from repro.serve.batcher import (
    MicroBatcher,
    ServeError,
    ServerClosed,
    ServerOverloaded,
)

from .conftest import echo_handler

RESULT_TIMEOUT = 10.0


class TestCrashingHandler:
    def test_crash_fails_batch_but_worker_survives(self):
        calls = {"n": 0}

        def flaky(batch):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("kaboom")
            return echo_handler(batch)

        recorder = InMemoryRecorder()
        with MicroBatcher(
            flaky, max_batch=2, max_wait=0.001, recorder=recorder
        ) as batcher:
            first = [batcher.submit([1.0]), batcher.submit([2.0])]
            for request in first:
                with pytest.raises(ServeError, match="kaboom"):
                    request.result(RESULT_TIMEOUT)
            # The worker must still be alive and serving.
            second = [batcher.submit([3.0]), batcher.submit([4.0])]
            np.testing.assert_array_equal(
                second[0].result(RESULT_TIMEOUT), [6.0]
            )
            np.testing.assert_array_equal(
                second[1].result(RESULT_TIMEOUT), [8.0]
            )
        assert recorder.get(SERVE_HANDLER_ERRORS) == 1

    def test_crash_only_fails_its_own_batch(self):
        def crash_on_marker(batch):
            if np.any(batch < 0):
                raise ValueError("poisoned batch")
            return echo_handler(batch)

        with MicroBatcher(
            crash_on_marker, max_batch=1, max_wait=0.0
        ) as batcher:
            bad = batcher.submit([-1.0])
            good = batcher.submit([5.0])
            with pytest.raises(ServeError):
                bad.result(RESULT_TIMEOUT)
            np.testing.assert_array_equal(good.result(RESULT_TIMEOUT), [10.0])


    def test_mismatched_widths_fail_their_batch_not_the_worker(self):
        """Rows that cannot be stacked fail their own batch with a
        ServeError; the worker keeps serving the requests after them."""
        recorder = InMemoryRecorder()
        with MicroBatcher(
            echo_handler, max_batch=2, max_wait=60.0, recorder=recorder
        ) as batcher:
            bad = [batcher.submit([1.0]), batcher.submit([1.0, 2.0])]
            for request in bad:
                with pytest.raises(ServeError):
                    request.result(RESULT_TIMEOUT)
            good = [batcher.submit([3.0]), batcher.submit([4.0])]
            np.testing.assert_array_equal(good[0].result(RESULT_TIMEOUT), [6.0])
            np.testing.assert_array_equal(good[1].result(RESULT_TIMEOUT), [8.0])
        assert recorder.get(SERVE_HANDLER_ERRORS) == 1


class TestSlowHandler:
    def test_overload_sheds_instead_of_queueing_unboundedly(self):
        def slow(batch):
            time.sleep(0.02)
            return echo_handler(batch)

        recorder = InMemoryRecorder()
        batcher = MicroBatcher(
            slow, max_batch=4, max_wait=0.001, max_queue=8, recorder=recorder
        )
        accepted, shed = [], 0
        for i in range(200):
            try:
                accepted.append(batcher.submit([float(i)]))
            except ServerOverloaded:
                shed += 1
        assert shed > 0, "a 5x-oversubscribed queue must shed"
        # Every accepted request completes; nothing hangs.
        for request in accepted:
            request.result(RESULT_TIMEOUT)
        batcher.close()
        assert recorder.get(SERVE_SHED_QUEUE_FULL) == shed

    def test_deadlines_shed_stale_requests_under_slow_handler(self):
        def slow(batch):
            time.sleep(0.05)
            return echo_handler(batch)

        batcher = MicroBatcher(
            slow, max_batch=1, max_wait=0.0, max_queue=64,
            default_deadline=0.06,
        )
        requests = [batcher.submit([float(i)]) for i in range(8)]
        outcomes = {"served": 0, "expired": 0}
        for request in requests:
            try:
                request.result(RESULT_TIMEOUT)
                outcomes["served"] += 1
            except ServeError:
                outcomes["expired"] += 1
        batcher.close()
        # The head of the line is served fresh; the tail expired instead
        # of being served stale (8 x 50ms handler vs 60ms deadlines).
        assert outcomes["served"] >= 1
        assert outcomes["expired"] >= 1
        assert outcomes["served"] + outcomes["expired"] == 8

    def test_close_during_slow_batch_drains_cleanly(self):
        def slow(batch):
            time.sleep(0.03)
            return echo_handler(batch)

        batcher = MicroBatcher(slow, max_batch=2, max_wait=0.001)
        requests = [batcher.submit([float(i)]) for i in range(6)]
        batcher.close(drain=True)
        for i, request in enumerate(requests):
            np.testing.assert_array_equal(
                request.result(RESULT_TIMEOUT), [2.0 * i]
            )

    def test_close_without_drain_fails_fast(self):
        started = threading.Event()

        def slow(batch):
            started.set()
            time.sleep(0.05)
            return echo_handler(batch)

        batcher = MicroBatcher(slow, max_batch=1, max_wait=0.0, max_queue=64)
        requests = [batcher.submit([float(i)]) for i in range(20)]
        started.wait(RESULT_TIMEOUT)
        batcher.close(drain=False)
        outcomes = {"served": 0, "closed": 0}
        for request in requests:
            try:
                request.result(RESULT_TIMEOUT)
                outcomes["served"] += 1
            except ServerClosed:
                outcomes["closed"] += 1
        # In-flight work may finish, but the queued tail fails fast
        # rather than being served after shutdown.
        assert outcomes["closed"] > 0
        assert outcomes["served"] + outcomes["closed"] == 20

    def test_close_is_idempotent(self):
        batcher = MicroBatcher(echo_handler, max_batch=2, max_wait=0.001)
        batcher.close()
        batcher.close()


def _healthz(server):
    """``(status, body)`` of ``GET /healthz``, 503 included."""
    try:
        with urllib.request.urlopen(server.url + "/healthz", timeout=5.0) as resp:
            return resp.status, resp.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        with exc:
            return exc.code, exc.read().decode("utf-8")


class TestWorkerHealth:
    """``/healthz`` follows the micro-batcher's worker thread."""

    # The injected exit is reported as an unhandled thread exception.
    @pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_dead_worker_turns_healthz_503(self):
        kill = threading.Event()

        def clock():
            # Fault injection: the worker thread exits at its next tick.
            if kill.is_set() and threading.current_thread().name == "micro-batcher":
                raise SystemExit
            return time.monotonic()

        batcher = MicroBatcher(echo_handler, max_batch=2, max_wait=0.001, clock=clock)
        try:
            with MetricsServer(dict, port=0, health_fn=batcher.health) as server:
                assert _healthz(server) == (200, "ok\n")
                kill.set()
                stranded = batcher.submit([1.0])
                batcher._worker.join(RESULT_TIMEOUT)
                assert not batcher._worker.is_alive()
                assert not stranded.done()
                assert _healthz(server) == (
                    503, "micro-batcher worker thread is not running\n"
                )
        finally:
            batcher.close()

    def test_closed_batcher_turns_healthz_503(self):
        batcher = MicroBatcher(echo_handler, max_batch=2, max_wait=0.001)
        with MetricsServer(dict, port=0, health_fn=batcher.health) as server:
            assert _healthz(server)[0] == 200
            batcher.close()
            assert _healthz(server) == (503, "micro-batcher is closed\n")

    def test_manual_dispatch_is_healthy_until_closed(self):
        batcher = MicroBatcher(echo_handler, start_worker=False)
        assert batcher.health() == (True, "ok")
        batcher.close()
        assert batcher.health()[0] is False
