"""Tests of the benchmark's helpers and of its command-line contract.

    python3 -m pytest perfbench -q

The end-to-end smoke tests run each workload for one second, traced.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from benchlib import (
    END_TO_END,
    PER_LAYER,
    START_DELAY_S,
    WORKLOADS,
    SpanTimer,
    latencies_from_due,
    open_loop,
    quantile_label,
    self_time,
    tail_quantile,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class FakeClock:
    def __init__(self, t: float = 100.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def sleep(self, seconds: float) -> None:
        assert seconds >= 0
        self.t += seconds


# ----------------------------------------------------------------------
# tail percentile choice
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "n, expected",
    [(100, 0.9), (999, 0.9), (1000, 0.99), (9999, 0.99), (10000, 0.999)],
)
def test_tail_quantile_leaves_ten_samples_beyond(n, expected):
    q = tail_quantile(n)
    assert q == expected
    assert round(n * (1 - q), 9) >= 10


def test_tail_quantile_refuses_a_run_too_short_for_any_tail():
    with pytest.raises(ValueError):
        tail_quantile(99)


def test_quantile_label():
    assert [quantile_label(q) for q in (0.5, 0.9, 0.99, 0.999)] == [
        "p50", "p90", "p99", "p99.9",
    ]


# ----------------------------------------------------------------------
# open-loop load generation
# ----------------------------------------------------------------------
def test_stalled_generator_raises_later_requests_latency():
    clock = FakeClock()
    completed = []

    def submit(i):
        if i == 3:
            clock.t += 0.05  # the generator stalls inside one submission
        completed.append(clock())  # an instant server: done when sent
        return i

    fired = open_loop(submit, 10, rate=100.0, clock=clock, sleep=clock.sleep)
    latency = latencies_from_due(fired["due"], completed)
    # Before the stall every request is on time.
    assert latency[:3] == pytest.approx([0.0, 0.0, 0.0])
    # The stall lands on request 3 and on every request due before the
    # generator caught up, each charged its wait from its due time.
    assert latency[3:9] == pytest.approx([0.05, 0.04, 0.03, 0.02, 0.01, 0.0], abs=1e-9)
    assert latency[9] == pytest.approx(0.0)
    # Timing from the send instead would hide all of it after request 3.
    sent_based = [c - s for c, s in zip(completed, fired["sent"])]
    assert sent_based[4:] == pytest.approx([0.0] * 6)


def test_open_loop_keeps_its_schedule_when_on_time():
    clock = FakeClock(5.0)
    fired = open_loop(lambda i: i, 4, rate=10.0, clock=clock, sleep=clock.sleep)
    t0 = 5.0 + START_DELAY_S
    assert fired["due"] == pytest.approx([t0, t0 + 0.1, t0 + 0.2, t0 + 0.3])
    assert fired["sent"] == pytest.approx(fired["due"])
    assert fired["handles"] == [0, 1, 2, 3]


def test_open_loop_records_refused_requests_and_propagates_others():
    class Refused(Exception):
        pass

    def submit(i):
        if i == 1:
            raise Refused("queue full")
        return i

    clock = FakeClock()
    fired = open_loop(submit, 3, rate=10.0, clock=clock, sleep=clock.sleep, refused=(Refused,))
    assert isinstance(fired["handles"][1], Refused)
    assert fired["handles"][0] == 0 and fired["handles"][2] == 2

    def broken(i):
        raise KeyError(i)

    with pytest.raises(KeyError):
        open_loop(broken, 1, rate=10.0, clock=clock, sleep=clock.sleep, refused=(Refused,))


def test_never_completed_requests_have_no_latency():
    assert latencies_from_due([1.0, 2.0], [1.5, None]) == [0.5, None]


# ----------------------------------------------------------------------
# self time and coverage
# ----------------------------------------------------------------------
def test_nested_children_are_covered_once():
    clock = FakeClock(0.0)
    timer = SpanTimer(clock=clock)

    def work(seconds):
        clock.t += seconds

    inner = timer.wrap("backend.matmul", work)

    def query():
        work(2.0)
        inner(1.0)  # nested: counted under its name, not covered twice

    outer = timer.wrap("lsh.query", query)
    other = timer.wrap("nn.optim.update", work)

    step_start = clock()
    work(1.5)  # the parent's own work
    outer()
    other(2.0)
    inner(0.5)
    work(3.0)
    step = clock() - step_start

    assert step == pytest.approx(10.0)
    assert timer.totals == pytest.approx(
        {"lsh.query": 3.0, "backend.matmul": 1.5, "nn.optim.update": 2.0}
    )
    assert timer.calls == {"lsh.query": 1, "backend.matmul": 2, "nn.optim.update": 1}
    assert timer.covered == pytest.approx(5.5)
    split = self_time(step, timer.covered)
    assert split["self"] == pytest.approx(4.5)
    assert split["coverage_frac"] == pytest.approx(0.55)


def test_span_timer_counts_calls_that_raise_and_resets():
    clock = FakeClock(0.0)
    timer = SpanTimer(clock=clock)

    def fail():
        clock.t += 1.0
        raise RuntimeError("boom")

    wrapped = timer.wrap("x", fail)
    with pytest.raises(RuntimeError):
        wrapped()
    assert timer.totals["x"] == pytest.approx(1.0)
    assert timer.covered == pytest.approx(1.0)
    timer.reset()
    assert timer.totals == {} and timer.calls == {} and timer.covered == 0.0


@pytest.mark.parametrize("total, covered", [(0.0, 0.0), (1.0, -0.1)])
def test_self_time_rejects_impossible_totals(total, covered):
    with pytest.raises(ValueError):
        self_time(total, covered)


# ----------------------------------------------------------------------
# the command's contract
# ----------------------------------------------------------------------
def test_benchmark_json_lists_what_the_command_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_command_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def run_command(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    result = run_command(workload, trace=1)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert set(result["metrics"]) == set(PER_LAYER)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == PER_LAYER[name]
        assert np.isfinite(metric["value"])
    if workload.startswith("train-"):
        assert result["metrics"]["core.coverage_frac"]["value"] > 0.5
    if workload == "train-alsh-s":
        # 5% of three 1000-wide layers, weights and biases: 6 x 50 columns.
        assert result["metrics"]["nn.optim.lazy_cols"]["value"] == 300.0


def test_untraced_run_prints_every_end_to_end_metric():
    result = run_command("train-mc-m", trace=0)
    assert result["correct"] is True
    assert set(result["metrics"]) == set(END_TO_END)
    assert result["metrics"]["ok_frac"]["value"] == 1.0
    assert all(m["value"] > 0 for m in result["metrics"].values())
