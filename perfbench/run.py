"""The benchmark's one command: run one workload, print its metrics.

    python3 perfbench/run.py --workload train-alsh-s --seed 0 --seconds 25 --trace 0

Workloads: ``train-alsh-s``, ``train-mc-m``, ``serve-alsh-topk`` (see
README.md).  Run from the root of a source checkout: the program is
imported from ``src/`` as it stands, nothing is installed.

With ``--trace 0`` the last line of standard output is one JSON object
holding every end-to-end metric; with ``--trace 1`` it holds every
per-layer metric instead.  Lines before it, starting with ``#``, record
the run's settings (threads, NumPy and BLAS, compute backend, seed) and
the latency tails (p90 and the highest percentile the run's sample count
supports), which are reported but not gated.

Every measurement runs in a fresh child process (``worker.py``) with the
BLAS and OpenMP pools pinned to one thread before NumPy loads.  An
untraced run makes ``MEASURE_RUNS`` measuring processes, each for an
equal share of ``--seconds``, and reports each timing as their median;
all of them must compute the same answers (bitwise-equal loss sequence,
or the same served ids).  ``setup_s`` is the median of several
first-in-process builds, each in a process of its own.  A traced run
makes one untraced and one traced process at the same seed: it checks
that both computed the same answers and reports the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from benchlib import END_TO_END, PER_LAYER, THREAD_ENV, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Measuring processes per untraced run; each timing is their median.
MEASURE_RUNS = 3

#: Fresh-process builds whose median is ``setup_s`` (each measuring
#: process contributes one of them).
SETUP_SAMPLES = 5

#: A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    # Every workload runs on the default compute backend.
    env.pop("REPRO_BACKEND", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args, role: str, trace: int) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds / MEASURE_RUNS),
        "--trace", str(trace),
        "--role", role,
    ]
    # subprocess.run kills and reaps the child if it times out.
    proc = subprocess.run(
        cmd,
        cwd=str(ROOT),
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({role}, trace={trace}) exited with {proc.returncode}")
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if not lines:
        raise RuntimeError(f"worker ({role}, trace={trace}) printed no result")
    return json.loads(lines[-1])


def settings(args, res: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "threads": THREAD_ENV,
        "python": platform.python_version(),
        "numpy": res["numpy"],
        "blas": res["blas"],
        "backend": res["backend"],
    }


def end_to_end(args) -> dict:
    runs = [run_child(args, "measure", 0) for _ in range(MEASURE_RUNS)]
    setups = [res["setup_s"] for res in runs]
    setups += [
        run_child(args, "setup", 0)["setup_s"] for _ in range(SETUP_SAMPLES - MEASURE_RUNS)
    ]

    def median(name):
        return statistics.median(res[name] for res in runs)

    ok = sum(res["ok"] for res in runs)
    answered = sum(res["answered"] for res in runs)
    attempted = sum(res["attempted"] for res in runs)
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": median("peak_rss_mb"),
        "ok_frac": ok / attempted,
        "rate_per_s": median("rate_per_s"),
        "latency_ms.p50": median("latency_ms.p50"),
        "loss": median("loss"),
        "recall_at_10": median("recall_at_10"),
    }
    # Same seed, same inputs: every process must compute the same answers.
    same = len({res["digest"] for res in runs}) == 1
    info = settings(args, runs[0])
    info["latency_ms.tails_ungated"] = [res["tails_ungated"] for res in runs]
    info["latency_ms.p50_samples"] = [res["latency_ms.p50"] for res in runs]
    info["setup_samples_s"] = setups
    info["runs_agree"] = same
    info["answered"] = answered
    if "late_ms.p99" in runs[0]:
        info["loadgen.late_ms.p99"] = [res["late_ms.p99"] for res in runs]
    return {
        "info": info,
        "correct": same and ok == answered,
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": {name: (values[name], unit) for name, unit in END_TO_END.items()},
    }


def per_layer(args) -> dict:
    base = run_child(args, "measure", 0)
    traced = run_child(args, "measure", 1)
    layers = traced["layers"]
    # Instrumentation must not change the computation.
    same = base["digest"] == traced["digest"]
    if traced["kind"] == "train":
        layers["obs.trace_overhead_frac"] = 1.0 - traced["rate_per_s"] / base["rate_per_s"]
    else:
        # The open loop fixes the rate, so tracing shows up as latency.
        layers["obs.trace_overhead_frac"] = (
            traced["latency_ms.p50"] / base["latency_ms.p50"] - 1.0
        )
    info = settings(args, traced)
    info["latency_ms.tails_ungated"] = traced["tails_ungated"]
    info["traced_equals_untraced"] = same
    info.update({k: v for k, v in layers.items() if k not in PER_LAYER})
    return {
        "info": info,
        "correct": same
        and base["ok"] == base["answered"]
        and traced["ok"] == traced["answered"],
        "attempted": base["attempted"] + traced["attempted"],
        "failed": base["attempted"] - base["ok"] + traced["attempted"] - traced["ok"],
        "metrics": {name: (layers[name], unit) for name, unit in PER_LAYER.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sampled-MLP training and serving benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = per_layer(args) if args.trace else end_to_end(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("# " + json.dumps(result["info"], sort_keys=True))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
