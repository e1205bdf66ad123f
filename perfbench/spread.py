"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload train-mc-m --seeds 0-9 --seconds 25
    python3 perfbench/spread.py --workload train-alsh-s --seeds 0,1 --trace 1 --out runs.json

For every metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the distance
between the quartiles as a share of the median: the figure a metric's
bound in BENCHMARK.json must cover.  ``--out`` keeps every run's result
line as JSON, for baselines and parent-versus-change comparisons.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(HERE.parent), stdout=subprocess.PIPE, text=True, timeout=900, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    info = json.loads(lines[-2][2:]) if len(lines) > 1 and lines[-2].startswith("# ") else {}
    return {"seed": seed, "info": info, "result": json.loads(lines[-1])}


def summarize(runs: list) -> dict:
    values = {}
    for run in runs:
        for name, metric in run["result"]["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        summary[name] = {
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 0,3,5")
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every run and the summary here")
    args = parser.parse_args(argv)
    runs = []
    for seed in parse_seeds(args.seeds):
        run = run_once(args.workload, seed, args.seconds, args.trace)
        runs.append(run)
        result = run["result"]
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}", flush=True)
    summary = summarize(runs)
    for name, s in summary.items():
        print(f"{args.workload} {name:34s} median {s['median']:12.5g}  "
              f"q1 {s['q1']:12.5g}  q3 {s['q3']:12.5g}  spread {s['spread']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": runs, "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
