"""One run of one workload, in a process of its own.

``run.py`` starts this script once per measurement (and once per extra
set-up sample), so every run starts cold: ``setup_s`` is the first build
in the process and ``peak_rss_mb`` is this process's own high-water mark.
The last line of standard output is one JSON object for ``run.py``.

    python3 perfbench/worker.py --workload train-alsh-s --seed 0 \
        --seconds 25 --trace 0 --role measure

``--role setup`` stops after the build and reports only its time.
``--trace 1`` attaches an ``InMemoryRecorder`` and wraps the public entry
points of each layer (optimizer update, backend kernels, LSH queries and
updates, MC sampling, the serving trunk and head) with timers from this
directory; nothing is traced inside the program itself.
"""

from __future__ import annotations

import os

from benchlib import THREAD_ENV

# Thread pools read these once, when NumPy loads; run.py already sets
# them in the child's environment, this makes a direct run safe too.
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402

import numpy as np  # noqa: E402

from benchlib import (  # noqa: E402
    PER_LAYER,
    SpanTimer,
    latencies_from_due,
    open_loop,
    quantile_label,
    self_time,
    tail_quantile,
)

#: Training workloads: 784 -> 1000^3 -> 10 on synthetic MNIST.  A run is a
#: fixed number of steps, sized from ``--seconds`` at the step rate
#: measured on a 2-core x86 box, so the same seed trains exactly the
#: same steps on every run and the loss is reproducible.
TRAIN = {
    "train-alsh-s": {
        "method": "alsh",
        "batch": 1,
        "steps_per_s": 45,
        "warmup": 50,
        "data_scale": 0.02,
        # Fixed 5% active sets: the work per step no longer depends on
        # how many candidates the seed's hash tables happen to return.
        "method_kwargs": {"min_active_frac": 0.05, "max_active_frac": 0.05},
    },
    "train-mc-m": {
        "method": "mc",
        "batch": 20,
        "steps_per_s": 25,
        "warmup": 20,
        # Enough samples that a run never revisits one.
        "data_scale": 0.25,
        "method_kwargs": {},
    },
}
HIDDEN_WIDTH = 1000
#: The system under test is fixed: network initialisation, the trainer's
#: sampling stream, hash functions and the served model all use this
#: seed.  ``--seed`` makes only the inputs (training data and its order,
#: or the request stream), so quality numbers do not swing with a
#: different random model on every seed.
MODEL_SEED = 0
ACTIVE_FRAC = 0.05
LOSS_WINDOW = 100
RECALL_K = 10
RECALL_QUERIES = 200

#: Serving workload: open loop at a fixed rate, about a tenth of the
#: saturated throughput of a 2-core box.  At 800 req/s a handler already
#: outlasts ``max_wait``, so the worker never idles, batches grow until
#: they keep it busy, and latency amplifies every swing in machine speed
#: (p50 spread 26%, p90 35% over ten seeds); at 200 req/s it spread 9-14%.
SERVE = {
    "rate": 200.0,
    "warmup_s": 1.0,
    "max_batch": 32,
    "max_wait": 0.002,
    "pool": 4096,
    # Enough timed requests for a p90 with ten samples beyond it.
    "min_requests": 200,
}

#: Kernels the instrumented backend exposes; all are wrapped so the
#: coverage of a step counts every kernel, reported or not.
KERNELS = (
    "matmul",
    "matmul_add_bias",
    "matmul_cols",
    "matmul_rows",
    "backprop_cols",
    "grad_cols",
    "sampled_matmul",
    "gather_cols",
    "apply_activation",
)
REPORTED_KERNELS = (
    "matmul_cols",
    "backprop_cols",
    "grad_cols",
    "matmul",
    "matmul_add_bias",
    "sampled_matmul",
)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def backend_name() -> str:
    from repro.backend import active_backend

    return active_backend().name


def latency_summary(seconds: np.ndarray) -> dict:
    """Exact p50 in ms, plus the tails, which are reported ungated.

    The tails are p90 and the highest percentile with at least ten
    samples beyond it.  On a shared 2-core box they are set by a few
    stalls and slow spells of the host and do not repeat from run to
    run (the serving p90 spread 28% over ten seeds), so only the median
    is gated.
    """
    q = tail_quantile(len(seconds))
    return {
        "latency_ms.p50": float(np.percentile(seconds, 50)) * 1e3,
        "tails_ungated": {
            "p90_ms": float(np.percentile(seconds, 90)) * 1e3,
            quantile_label(q) + "_ms": float(np.percentile(seconds, q * 100)) * 1e3,
            "samples": len(seconds),
        },
    }


def blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # NumPy before 1.25 has no dict mode
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def delta(before: dict, after: dict, section: str, name: str) -> float:
    """Growth of a recorder counter (or timing total) between snapshots."""
    if section == "timings":
        get = lambda snap: snap["timings"].get(name, {"total": 0.0})["total"]
    else:
        get = lambda snap: snap[section].get(name, 0)
    return float(get(after) - get(before))


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def wrap_build(timer: SpanTimer):
    """Time every ``MIPSIndex.build`` (index construction) in the process."""
    from repro.lsh.mips import MIPSIndex

    MIPSIndex.build = timer.wrap("lsh.build", MIPSIndex.build)


def wrap_backend(timer: SpanTimer, backend) -> None:
    for kernel in KERNELS:
        if hasattr(backend, kernel):
            setattr(
                backend, kernel, timer.wrap("backend." + kernel, getattr(backend, kernel))
            )


# ----------------------------------------------------------------------
# training
# ----------------------------------------------------------------------
def build_trainer(name: str, seed: int, recorder):
    """Data, network and trainer for a training workload, timed."""
    from repro.core.registry import make_trainer
    from repro.data.benchmarks import load_benchmark
    from repro.harness.config import ExperimentConfig
    from repro.harness.experiment import build_network

    spec = TRAIN[name]
    start = time.perf_counter()
    data = load_benchmark("mnist", scale=spec["data_scale"], seed=seed)
    data_s = time.perf_counter() - start
    cfg = ExperimentConfig.paper_default(
        spec["method"],
        batch_size=spec["batch"],
        hidden_width=HIDDEN_WIDTH,
        data_scale=spec["data_scale"],
        seed=MODEL_SEED,
        method_kwargs=spec["method_kwargs"],
    )
    net = build_network(cfg, data)
    trainer = make_trainer(
        cfg.method,
        net,
        lr=cfg.lr,
        optimizer=cfg.optimizer,
        seed=cfg.seed,
        recorder=recorder,
        **cfg.method_kwargs,
    )
    return data, trainer, {"setup_s": time.perf_counter() - start, "data_s": data_s}


def lsh_recall(trainer, x: np.ndarray) -> float:
    """Mean over hidden layers of ``recall_at_k`` of the layer's LSH index.

    Each layer's queries are the exact forward's activations entering it.
    A trainer without hash indexes computes every node, so its recall is
    1 by construction.
    """
    from repro.lsh.diagnostics import recall_at_k

    indexes = getattr(trainer, "indexes", None)
    if not indexes:
        return 1.0
    act = trainer.net.hidden_activation
    a_prev = np.atleast_2d(x)
    recalls = []
    for index, layer in zip(indexes, trainer.net.layers):
        recalls.append(recall_at_k(index, layer.W.T, a_prev, RECALL_K))
        a_prev = act.forward(a_prev @ layer.W + layer.b)
    return float(np.mean(recalls))


def run_train(name: str, seed: int, seconds: float, trace: bool, role: str) -> dict:
    from repro.backend import use_backend
    from repro.obs import InMemoryRecorder

    spec = TRAIN[name]
    timer = SpanTimer()
    recorder = InMemoryRecorder() if trace else None
    if trace:
        wrap_build(timer)
    data, trainer, setup = build_trainer(name, seed, recorder)
    out = {"kind": "train", "setup_s": setup["setup_s"]}
    if role == "setup":
        return out

    build_s = timer.totals.get("lsh.build", 0.0)
    if trace:
        trainer.optimizer.update = timer.wrap("nn.optim.update", trainer.optimizer.update)
        wrap_backend(timer, trainer.compute_backend)
        for index in getattr(trainer, "indexes", []):
            index.query = timer.wrap("lsh.query", index.query)
            index.query_batch = timer.wrap("lsh.query_batch", index.query_batch)
            index.update = timer.wrap("lsh.update", index.update)
        if spec["method"] == "mc":
            import repro.core.mc_approx as mc

            mc.bernoulli_probabilities = timer.wrap(
                "approx.probabilities", mc.bernoulli_probabilities
            )
            mc.bernoulli_sample = timer.wrap("approx.sample", mc.bernoulli_sample)

    batch = spec["batch"]
    warmup = spec["warmup"]
    timed_steps = max(LOSS_WINDOW, int(round(seconds * spec["steps_per_s"])))
    n_steps = warmup + timed_steps
    order = np.random.default_rng(seed).permutation(len(data.y_train))
    check_active = spec["method"] == "alsh"
    losses = np.empty(n_steps)
    times = np.empty(n_steps)
    ok = 0
    snap0 = None
    # A traced trainer pins an instrumented backend; activating it (as
    # Trainer.fit does) routes layer-level and hashing kernels through it.
    scope = (
        nullcontext()
        if trainer.compute_backend is None
        else use_backend(trainer.compute_backend)
    )
    with scope:
        for step in range(n_steps):
            if step == warmup and trace:
                snap0 = recorder.snapshot()
                timer.reset()
            rows = np.take(order, np.arange(step * batch, (step + 1) * batch), mode="wrap")
            xb, yb = data.x_train[rows], data.y_train[rows]
            start = time.perf_counter()
            loss = trainer.train_batch(xb, yb)
            times[step] = time.perf_counter() - start
            losses[step] = loss
            good = math.isfinite(loss)
            if check_active:
                # Running mean of |active| / width: it stays exactly at
                # 5% only if every step's active set was exactly 5%.
                frac = trainer.average_active_fraction()
                good = good and bool(np.all(np.abs(frac - ACTIVE_FRAC) < 1e-9))
            ok += good

    rss_mb = peak_rss_mb()
    timed = times[warmup:]
    if trace:
        # Before the recall probe below, whose lookups are not training work.
        out["layers"] = train_layers(
            trainer, recorder, snap0, timer, timed, build_s, setup["data_s"]
        )
    out.update(latency_summary(timed))
    out.update({
        "attempted": n_steps,
        "answered": n_steps,
        "ok": ok,
        "rate_per_s": batch * len(timed) / float(timed.sum()),
        "loss": float(losses[-LOSS_WINDOW:].mean()),
        "recall_at_10": lsh_recall(trainer, data.x_test[:RECALL_QUERIES]),
        "digest": hashlib.sha256(losses.tobytes()).hexdigest(),
        "steps": n_steps,
        "peak_rss_mb": rss_mb,
    })
    return out


def train_layers(trainer, recorder, snap0, timer, timed, build_s, data_s) -> dict:
    """Per-layer metrics of the timed steps, per step unless noted."""
    snap1 = recorder.snapshot()
    steps = len(timed)
    step_total = float(timed.sum())

    def count(name):
        return delta(snap0, snap1, "counters", name)

    def kernel_ms(name):
        return delta(snap0, snap1, "timings", "kernel." + name) / steps * 1e3

    def timed_ms(name, per):
        return ratio(timer.totals.get(name, 0.0), per) * 1e3

    core = self_time(step_total, timer.covered)
    rebuilds = count("lsh.rebuilds")
    indexes = getattr(trainer, "indexes", [])
    layers = dict.fromkeys(PER_LAYER, 0.0)
    layers.update({
        "core.forward_ms": delta(snap0, snap1, "timings", "phase.forward") / steps * 1e3,
        "core.backward_ms": delta(snap0, snap1, "timings", "phase.backward") / steps * 1e3,
        "core.self_ms": core["self"] / steps * 1e3,
        "core.coverage_frac": core["coverage_frac"],
        "nn.optim.update_ms": timed_ms("nn.optim.update", steps),
        "nn.optim.lazy_cols": count("optim.lazy_update_cols") / steps,
        "nn.optim.moved_mb": (count("mem.gather_bytes") + count("mem.scatter_bytes"))
        / steps / 1e6,
        "backend.flops_ratio": ratio(count("flops.actual"), count("flops.dense")),
        "lsh.query_ms": timed_ms("lsh.query", timer.calls.get("lsh.query", 0)),
        "lsh.query_batch_ms": timed_ms(
            "lsh.query_batch", timer.calls.get("lsh.query_batch", 0)
        ),
        "lsh.candidates": ratio(count("lsh.candidates"), count("lsh.queries")),
        "lsh.update_ms": timed_ms("lsh.update", rebuilds),
        "lsh.rehashed_cols": ratio(count("lsh.rehashed_columns"), rebuilds),
        "lsh.garbage_frac": max((ix.garbage_fraction() for ix in indexes), default=0.0),
        "lsh.build_s": build_s,
        "approx.probabilities_ms": timed_ms("approx.probabilities", steps),
        "approx.sample_ms": timed_ms("approx.sample", steps),
        "approx.rows_kept_frac": ratio(
            count("sampler.rows_kept"), count("sampler.rows_pool")
        ),
        "data.generate_s": data_s,
    })
    for kernel in REPORTED_KERNELS:
        layers[f"backend.{kernel}_ms"] = kernel_ms(kernel)
    layers.update({
        "active_frac": ratio(count("lsh.active_nodes"), count("lsh.active_pool")),
        "rebuilds": rebuilds,
    })
    return layers


# ----------------------------------------------------------------------
# serving
# ----------------------------------------------------------------------
def build_server(recorder, backend, max_queue: int):
    from repro.serve.bench import MODEL_SHAPE
    from repro.serve.server import InferenceServer, seeded_servable

    start = time.perf_counter()
    model = seeded_servable(seed=MODEL_SEED, name="perfbench", **MODEL_SHAPE)
    server = InferenceServer(
        model,
        mode="topk",
        k=RECALL_K,
        max_batch=SERVE["max_batch"],
        max_wait=SERVE["max_wait"],
        max_queue=max_queue,
        backend=backend,
        recorder=recorder,
    )
    return model, server, time.perf_counter() - start


def run_serve(name: str, seed: int, seconds: float, trace: bool, role: str) -> dict:
    from repro.backend import InstrumentedBackend, active_backend
    from repro.obs import NULL_RECORDER, InMemoryRecorder
    from repro.serve.batcher import ServeError
    from repro.serve.bench import MODEL_SHAPE

    rate = SERVE["rate"]
    n = max(SERVE["min_requests"], int(round(rate * seconds)))
    warm = min(int(round(rate * SERVE["warmup_s"])), n // 4)
    pool = np.random.default_rng(seed).normal(size=(SERVE["pool"], MODEL_SHAPE["input_dim"]))

    timer = SpanTimer()
    recorder = InMemoryRecorder() if trace else NULL_RECORDER
    backend = InstrumentedBackend(active_backend(), recorder) if trace else None
    if trace:
        wrap_build(timer)
    model, server, setup_s = build_server(recorder, backend, max_queue=n)
    out = {"kind": "serve", "setup_s": setup_s}
    if role == "setup":
        server.close()
        return out

    waits = []
    candidates = [0, 0]
    build_s = 0.0
    if trace:
        build_s = timer.totals.get("lsh.build", 0.0)
        timer.reset()
        wrap_backend(timer, backend)
        model.trunk_forward = timer.wrap("serve.trunk", model.trunk_forward)
        index = server.head.index
        query_batch = index.query_batch

        def counted_query_batch(queries, record=True):
            sets = query_batch(queries, record)
            candidates[0] += sum(c.size for c in sets)
            candidates[1] += len(sets)
            return sets

        index.query_batch = timer.wrap("lsh.query_batch", counted_query_batch)
        collector = server.batcher.collector
        drain = collector.drain

        def timed_drain(now):
            live, expired = drain(now)
            waits.extend(now - r.enqueued_at for r in live)
            return live, expired

        collector.drain = timed_drain

    try:
        fired = open_loop(
            lambda i: server.submit(pool[i % len(pool)]),
            n,
            rate,
            clock=server.batcher.clock,
            refused=(ServeError,),
        )
        completed = [None] * n
        answers = [None] * n
        for i, handle in enumerate(fired["handles"]):
            if isinstance(handle, ServeError):
                continue
            try:
                answers[i] = handle.result(timeout=60.0)
            except ServeError:
                continue
            completed[i] = handle.completed_at
    finally:
        server.close()

    rss_mb = peak_rss_mb()
    layers = serve_layers(server, recorder, timer, waits, candidates, build_s) if trace else None

    # Correctness: k distinct ids in range, logits non-increasing and
    # equal to the model's own logits for those ids.
    rows = np.arange(n) % len(pool)
    trunk = model.trunk_forward(pool)
    full = trunk @ model.output_layer().W + model.output_layer().b
    exact_ids, _ = server.head.exact_topk(trunk, RECALL_K)
    logproba = model.predict_logproba(pool)
    served = [i for i in range(n) if answers[i] is not None]
    # The served ids in request order.  Not the logits: batch composition
    # moves a trunk row's last bits, never (in practice) which ids win.
    digest = hashlib.sha256()
    for i in served:
        digest.update(np.int64(i).tobytes() + np.asarray(answers[i][0], np.int64).tobytes())
    ok = 0
    hits = 0
    nll = 0.0
    n_classes = MODEL_SHAPE["classes"]
    for i in served:
        ids, logits = answers[i]
        r = rows[i]
        good = (
            ids.shape == (RECALL_K,)
            and np.unique(ids).size == RECALL_K
            and ids.min() >= 0
            and ids.max() < n_classes
            and bool(np.all(np.diff(logits) <= 0))
            and np.allclose(logits, full[r, ids], rtol=1e-9, atol=1e-9)
        )
        ok += good
        hits += np.intersect1d(ids, exact_ids[r]).size
        nll -= logproba[r, ids[0]]

    due = np.asarray(fired["due"])
    sent = np.asarray(fired["sent"])
    timed = [i for i in range(warm, n) if completed[i] is not None]
    latency = latencies_from_due(fired["due"], completed)
    out.update(latency_summary(np.array([latency[i] for i in timed])))
    span = max(completed[i] for i in timed) - due[warm]
    out.update({
        "attempted": n,
        "answered": len(served),
        "ok": ok,
        "rate_per_s": len(timed) / span,
        "loss": nll / max(len(served), 1),
        "recall_at_10": hits / float(RECALL_K * max(len(served), 1)),
        "late_ms.p99": float(np.percentile(sent - due, 99)) * 1e3,
        "digest": digest.hexdigest(),
        "peak_rss_mb": rss_mb,
    })
    if layers is not None:
        layers["loadgen.late_ms.p99"] = out["late_ms.p99"]
        out["layers"] = layers
    return out


def serve_layers(server, recorder, timer, waits, candidates, build_s) -> dict:
    """Per-layer metrics of the whole serving run, per batch unless noted."""
    from repro.serve.bench import MODEL_SHAPE

    snap = recorder.snapshot()
    counters, timings = snap["counters"], snap["timings"]
    batches = counters.get("serve.batches", 0)
    requests = counters.get("serve.requests", 0)
    head_topk = timings.get("serve.head.topk", {"count": 0, "total": 0.0})
    shape = MODEL_SHAPE
    dense_macs = (
        shape["input_dim"] * shape["hidden"]
        + (shape["depth"] - 1) * shape["hidden"] ** 2
        + shape["hidden"] * shape["embed"]
        + shape["embed"] * shape["classes"]
    )
    actual = sum(v for k, v in counters.items() if k.startswith("kernel.flops."))
    layers = dict.fromkeys(PER_LAYER, 0.0)
    layers.update({
        "backend.flops_ratio": ratio(actual, 2.0 * dense_macs * requests),
        "lsh.query_batch_ms": ratio(
            timer.totals.get("lsh.query_batch", 0.0), timer.calls.get("lsh.query_batch", 0)
        ) * 1e3,
        "lsh.candidates": ratio(candidates[0], candidates[1]),
        "lsh.garbage_frac": server.head.index.garbage_fraction(),
        "lsh.build_s": build_s,
        "serve.batcher.queue_wait_ms.p50": float(np.median(waits)) * 1e3 if waits else 0.0,
        "serve.batcher.batch_size": ratio(requests, batches),
        "serve.registry.trunk_ms": ratio(timer.totals.get("serve.trunk", 0.0), batches) * 1e3,
        "serve.head.topk_ms": ratio(head_topk["total"], head_topk["count"]) * 1e3,
        "serve.head.fallback_frac": ratio(
            counters.get("serve.head.exact_fallbacks", 0),
            counters.get("serve.head.queries", 0),
        ),
    })
    for kernel in REPORTED_KERNELS:
        total = timings.get("kernel." + kernel, {"total": 0.0})["total"]
        layers[f"backend.{kernel}_ms"] = ratio(total, batches) * 1e3
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*TRAIN, "serve-alsh-topk"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("measure", "setup"), default="measure")
    args = parser.parse_args(argv)
    run = run_train if args.workload in TRAIN else run_serve
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.role)
    out["backend"] = backend_name()
    out["numpy"] = np.__version__
    out["blas"] = blas_version()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
