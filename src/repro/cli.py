"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``run``
    Train one configuration and print the result (optionally append it to
    a JSON-lines result store and/or save the trained model).
``compare``
    Train several methods on one dataset and print a Table 2-style
    comparison.
``sweep``
    Fan a methods × depths grid out across worker processes through the
    fault-tolerant executor, streaming outcomes to a resumable JSONL file
    (``--workers``, ``--timeout``, ``--resume``, and crash-safe trainer
    checkpointing via ``--checkpoint-dir`` / ``--retry-timeouts``).
``theory``
    Print the §7 error-propagation table for a given c.
``flops``
    Print the analytical per-step FLOP table for an architecture.
``datasets``
    List the available benchmarks and their paper split sizes.
``lsh-bench``
    Benchmark the dict vs flat LSH backends on the ALSH hot path and
    write the ``BENCH_lsh.json`` perf-trajectory file (``--smoke``,
    ``--check``, ``--store`` for the executor's resumable JSONL sink).
``backend-bench``
    Benchmark the reference vs fast/threaded compute backends on the
    paper's dense and sampled GEMM shapes and write the
    ``BENCH_backend.json`` perf-trajectory file (``--quick``,
    ``--check``).
``serve``
    Fire a request stream through the micro-batched inference server
    (``--topk`` answers through the ALSH head, ``--smoke`` runs the CI
    serve smoke: nominal load sheds nothing, overload sheds and counts).
``serve-bench``
    Benchmark micro-batched vs batch-1 serving with the exact and ALSH
    heads at the paper shape and write the ``BENCH_serve.json``
    perf-trajectory file (``--quick``, ``--check``, ``--store``).
``stream``
    Train continually on an infinite drifting stream with drift-triggered
    ALSH rebuilds, gauge-driven compaction and continuous checkpointing
    (``--smoke`` runs the CI stream smoke: a killed-and-resumed session
    must be bitwise identical to an uninterrupted one).
``stream-bench``
    Benchmark the drift-triggered vs fixed count-based rebuild policies
    on a drifting stream and write the ``BENCH_stream.json``
    perf-trajectory file (``--quick``, ``--check``, ``--store``).
``trace-report``
    Train one configuration with the observability recorder attached and
    print the span tree, the counter catalogue rollup and the measured
    vs analytical FLOP comparison (``--store`` appends the trace record
    to a JSONL file shareable with the executor sink; ``--probe-every``
    attaches the quality probes; ``--from-store`` renders a previously
    stored trace instead of training).
``report``
    Render a trace/sweep JSONL into a self-contained single-file HTML
    run report: span tree, counter rollup, time-series sparklines, the
    measured per-layer forward error overlaid on the Theorem 7.2
    analytical bound, and probe overhead accounting.
``monitor``
    Tail a live run's JSONL sink and print one rolling summary line per
    record (``--follow`` keeps polling; default prints what is there
    and exits).
``slo-check``
    Evaluate a declarative SLO spec (JSON) against a trace store
    (``--from-store``, snapshots merged) or a live ``/metrics.json``
    endpoint (``--url``) and exit nonzero when any error budget is
    burned — the CI gate behind the serve smoke.

Live telemetry rides along: ``serve`` and ``stream`` accept
``--metrics-port`` (a background ``/metrics`` + ``/healthz`` +
``/readyz`` exporter), ``serve --store`` records per-request trace
events, ``trace-report --request <id> --from-store`` reconstructs one
request's timeline, and ``sweep --metrics-out`` writes a file-based
Prometheus exposition the executor refreshes per outcome.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import __version__
from .backend import available_backends
from .data.benchmarks import BENCHMARKS, benchmark_names
from .harness.config import ExperimentConfig
from .harness.experiment import run_experiment
from .harness.flops import flops_table
from .harness.reporting import format_table, render_confusion
from .theory.error_propagation import depth_at_error_ratio, error_ratio_table

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sampling-based MLP training (EDBT 2025 reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="train one configuration")
    run.add_argument("--method", default="standard")
    run.add_argument("--dataset", default="mnist", choices=benchmark_names())
    run.add_argument("--data-scale", type=float, default=0.02)
    run.add_argument("--hidden-layers", type=int, default=3)
    run.add_argument("--hidden-width", type=int, default=100)
    run.add_argument("--epochs", type=int, default=3)
    run.add_argument("--batch-size", type=int, default=20)
    run.add_argument("--lr", type=float, default=1e-3)
    run.add_argument("--optimizer", default="sgd")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--backend", default=None, choices=available_backends(),
                     help="compute backend for the trainer's GEMM kernels "
                          "(default: $REPRO_BACKEND or reference)")
    run.add_argument("--paper-defaults", action="store_true",
                     help="apply the §8.4 method defaults before overrides")
    run.add_argument("--store", help="append the result to this JSONL file")
    run.add_argument("--checkpoint-dir",
                     help="write crash-safe trainer checkpoints here and "
                          "resume from them when re-invoked")
    run.add_argument("--checkpoint-every", type=int, default=None,
                     help="epochs between checkpoints (default 1; "
                          "requires --checkpoint-dir)")
    run.add_argument("--save-model", help="save the trained weights (.npz)")
    run.add_argument("--confusion", action="store_true",
                     help="print the confusion matrix")

    compare = sub.add_parser("compare", help="compare methods on a dataset")
    compare.add_argument("--dataset", default="mnist", choices=benchmark_names())
    compare.add_argument("--data-scale", type=float, default=0.02)
    compare.add_argument("--hidden-layers", type=int, default=3)
    compare.add_argument("--hidden-width", type=int, default=100)
    compare.add_argument("--epochs", type=int, default=3)
    compare.add_argument(
        "--methods",
        nargs="+",
        default=["standard", "dropout", "adaptive_dropout", "alsh", "mc"],
    )
    compare.add_argument("--seed", type=int, default=0)

    sweep = sub.add_parser(
        "sweep", help="run a methods x depths grid through the executor"
    )
    sweep.add_argument(
        "--methods",
        nargs="+",
        default=["standard", "dropout", "adaptive_dropout", "alsh", "mc"],
    )
    sweep.add_argument("--depths", type=int, nargs="+", default=[1, 3, 5])
    sweep.add_argument("--dataset", default="mnist", choices=benchmark_names())
    sweep.add_argument("--data-scale", type=float, default=0.02)
    sweep.add_argument("--hidden-width", type=int, default=100)
    sweep.add_argument("--epochs", type=int, default=3)
    sweep.add_argument("--batch-size", type=int, default=20)
    sweep.add_argument("--lr", type=float, default=1e-3)
    sweep.add_argument("--optimizer", default="sgd")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--backend", default=None, choices=available_backends(),
                       help="compute backend for every task (recorded in "
                            "each JSONL task record)")
    sweep.add_argument("--paper-defaults", action="store_true",
                       help="apply the §8.4 method defaults per grid point")
    sweep.add_argument("--workers", type=int, default=1,
                       help="worker processes (1 = serial)")
    sweep.add_argument("--timeout", type=float, default=None,
                       help="per-task wall-clock budget in seconds")
    sweep.add_argument("--retries", type=int, default=1,
                       help="retries per failing task")
    sweep.add_argument("--checkpoint-dir",
                       help="checkpoint every task's trainer here; retried "
                            "or resumed tasks continue from the last "
                            "checkpoint instead of epoch 0")
    sweep.add_argument("--checkpoint-every", type=int, default=1,
                       help="epochs between checkpoints (with "
                            "--checkpoint-dir; default 1)")
    sweep.add_argument("--retry-timeouts", action="store_true",
                       help="retry timed-out tasks too (pairs with "
                            "--checkpoint-dir so attempts make progress)")
    sweep.add_argument("--reseed", type=int, default=None,
                       help="derive per-task seeds from this root seed")
    sweep.add_argument("--store", required=True,
                       help="JSONL outcome sink (enables --resume)")
    sweep.add_argument("--resume", action="store_true",
                       help="skip tasks already completed in --store")
    sweep.add_argument("--trace", action="store_true",
                       help="trace every task and print the merged "
                            "counter rollup (aggregate appended to --store)")
    sweep.add_argument("--probe-every", type=int, default=None,
                       help="attach read-only quality probes every N "
                            "batches (requires --trace)")
    sweep.add_argument("--metrics-out", metavar="PATH", default=None,
                       help="write a Prometheus text exposition of the "
                            "merged sweep trace here, refreshed after "
                            "every task outcome (file-based scraping)")

    theory = sub.add_parser("theory", help="print the §7 error table")
    theory.add_argument("--c", type=float, default=5.0,
                        help="active-to-inactive weighted-sum ratio")
    theory.add_argument("--max-k", type=int, default=6)

    flops = sub.add_parser("flops", help="analytical per-step FLOP table")
    flops.add_argument("--arch", type=int, nargs="+",
                       default=[784, 1000, 1000, 1000, 10])
    flops.add_argument("--batch", type=int, default=20)

    sub.add_parser("datasets", help="list the paper benchmarks")

    trace = sub.add_parser(
        "trace-report", help="train one config with tracing and report"
    )
    trace.add_argument("--method", default="alsh")
    trace.add_argument("--dataset", default="mnist", choices=benchmark_names())
    trace.add_argument("--data-scale", type=float, default=0.02)
    trace.add_argument("--hidden-layers", type=int, default=3)
    trace.add_argument("--hidden-width", type=int, default=100)
    trace.add_argument("--epochs", type=int, default=2)
    trace.add_argument("--batch-size", type=int, default=20)
    trace.add_argument("--lr", type=float, default=1e-3)
    trace.add_argument("--optimizer", default="sgd")
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--backend", default=None, choices=available_backends(),
                       help="compute backend to trace (per-kernel timings "
                           "and FLOPs land in the report)")
    trace.add_argument("--paper-defaults", action="store_true",
                       help="apply the §8.4 method defaults before overrides")
    trace.add_argument("--store",
                       help="append the trace record to this JSONL file")
    trace.add_argument("--probe-every", type=int, default=None,
                       help="attach read-only quality probes every N batches")
    trace.add_argument("--from-store", metavar="PATH",
                       help="render the traces already stored in this "
                            "JSONL file instead of training")
    trace.add_argument("--request", metavar="ID", default=None,
                       help="with --from-store: reconstruct this request "
                            "id's timeline from the store's request-trace "
                            "events (written by serve --store)")

    report = sub.add_parser(
        "report", help="render a trace JSONL as a single-file HTML report"
    )
    report.add_argument("trace", help="trace/sweep JSONL file to render")
    report.add_argument("--out", default="report.html",
                        help="output HTML path (default report.html)")
    report.add_argument("--title", default=None,
                        help="report title (defaults to the trace filename)")
    report.add_argument("--theory-c", type=float, default=5.0,
                        help="c for the Theorem 7.2 bound overlay "
                             "(((c+1)/c)^k - 1); default 5.0")
    report.add_argument("--no-theory", action="store_true",
                        help="omit the analytical bound overlay")

    monitor = sub.add_parser(
        "monitor", help="tail a run's JSONL sink with rolling summaries"
    )
    monitor.add_argument("sink", help="JSONL sink file to watch")
    monitor.add_argument("--follow", "-f", action="store_true",
                         help="keep polling for new records (default: "
                              "print what is there and exit)")
    monitor.add_argument("--poll", type=float, default=0.5,
                         help="seconds between polls with --follow")

    slo = sub.add_parser(
        "slo-check",
        help="evaluate an SLO spec against a trace store or live endpoint",
    )
    slo.add_argument("spec", help="JSON SLO spec file (see docs/observability.md)")
    source = slo.add_mutually_exclusive_group(required=True)
    source.add_argument("--from-store", metavar="PATH",
                        help="evaluate against the merged snapshots of "
                             "this trace JSONL store")
    source.add_argument("--url", metavar="URL",
                        help="evaluate against a live exporter's base URL "
                             "(fetches <url>/metrics.json)")

    from .lsh import bench as lsh_bench

    lsh = sub.add_parser(
        "lsh-bench", help="benchmark dict vs flat LSH backends"
    )
    lsh_bench.add_arguments(lsh)

    from .backend import bench as backend_bench

    bb = sub.add_parser(
        "backend-bench", help="benchmark reference vs fast/threaded backends"
    )
    backend_bench.add_arguments(bb)

    serve = sub.add_parser(
        "serve", help="fire requests through the micro-batched inference server"
    )
    serve.add_argument("--model", default=None, metavar="PATH",
                       help="kind-tagged .npz checkpoint to serve "
                            "(default: a seeded demo MLP)")
    serve.add_argument("--version", default=None,
                       help="pin the checkpoint's content digest")
    serve.add_argument("--requests", type=int, default=256,
                       help="number of requests to fire (default 256)")
    serve.add_argument("--topk", type=int, default=None, metavar="K",
                       help="serve top-k answers through the ALSH head "
                            "instead of full log-probability rows")
    serve.add_argument("--exact", action="store_true",
                       help="with --topk: use the exact full-GEMM head")
    serve.add_argument("--max-batch", type=int, default=32)
    serve.add_argument("--max-wait", type=float, default=0.002,
                       help="micro-batch collection window in seconds")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--smoke", action="store_true",
                       help="run the CI serve smoke (nominal load sheds "
                            "nothing, overload sheds and counts) and exit")
    serve.add_argument("--metrics-port", type=int, default=None, metavar="PORT",
                       help="serve /metrics, /healthz and /readyz on this "
                            "port while requests run (0 picks a free port)")
    serve.add_argument("--store", default=None, metavar="PATH",
                       help="append the serve trace snapshot and the "
                            "per-request trace events to this JSONL file")
    serve.add_argument("--slo", default=None, metavar="SPEC",
                       help="with --metrics-port: evaluate this SLO spec "
                            "per scrape and expose live slo.burn.* gauges")

    from .serve import bench as serve_bench

    sb = sub.add_parser(
        "serve-bench",
        help="benchmark micro-batched vs batch-1 serving, exact vs ALSH head",
    )
    serve_bench.add_arguments(sb)

    stream = sub.add_parser(
        "stream", help="train continually on an infinite drifting stream"
    )
    stream.add_argument("--batches", type=int, default=500,
                        help="absolute stream position to train to "
                             "(default 500; resumes count from a "
                             "checkpoint when --checkpoint-dir is set)")
    stream.add_argument("--rebuild", choices=("drift", "count", "none"),
                        default="drift",
                        help="table maintenance policy (default drift)")
    stream.add_argument("--drift-threshold", type=float, default=0.05,
                        help="relative column-drift threshold that "
                             "triggers a re-hash (default 0.05)")
    stream.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        help="checkpoint continuously into DIR and resume "
                             "from it if a checkpoint exists")
    stream.add_argument("--checkpoint-every", type=int, default=100,
                        help="batches between checkpoints (default 100)")
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument("--smoke", action="store_true",
                        help="run the CI stream smoke (kill-resume "
                             "bitwise equality) and exit")
    stream.add_argument("--metrics-port", type=int, default=None,
                        metavar="PORT",
                        help="serve /metrics, /healthz and /readyz on "
                             "this port while the stream trains "
                             "(0 picks a free port)")
    stream.add_argument("--store", default=None, metavar="PATH",
                        help="append the stream trace snapshot to this "
                             "JSONL file when the run finishes")

    from .stream import bench as stream_bench

    stb = sub.add_parser(
        "stream-bench",
        help="benchmark drift-triggered vs count-based rebuilds on a "
             "drifting stream",
    )
    stream_bench.add_arguments(stb)
    return parser


def _cmd_run(args) -> int:
    if args.paper_defaults:
        cfg = ExperimentConfig.paper_default(
            args.method,
            batch_size=args.batch_size,
            dataset=args.dataset,
            data_scale=args.data_scale,
            hidden_layers=args.hidden_layers,
            hidden_width=args.hidden_width,
            epochs=args.epochs,
            seed=args.seed,
            backend=args.backend,
        )
    else:
        cfg = ExperimentConfig(
            method=args.method,
            dataset=args.dataset,
            data_scale=args.data_scale,
            hidden_layers=args.hidden_layers,
            hidden_width=args.hidden_width,
            epochs=args.epochs,
            batch_size=args.batch_size,
            lr=args.lr,
            optimizer=args.optimizer,
            seed=args.seed,
            backend=args.backend,
        )
    result = run_experiment(
        cfg,
        checkpoint_every=args.checkpoint_every,
        checkpoint_dir=args.checkpoint_dir,
    )
    print(result.summary())
    if args.confusion:
        print(render_confusion(result.confusion))
    if args.store:
        from .harness.results import ResultStore

        ResultStore(args.store).append(result)
        print(f"appended to {args.store}")
    if args.save_model:
        # run_experiment does not expose the trainer, so rebuild and refit
        # deterministically (same seeds) to capture the trained weights.
        from .core.registry import make_trainer
        from .data.benchmarks import load_benchmark
        from .harness.experiment import build_network
        from .nn.serialize import save_mlp

        data = load_benchmark(cfg.dataset, scale=cfg.data_scale, seed=cfg.seed)
        net = build_network(cfg, data)
        extra = dict(cfg.method_kwargs)
        if cfg.backend is not None:
            extra["compute_backend"] = cfg.backend
        trainer = make_trainer(
            cfg.method, net, lr=cfg.lr, optimizer=cfg.optimizer,
            seed=cfg.seed, **extra,
        )
        trainer.fit(data.x_train, data.y_train, epochs=cfg.epochs,
                    batch_size=cfg.batch_size)
        path = save_mlp(net, args.save_model)
        print(f"model saved to {path}")
    return 0


def _cmd_compare(args) -> int:
    from .data.benchmarks import load_benchmark

    data = load_benchmark(args.dataset, scale=args.data_scale, seed=args.seed)
    rows = []
    for method in args.methods:
        cfg = ExperimentConfig.paper_default(
            method,
            batch_size=1 if method in ("alsh",) else 20,
            hidden_layers=args.hidden_layers,
            hidden_width=args.hidden_width,
            epochs=args.epochs,
            seed=args.seed,
        )
        result = run_experiment(cfg, dataset=data)
        rows.append(
            [cfg.label(), result.test_accuracy, result.time_per_epoch,
             result.pred_entropy]
        )
    print(
        format_table(
            ["method", "accuracy", "time/epoch (s)", "pred entropy"],
            rows,
            title=f"{args.dataset}, {args.hidden_layers} hidden layers",
        )
    )
    return 0


def _load_traces_or_fail(path):
    """Load a trace JSONL for a CLI command, failing with one clear line.

    Returns ``(traces, corrupt)`` or ``(None, 0)`` after printing the
    error to stderr (satellite: no tracebacks for empty/missing/corrupt
    files; corrupt lines in otherwise-good files are skipped with a
    warning count).
    """
    from .obs import load_trace_file

    try:
        traces, corrupt = load_trace_file(path)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, 0
    if corrupt:
        print(
            f"warning: skipped {corrupt} corrupt line(s) in {path}",
            file=sys.stderr,
        )
    return traces, corrupt


def _cmd_trace_report(args) -> int:
    from .data.benchmarks import load_benchmark
    from .harness.flops import method_step_flops
    from .obs import (
        InMemoryRecorder,
        derived_metrics,
        merge_snapshots,
        render_trace,
        trace_record,
        write_trace,
    )
    from .obs.counters import FLOPS_ACTUAL, LSH_CANDIDATES, TRAIN_BATCHES

    if args.request is not None:
        from .obs import (
            read_trace_events,
            reconstruct_request,
            render_request_timeline,
            scan_jsonl,
        )

        if not args.from_store:
            print("error: --request requires --from-store (request-trace "
                  "events live in a serve --store file)", file=sys.stderr)
            return 2
        try:
            records, corrupt = scan_jsonl(args.from_store)
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if corrupt:
            print(f"warning: skipped {corrupt} corrupt line(s) in "
                  f"{args.from_store}", file=sys.stderr)
        events = read_trace_events(records)
        try:
            timeline = reconstruct_request(events, args.request)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        print(render_request_timeline(timeline))
        return 0

    if args.from_store:
        traces, _ = _load_traces_or_fail(args.from_store)
        if traces is None:
            return 2
        merged = merge_snapshots([t["snapshot"] for t in traces])
        print(
            render_trace(
                merged,
                title=f"trace: {len(traces)} record(s) from {args.from_store}",
            )
        )
        return 0

    if args.paper_defaults:
        cfg = ExperimentConfig.paper_default(
            args.method,
            batch_size=args.batch_size,
            dataset=args.dataset,
            data_scale=args.data_scale,
            hidden_layers=args.hidden_layers,
            hidden_width=args.hidden_width,
            epochs=args.epochs,
            seed=args.seed,
            backend=args.backend,
        )
    else:
        cfg = ExperimentConfig(
            method=args.method,
            dataset=args.dataset,
            data_scale=args.data_scale,
            hidden_layers=args.hidden_layers,
            hidden_width=args.hidden_width,
            epochs=args.epochs,
            batch_size=args.batch_size,
            lr=args.lr,
            optimizer=args.optimizer,
            seed=args.seed,
            backend=args.backend,
        )
    data = load_benchmark(cfg.dataset, scale=cfg.data_scale, seed=cfg.seed)
    recorder = InMemoryRecorder()
    result = run_experiment(
        cfg, dataset=data, recorder=recorder, probe_every=args.probe_every
    )
    snapshot = result.trace
    print(result.summary())
    print(render_trace(snapshot, title=f"trace: {cfg.label()} on {cfg.dataset}"))

    # Measured GEMM work vs the analytical per-step model.  The model
    # includes element-wise passes and sampling overhead that the GEMM
    # counters deliberately exclude, so the gap quantifies bookkeeping.
    counters = snapshot["counters"]
    steps = counters.get(TRAIN_BATCHES, 0)
    sizes = (
        [data.input_dim]
        + [cfg.hidden_width] * cfg.hidden_layers
        + [data.n_classes]
    )
    model = method_step_flops(
        cfg.method, sizes, batch=cfg.batch_size, **cfg.method_kwargs
    )
    model_total = model.total * steps
    measured = counters.get(FLOPS_ACTUAL, 0)
    print("model vs measured:")
    print(f"  analytical model   {model_total:>16,.0f} FLOPs "
          f"({steps} steps x {model.total:,.0f})")
    print(f"  measured (GEMM)    {measured:>16,.0f} FLOPs")
    if measured:
        print(f"  model/measured     {model_total / measured:>16.3f}  "
              "(element-wise + sampling overhead vs pure GEMM)")

    if args.store:
        derived = derived_metrics(snapshot)
        record = trace_record(
            snapshot,
            label=cfg.label(),
            key=cfg.key(),
            summary={
                "test_accuracy": result.test_accuracy,
                "flops.skipped": derived.get("flops.skipped", 0),
                "lsh.candidates": counters.get(LSH_CANDIDATES, 0),
                "model_step_flops": model.total,
                "measured_actual_flops": measured,
            },
        )
        write_trace(args.store, record)
        print(f"trace appended to {args.store}")
    return 0


def _cmd_report(args) -> int:
    from pathlib import Path

    from .obs import merge_snapshots, render_html_report
    from .obs.html import forward_error_by_layer
    from .theory.error_propagation import error_ratio

    traces, corrupt = _load_traces_or_fail(args.trace)
    if traces is None:
        return 2
    merged = merge_snapshots([t["snapshot"] for t in traces])

    # Theorem 7.2 overlay: the analytical bound is computed here (obs
    # never imports theory) for exactly the layers the probes measured.
    theory_bound = None
    theory_label = None
    if not args.no_theory:
        layers = [k for k, _ in forward_error_by_layer(merged)]
        if layers:
            theory_bound = [(k, error_ratio(args.theory_c, k)) for k in layers]
            theory_label = f"Theorem 7.2 bound at c = {args.theory_c:g}"

    title = args.title or f"repro run report: {Path(args.trace).name}"
    html = render_html_report(
        traces,
        title=title,
        merged=merged,
        theory_bound=theory_bound,
        theory_label=theory_label,
        corrupt=corrupt,
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(html, encoding="utf-8")
    print(f"report written to {out} ({len(traces)} trace record(s))")
    return 0


def _cmd_monitor(args) -> int:
    from pathlib import Path

    from .obs import monitor_sink

    if not args.follow and not Path(args.sink).exists():
        print(f"error: sink file not found: {args.sink}", file=sys.stderr)
        return 2
    try:
        count = monitor_sink(args.sink, follow=args.follow, poll=args.poll)
    except KeyboardInterrupt:
        return 0
    if not args.follow:
        print(f"({count} record(s) in {args.sink})")
    return 0


def _cmd_sweep(args) -> int:
    from .harness.executor import ExperimentExecutor
    from .harness.sweeps import Sweep

    base = ExperimentConfig(
        dataset=args.dataset,
        data_scale=args.data_scale,
        hidden_width=args.hidden_width,
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr=args.lr,
        optimizer=args.optimizer,
        seed=args.seed,
        backend=args.backend,
    )
    sweep = Sweep(
        base,
        {"method": args.methods, "hidden_layers": args.depths},
        paper_defaults=args.paper_defaults,
    )
    configs = list(sweep.configs())
    print(
        f"sweep: {len(configs)} configurations "
        f"({len(args.methods)} methods x {len(args.depths)} depths), "
        f"{args.workers} worker(s), sink {args.store}"
    )

    def on_outcome(outcome):
        cfg = configs[outcome.index]
        if outcome.ok:
            print(f"  [{outcome.status}] {outcome.result.summary()}")
        else:
            reason = (outcome.error or "").strip().splitlines()[-1]
            print(
                f"  [{outcome.status}] {cfg.label()} depth={cfg.hidden_layers} "
                f"after {outcome.attempts} attempt(s): {reason}"
            )

    from .harness.executor import (
        CheckpointedExperimentTask,
        TracedExperimentTask,
        run_experiment_task,
    )

    if args.probe_every is not None and not args.trace:
        print("error: --probe-every requires --trace (probes only do "
              "work with a recorder attached)", file=sys.stderr)
        return 2
    if args.checkpoint_dir:
        task_fn = CheckpointedExperimentTask(
            args.checkpoint_dir, every=args.checkpoint_every,
            traced=args.trace, probe_every=args.probe_every,
        )
    elif args.trace:
        task_fn = TracedExperimentTask(probe_every=args.probe_every)
    else:
        task_fn = run_experiment_task
    executor = ExperimentExecutor(
        max_workers=args.workers,
        timeout=args.timeout,
        retries=args.retries,
        retry_timeouts=args.retry_timeouts,
        sink=args.store,
        task_fn=task_fn,
        metrics_path=args.metrics_out,
    )
    outcomes = executor.run(
        configs, resume=args.resume, reseed=args.reseed, callback=on_outcome
    )
    if args.trace:
        from .harness.executor import aggregate_traces
        from .obs import AGGREGATE_KIND, render_counters, trace_record, write_trace

        aggregate = aggregate_traces(outcomes)
        if aggregate is not None:
            print("merged trace counters across the sweep:")
            print(render_counters(aggregate))
            write_trace(
                args.store,
                trace_record(
                    aggregate, label="sweep-aggregate", kind=AGGREGATE_KIND
                ),
            )
    rows = []
    for outcome, cfg in zip(outcomes, configs):
        acc = outcome.result.test_accuracy if outcome.ok else float("nan")
        rows.append(
            [cfg.label(), cfg.hidden_layers, outcome.status, outcome.attempts, acc]
        )
    print(
        format_table(
            ["method", "depth", "status", "attempts", "accuracy"],
            rows,
            title=f"sweep on {args.dataset} (results in {args.store})",
        )
    )
    failed = sum(not o.ok for o in outcomes)
    if args.metrics_out:
        print(f"metrics exposition written to {args.metrics_out}")
    if failed:
        print(f"{failed}/{len(outcomes)} tasks failed; "
              f"re-run with --resume to retry them")
    return 1 if failed else 0


def _cmd_theory(args) -> int:
    table = error_ratio_table(c=args.c, max_k=args.max_k)
    print(
        format_table(
            ["k"] + [str(k) for k in range(1, args.max_k + 1)],
            [["error/estimate"] + [f"{v:.2f}" for v in table]],
            title=f"Theorem 7.2 error-to-estimate ratio, c = {args.c}",
        )
    )
    print(
        f"error dominates the estimate from depth "
        f"{depth_at_error_ratio(args.c, 1.0)}"
    )
    return 0


def _cmd_flops(args) -> int:
    table = flops_table(args.arch, batch=args.batch, keep_prob=0.05,
                        active_frac=0.2, k=10)
    std = table["standard"].total
    rows = [
        [name, f.forward / 1e6, f.backward / 1e6, f.overhead / 1e6,
         f.total / 1e6, std / f.total]
        for name, f in table.items()
    ]
    print(
        format_table(
            ["method", "fwd (MFLOP)", "bwd (MFLOP)", "overhead (MFLOP)",
             "total (MFLOP)", "speedup vs standard"],
            rows,
            title=f"arch {args.arch}, batch {args.batch}",
            float_fmt="{:.2f}",
        )
    )
    return 0


def _cmd_datasets(args) -> int:
    rows = [
        [name, "x".join(map(str, spec.shape)), spec.n_classes,
         spec.n_train, spec.n_test, spec.n_val]
        for name, spec in BENCHMARKS.items()
    ]
    print(
        format_table(
            ["name", "shape", "classes", "train", "test", "val"],
            rows,
            title="Paper benchmarks (§8.2) — synthetic equivalents",
        )
    )
    return 0


def _cmd_lsh_bench(args) -> int:
    from .lsh import bench as lsh_bench

    return lsh_bench.run_cli(args)


def _cmd_backend_bench(args) -> int:
    from .backend import bench as backend_bench

    return backend_bench.run_cli(args)


def _cmd_serve(args) -> int:
    import time

    import numpy as np

    from .obs import (
        NULL_TRACER,
        InMemoryRecorder,
        MetricsServer,
        RequestTracer,
        trace_record,
        write_trace,
    )
    from .serve.server import InferenceServer, _fire, run_smoke, seeded_servable

    if args.smoke:
        return run_smoke(requests=args.requests if args.requests != 256 else 1000,
                         seed=args.seed,
                         metrics_port=args.metrics_port,
                         store=args.store)
    if args.model is not None:
        from .serve.registry import load_servable

        model = load_servable(args.model, version=args.version)
    else:
        model = seeded_servable(seed=args.seed)
    recorder = InMemoryRecorder()
    tracer = RequestTracer(sink=args.store) if args.store else NULL_TRACER
    mode = "topk" if args.topk is not None else "logproba"
    rng = np.random.default_rng(args.seed)
    xs = rng.normal(size=(args.requests, model.input_dim))
    metrics = None
    try:
        with InferenceServer(
            model,
            mode=mode,
            k=args.topk or 10,
            exact=args.exact,
            max_batch=args.max_batch,
            max_wait=args.max_wait,
            max_queue=max(4 * args.requests, 64),
            recorder=recorder,
            tracer=tracer,
        ) as server:
            snapshot_fn = recorder.snapshot
            if args.slo:
                from .obs import attach_burn_gauges, load_slo_spec

                entries = load_slo_spec(args.slo)
                snapshot_fn = lambda: attach_burn_gauges(  # noqa: E731
                    recorder.snapshot(), entries
                )
            if args.metrics_port is not None:
                metrics = MetricsServer(
                    snapshot_fn,
                    port=args.metrics_port,
                    ready_fn=lambda: (
                        (True, "ok")
                        if server.batcher.queue_depth() < server.batcher.max_queue
                        else (False, "queue at shed threshold")
                    ),
                    health_fn=server.batcher.health,
                )
                print(f"metrics: serving {metrics.url}/metrics")
            t0 = time.perf_counter()
            outcome = _fire(server, xs)
            elapsed = time.perf_counter() - t0
    finally:
        if metrics is not None:
            metrics.close()
    stats = server.stats()
    snapshot = recorder.snapshot()
    if args.store:
        tracer.flush()
        write_trace(
            args.store,
            trace_record(snapshot, label=f"serve-{mode}", elapsed=elapsed),
        )
        print(f"trace appended to {args.store}")
    print(f"model {model.name}@{model.version} ({model.kind}), mode {mode}")
    print(
        f"{outcome['ok']}/{args.requests} served, {outcome['shed']} shed, "
        f"{outcome['failed']} failed, "
        f"{snapshot['counters'].get('serve.batches', 0)} batches"
    )
    if stats["latency_p50"] is not None:
        print(f"latency p50 {stats['latency_p50'] * 1e3:.2f}ms, "
              f"p99 {stats['latency_p99'] * 1e3:.2f}ms")
    return 0 if outcome["failed"] == 0 else 1


def _cmd_serve_bench(args) -> int:
    from .serve import bench as serve_bench

    return serve_bench.run_cli(args)


def _cmd_stream(args) -> int:
    from .stream import make_stream_trainer, run_smoke

    if args.smoke:
        return run_smoke(seed=args.seed)
    recorder = None
    metrics = None
    if args.metrics_port is not None or args.store:
        from .obs import InMemoryRecorder

        recorder = InMemoryRecorder()
    st = make_stream_trainer(
        rebuild=args.rebuild,
        drift_threshold=args.drift_threshold,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        seed=args.seed,
        recorder=recorder,
    )
    if args.metrics_port is not None:
        from .obs import MetricsServer

        metrics = MetricsServer(recorder.snapshot, port=args.metrics_port)
        print(f"metrics: serving {metrics.url}/metrics")
    try:
        summary = st.run(args.batches, verbose=True)
    finally:
        if metrics is not None:
            metrics.close()
    if args.store:
        from .obs import trace_record, write_trace

        write_trace(
            args.store,
            trace_record(
                recorder.snapshot(),
                label=f"stream-{args.rebuild}",
                elapsed=summary["elapsed_s"],
            ),
        )
        print(f"trace appended to {args.store}")
    acc = summary["eval_history"][-1][1] if summary["eval_history"] else None
    print(
        f"stream: {summary['batches']} batches "
        f"({summary['trained_batches']} this session, "
        f"{summary['samples_per_s']:.0f} samples/s), "
        f"policy {summary['rebuild_mode']}, "
        f"{summary['rebuilds']} rebuilds, "
        f"{summary['compactions']} compactions, "
        f"{summary['checkpoints']} checkpoints"
        + (f", acc {acc:.3f}" if acc is not None else "")
    )
    return 0


def _cmd_slo_check(args) -> int:
    from .obs import (
        evaluate_slos,
        load_slo_spec,
        merge_snapshots,
        render_slo_results,
    )

    try:
        entries = load_slo_spec(args.spec)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.from_store:
        traces, _ = _load_traces_or_fail(args.from_store)
        if traces is None:
            return 2
        snapshot = merge_snapshots([t["snapshot"] for t in traces])
        source = args.from_store
    else:
        import json
        from urllib.error import URLError
        from urllib.request import urlopen

        url = args.url.rstrip("/") + "/metrics.json"
        try:
            with urlopen(url, timeout=10.0) as resp:
                snapshot = json.loads(resp.read().decode("utf-8"))
        except (URLError, OSError, ValueError) as exc:
            print(f"error: could not fetch {url}: {exc}", file=sys.stderr)
            return 2
        source = url
    results = evaluate_slos(snapshot, entries)
    print(f"SLO check: {args.spec} against {source}")
    print(render_slo_results(results))
    return 1 if any(not r.ok for r in results) else 0


def _cmd_stream_bench(args) -> int:
    from .stream import bench as stream_bench

    return stream_bench.run_cli(args)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "compare": _cmd_compare,
        "sweep": _cmd_sweep,
        "theory": _cmd_theory,
        "flops": _cmd_flops,
        "datasets": _cmd_datasets,
        "lsh-bench": _cmd_lsh_bench,
        "backend-bench": _cmd_backend_bench,
        "serve": _cmd_serve,
        "serve-bench": _cmd_serve_bench,
        "stream": _cmd_stream,
        "stream-bench": _cmd_stream_bench,
        "trace-report": _cmd_trace_report,
        "report": _cmd_report,
        "monitor": _cmd_monitor,
        "slo-check": _cmd_slo_check,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
