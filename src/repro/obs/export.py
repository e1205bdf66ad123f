"""Prometheus text exposition + a stdlib HTTP metrics/health endpoint.

Any recorder snapshot renders to Prometheus text format 0.0.4 with
:func:`render_prometheus`: counters become ``<name>_total``, gauges
gauges, phase timings a ``_seconds_total``/``_calls_total`` pair, series
a ``_last`` gauge, and log-bucket histograms full histogram families
(cumulative ``_bucket{le="..."}`` plus ``_sum``/``_count``) with bucket
edges taken from the histogram's own log-spaced layout.  Dotted metric
names sanitise to underscores under a configurable prefix (default
``repro_``).

:class:`MetricsServer` wraps a ``snapshot_fn`` in a background
``http.server`` thread serving:

* ``GET /metrics`` — Prometheus text exposition of the live snapshot;
* ``GET /metrics.json`` — the raw JSON snapshot (consumed by
  ``python -m repro slo-check --url``);
* ``GET /healthz`` — 200/503 from an injectable ``health_fn``
  (liveness; the serving path ties it to the micro-batcher's worker
  thread);
* ``GET /readyz`` — 503 while unhealthy, else 200/503 from an injectable
  ``ready_fn`` (for the serving path: queue below the shed threshold).

For multi-process executor sweeps, :func:`write_exposition` atomically
writes the merged snapshot to a ``.prom`` text file after each task
outcome, so one node-exporter-style textfile scrape sees the whole
sweep.  Everything here is stdlib-only.
"""

from __future__ import annotations

import json
import math
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from .histogram import Histogram

__all__ = [
    "sanitize_metric_name",
    "render_prometheus",
    "parse_prometheus",
    "write_exposition",
    "MetricsServer",
]

DEFAULT_PREFIX = "repro_"

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")
_LINE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"          # metric name
    r"(\{[^{}]*\})?"                       # optional label set
    r" [-+]?([0-9.eE+-]+|[Nn]a[Nn]|[Ii]nf|\+Inf)$"  # value
)
_LABEL_RE = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$')


def sanitize_metric_name(name: str, prefix: str = DEFAULT_PREFIX) -> str:
    """Dotted catalogue name -> valid Prometheus metric name."""
    return prefix + _NAME_OK.sub("_", name)


def _fmt(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _histogram_lines(metric: str, payload: dict, lines: List[str]) -> None:
    hist = Histogram.from_snapshot(payload)
    lines.append(f"# TYPE {metric} histogram")
    cum = 0
    for i, c in enumerate(hist.counts):
        if not c or i > hist.n_buckets:
            continue  # the overflow bucket is covered by the +Inf line
        cum += c
        lines.append(
            f'{metric}_bucket{{le="{_fmt(hist.upper_edge(i))}"}} {cum}'
        )
    lines.append(f'{metric}_bucket{{le="+Inf"}} {hist.count}')
    lines.append(f"{metric}_sum {_fmt(hist.sum)}")
    lines.append(f"{metric}_count {hist.count}")


def render_prometheus(
    snapshot: Optional[dict], prefix: str = DEFAULT_PREFIX
) -> str:
    """Prometheus text exposition (format 0.0.4) of one snapshot."""
    snapshot = snapshot or {}
    lines: List[str] = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        metric = sanitize_metric_name(name, prefix)
        lines.append(f"# TYPE {metric}_total counter")
        lines.append(f"{metric}_total {_fmt(value)}")
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        metric = sanitize_metric_name(name, prefix)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_fmt(value)}")
    for name, slot in sorted(snapshot.get("timings", {}).items()):
        metric = sanitize_metric_name(name, prefix)
        lines.append(f"# TYPE {metric}_seconds_total counter")
        lines.append(f"{metric}_seconds_total {_fmt(slot['total'])}")
        lines.append(f"# TYPE {metric}_calls_total counter")
        lines.append(f"{metric}_calls_total {_fmt(slot['count'])}")
    for name, points in sorted(snapshot.get("series", {}).items()):
        if not points:
            continue
        metric = sanitize_metric_name(name, prefix) + "_last"
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_fmt(points[-1][1])}")
    for name, payload in sorted(snapshot.get("histograms", {}).items()):
        _histogram_lines(sanitize_metric_name(name, prefix), payload, lines)
    return "\n".join(lines) + "\n" if lines else "\n"


def parse_prometheus(text: str) -> Dict[str, List[Tuple[str, float]]]:
    """Validate exposition text; samples grouped by metric name.

    Raises :class:`ValueError` on any malformed line — the validator the
    metrics-smoke CI job and the export tests run over a live scrape.
    Returns ``{metric_name: [(label_block, value), ...]}``.
    """
    samples: Dict[str, List[Tuple[str, float]]] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) < 3 or parts[1] not in ("TYPE", "HELP"):
                raise ValueError(f"malformed comment on line {lineno}: {line!r}")
            continue
        if not _LINE_RE.match(line):
            raise ValueError(f"malformed sample on line {lineno}: {line!r}")
        name_part, value_part = line.rsplit(" ", 1)
        labels = ""
        if "{" in name_part:
            name, labels = name_part.split("{", 1)
            labels = "{" + labels
            body = labels[1:-1]
            if body:
                for pair in body.split(","):
                    if not _LABEL_RE.match(pair.strip()):
                        raise ValueError(
                            f"malformed label on line {lineno}: {pair!r}"
                        )
        else:
            name = name_part
        samples.setdefault(name, []).append((labels, float(value_part)))
    return samples


def write_exposition(
    path: Union[str, Path],
    snapshot: Optional[dict],
    prefix: str = DEFAULT_PREFIX,
) -> None:
    """Atomically write one snapshot as a ``.prom`` textfile exposition."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(render_prometheus(snapshot, prefix), encoding="utf-8")
    tmp.replace(path)


class MetricsServer:
    """Background HTTP thread exposing /metrics, /healthz and /readyz.

    ``snapshot_fn`` is called per scrape (it should be cheap — recorder
    snapshots are dict copies).  ``health_fn`` and ``ready_fn`` each
    return ``(ok, reason)`` and default to always-ok; the reason is the
    response body.  ``port=0`` binds an ephemeral port, available as
    :attr:`port` after construction.
    """

    def __init__(
        self,
        snapshot_fn: Callable[[], Optional[dict]],
        port: int = 0,
        host: str = "127.0.0.1",
        ready_fn: Optional[Callable[[], Tuple[bool, str]]] = None,
        prefix: str = DEFAULT_PREFIX,
        health_fn: Optional[Callable[[], Tuple[bool, str]]] = None,
    ):
        self.snapshot_fn = snapshot_fn
        self.health_fn = health_fn or (lambda: (True, "ok"))
        self.ready_fn = ready_fn or (lambda: (True, "ok"))
        self.prefix = prefix
        server = self

        class _Handler(BaseHTTPRequestHandler):
            def log_message(self, *args: Any) -> None:
                pass  # scrapes must not spam the serving process stdout

            def _send(self, code: int, body: str, ctype: str) -> None:
                payload = body.encode("utf-8")
                self.send_response(code)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def do_GET(self) -> None:
                path = self.path.split("?", 1)[0]
                try:
                    if path == "/metrics":
                        body = render_prometheus(
                            server.snapshot_fn(), server.prefix
                        )
                        self._send(
                            200, body, "text/plain; version=0.0.4; charset=utf-8"
                        )
                    elif path == "/metrics.json":
                        body = json.dumps(server.snapshot_fn() or {})
                        self._send(200, body, "application/json")
                    elif path in ("/healthz", "/readyz"):
                        ok, reason = server.health_fn()
                        if ok and path == "/readyz":
                            ok, reason = server.ready_fn()
                        self._send(
                            200 if ok else 503, reason + "\n", "text/plain"
                        )
                    else:
                        self._send(404, "not found\n", "text/plain")
                except BrokenPipeError:  # pragma: no cover - client vanished
                    pass

        self._httpd = ThreadingHTTPServer((host, int(port)), _Handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-metrics",
            daemon=True,
        )
        self._thread.start()

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        host = self._httpd.server_address[0]
        return f"http://{host}:{self.port}"

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "MetricsServer":
        return self

    def __exit__(self, *exc: Any) -> bool:
        self.close()
        return False
