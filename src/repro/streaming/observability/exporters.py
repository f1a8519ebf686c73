"""Exporters: periodic JSONL time-series writer and Prometheus text endpoint.

Two ways out of the registry:

* :class:`JsonlMetricsExporter` -- called from the pipeline drive loop, it
  pulls a merged registry snapshot at most once per ``interval`` seconds and
  appends ``{"ts": ..., "metrics": <snapshot>}`` lines to a JSONL file.
  Each line is a self-contained sample, so the file is a replayable
  time series (plot it, diff two runs, feed it to the soak harness).

* :class:`PrometheusTextServer` -- a minimal HTTP endpoint rendering the
  exporter's most recent snapshot in the Prometheus text exposition format.
  It reuses the plain-``socket`` plumbing of
  :class:`~repro.streaming.sources.SocketJsonlSource` (no http.server
  machinery): a daemon accept loop answering every request with the
  rendered text.  It deliberately serves the **cached** snapshot rather
  than pulling from the runtime -- a live pull from another thread would
  race the drive loop (and quiesce the workers in sharded runs).

``render_prometheus`` is a pure function from a registry snapshot to
exposition text, usable on any snapshot (live, checkpointed, merged).
"""

from __future__ import annotations

import json
import socket
import threading
import time
from typing import Callable, Optional

__all__ = [
    "JsonlMetricsExporter",
    "PrometheusTextServer",
    "render_prometheus",
]


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_number(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    as_float = float(value)
    if as_float.is_integer() and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def _labels_text(labelnames, labelvalues, extra=None) -> str:
    pairs = [
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in zip(labelnames, labelvalues)
    ]
    if extra:
        pairs.append(extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


def render_prometheus(snapshot: Optional[dict]) -> str:
    """Render a registry snapshot in the Prometheus text exposition format."""
    if not snapshot:
        return ""
    lines = []
    for name, entry in sorted(snapshot.get("families", {}).items()):
        kind = entry.get("kind", "untyped")
        help_text = entry.get("help", "").replace("\n", " ")
        labelnames = entry.get("labels", [])
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for child in entry.get("children", ()):
            labelvalues = child.get("labels", [])
            if kind == "histogram":
                bounds = entry.get("bounds", [])
                counts = child.get("counts", [])
                cumulative = 0
                for bound, count in zip(list(bounds) + [float("inf")], counts):
                    cumulative += count
                    bucket_labels = _labels_text(
                        labelnames,
                        labelvalues,
                        f'le="{_format_number(bound)}"',
                    )
                    lines.append(f"{name}_bucket{bucket_labels} {cumulative}")
                labels_text = _labels_text(labelnames, labelvalues)
                lines.append(
                    f"{name}_sum{labels_text} "
                    f"{_format_number(child.get('sum', 0.0))}"
                )
                lines.append(
                    f"{name}_count{labels_text} {child.get('count', 0)}"
                )
            else:
                labels_text = _labels_text(labelnames, labelvalues)
                lines.append(
                    f"{name}{labels_text} "
                    f"{_format_number(child.get('value', 0.0))}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


class JsonlMetricsExporter:
    """Periodically append registry snapshots to a JSONL time-series file.

    ``maybe_export(provider)`` is designed for a per-event call site: it
    checks the (injectable) monotonic clock and only invokes ``provider``
    -- typically ``runtime.registry_snapshot`` -- when ``interval`` seconds
    have elapsed since the previous sample.  With ``path=None`` nothing is
    written but ``latest`` still refreshes, which is how the Prometheus
    endpoint stays current without its own pull.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        interval: float = 10.0,
        clock: Optional[Callable[[], float]] = None,
        timestamp: Optional[Callable[[], float]] = None,
    ):
        if interval <= 0:
            raise ValueError(f"export interval must be positive, got {interval!r}")
        self.path = path
        self.interval = interval
        self._clock = clock or time.monotonic
        self._timestamp = timestamp or time.time
        self._handle = open(path, "a", encoding="utf-8") if path else None
        self._next_due = self._clock()  # first call exports immediately
        self.latest: Optional[dict] = None
        self.samples_written = 0

    def maybe_export(self, provider: Callable[[], dict]) -> bool:
        """Export a sample if one is due; return whether one was taken."""
        now = self._clock()
        if now < self._next_due:
            return False
        self._next_due = now + self.interval
        self.export_now(provider)
        return True

    def export_now(self, provider: Callable[[], dict]) -> None:
        """Take a sample unconditionally (used for the final flush)."""
        snapshot = provider()
        self.latest = snapshot
        if self._handle is not None:
            line = json.dumps(
                {"ts": self._timestamp(), "metrics": snapshot},
                sort_keys=True,
            )
            self._handle.write(line + "\n")
            self._handle.flush()
            self.samples_written += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class PrometheusTextServer:
    """Serve the latest snapshot as Prometheus text over a TCP socket.

    ``provider`` returns the snapshot to render (or ``None`` before the
    first sample).  ``port=0`` binds an ephemeral port; the bound address
    is available as :attr:`address` after :meth:`start`.
    """

    def __init__(
        self,
        provider: Callable[[], Optional[dict]],
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self._provider = provider
        self._host = host
        self._port = port
        self._socket: Optional[socket.socket] = None
        self._thread: Optional[threading.Thread] = None
        self.address: Optional[tuple] = None

    def start(self) -> "PrometheusTextServer":
        if self._socket is not None:
            return self
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((self._host, self._port))
        server.listen(4)
        self._socket = server
        self.address = server.getsockname()
        self._thread = threading.Thread(
            target=self._serve, name="cogra-prometheus", daemon=True
        )
        self._thread.start()
        return self

    def _serve(self) -> None:
        server = self._socket
        while True:
            try:
                connection, _ = server.accept()
            except OSError:  # socket closed by close()
                return
            try:
                connection.settimeout(5.0)
                # drain the request line + headers; content is irrelevant
                # (every path serves the metrics text, like /metrics)
                with connection.makefile("rb") as request:
                    for line in request:
                        if line in (b"\r\n", b"\n", b""):
                            break
                body = render_prometheus(self._provider()).encode("utf-8")
                headers = (
                    "HTTP/1.1 200 OK\r\n"
                    "Content-Type: text/plain; version=0.0.4; "
                    "charset=utf-8\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    "Connection: close\r\n\r\n"
                ).encode("ascii")
                connection.sendall(headers + body)
            except OSError:
                pass
            finally:
                try:
                    connection.close()
                except OSError:  # pragma: no cover - double close
                    pass

    def close(self) -> None:
        if self._socket is not None:
            try:
                self._socket.close()
            finally:
                self._socket = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
