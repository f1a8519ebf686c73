"""Observability subsystem: metrics registry, tracing, and exporters.

:class:`Observability` is the per-runtime handle the streaming modules share.
It owns

* a :class:`~repro.streaming.observability.registry.MetricsRegistry` holding
  the per-query / per-shard / lifecycle instruments, and
* a :class:`~repro.streaming.observability.tracing.Tracer` for sampled
  lifecycle spans.

Instrument handles (:class:`QueryInstruments`, :class:`ShardInstruments`)
are created once at registration time and cached on the hot-path objects, so
an observation is a couple of attribute increments.  A **disabled**
observability (``Observability.disabled()``) hands out ``None`` instruments
and the runtime skips instrumentation entirely -- the cost of observability
off is one ``is None`` check per event, which is what the
``bench_streaming_runtime`` overhead gate measures.

Two registries per runtime, by design: :class:`StreamingMetrics` keeps its
scalar runtime counters in its **own** private registry, while the
``Observability`` registry holds everything that must *merge across worker
processes*.  Worker runtimes ship only their observability registries to the
parent, so runtime-level counters (which the parent already tracks itself)
are never double counted.  ``StreamingRuntime.registry_snapshot()`` /
``ShardedRuntime.registry_snapshot()`` merge the two views for export.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.streaming.observability.exporters import (
    JsonlMetricsExporter,
    PrometheusTextServer,
    render_prometheus,
)
from repro.streaming.observability.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    filter_snapshot,
    histogram_quantile,
    label_snapshot,
    merge_snapshots,
    snapshot_quantile,
    snapshot_value,
)
from repro.streaming.observability.tracing import JsonlTraceSink, Span, Tracer

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlMetricsExporter",
    "JsonlTraceSink",
    "MetricsRegistry",
    "Observability",
    "PrometheusTextServer",
    "QueryInstruments",
    "ShardInstruments",
    "Span",
    "Tracer",
    "filter_snapshot",
    "finalize_snapshot",
    "histogram_quantile",
    "label_snapshot",
    "merge_snapshots",
    "render_prometheus",
    "snapshot_quantile",
    "snapshot_value",
]


class _NoopChild:
    """Stands in for a counter child when a series must not be counted."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass


_NOOP_CHILD = _NoopChild()


class QueryInstruments:
    """Cached per-query metric children (one bundle per registered query)."""

    __slots__ = ("events", "matched", "results", "latency")

    def __init__(self, events, matched, results, latency):
        self.events = events
        self.matched = matched
        self.results = results
        self.latency = latency

    def observe_execution_batch(
        self, count: int, seconds: float, matched: int
    ) -> None:
        """Account one run of ``count`` events fed to the query's executor.

        ``events``/``matched`` totals stay exact; the latency histogram
        receives the run's mean per-event latency ``count`` times, so its
        ``count`` is the number of events while individual bucket placement
        is averaged over the run.  ``matched`` is documented as
        layout-sensitive, so run-level match attribution is within its
        contract.
        """
        self.events.inc(count)
        if matched:
            self.matched.inc(matched)
        self.latency.observe(seconds / count, count)


class ShardInstruments:
    """Cached per-shard metric children (parent side of a sharded run)."""

    __slots__ = ("outbox_depth", "ship_latency")

    def __init__(self, outbox_depth, ship_latency):
        self.outbox_depth = outbox_depth
        self.ship_latency = ship_latency


class Observability:
    """Per-runtime bundle of a metrics registry and a tracer.

    ``count_results`` exists for worker processes: their emitted records
    ship to the parent (which counts them once, after replay deduplication),
    so workers record events/matches/latency but not results.
    """

    def __init__(
        self,
        *,
        enabled: bool = True,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
        count_results: bool = True,
    ):
        self.enabled = enabled
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.count_results = count_results
        self._results_children: dict = {}

    @classmethod
    def disabled(cls) -> "Observability":
        """An observability that hands out no instruments at all."""
        return cls(enabled=False)

    # -- instrument factories (lazy, so disabled registries stay empty) ----

    def query_instruments(self, query: str) -> Optional[QueryInstruments]:
        if not self.enabled:
            return None
        registry = self.registry
        events = registry.counter(
            "cogra_query_events_total",
            "events routed to the query's executor",
            ("query",),
        ).labels(query)
        matched = registry.counter(
            "cogra_query_matched_total",
            "events whose execution produced immediate match output "
            "(watermark-timing sensitive: layouts that coalesce watermarks "
            "close windows at different call sites)",
            ("query",),
        ).labels(query)
        latency = registry.histogram(
            "cogra_query_latency_seconds",
            "executor processing latency per event",
            ("query",),
        ).labels(query)
        if self.count_results:
            results = self.results_counter(query)
        else:
            results = _NOOP_CHILD
        return QueryInstruments(events, matched, results, latency)

    def results_counter(self, query: str):
        """Cached ``cogra_query_results_total{query}`` child."""
        child = self._results_children.get(query)
        if child is None:
            child = self.registry.counter(
                "cogra_query_results_total",
                "result records emitted to the caller",
                ("query",),
            ).labels(query)
            self._results_children[query] = child
        return child

    def shard_instruments(self, shard: int) -> Optional[ShardInstruments]:
        if not self.enabled:
            return None
        registry = self.registry
        outbox_depth = registry.gauge(
            "cogra_shard_outbox_depth",
            "events queued for the shard at the last shipment",
            ("shard",),
        ).labels(str(shard))
        ship_latency = registry.histogram(
            "cogra_shard_ship_latency_seconds",
            "batch round-trip from shipment to worker acknowledgement",
            ("shard",),
        ).labels(str(shard))
        return ShardInstruments(outbox_depth, ship_latency)

    def operation_timer(self, name: str, help: str, **labels: str):
        """Cached histogram child for a lifecycle operation duration."""
        if not self.enabled:
            return None
        family = self.registry.histogram(name, help, tuple(labels))
        return family.labels(*labels.values()) if labels else family.labels()

    # -- tracing shortcuts -------------------------------------------------

    def start_trace(self, name: str, **attributes: Any) -> Optional[Span]:
        tracer = self.tracer
        if not tracer.enabled:
            return None
        return tracer.start_trace(name, **attributes)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        self.tracer.close()


def finalize_snapshot(snapshot: dict) -> dict:
    """Add derived gauges to a merged snapshot (in place; also returned).

    Currently derives ``cogra_query_selectivity`` -- results emitted over
    events routed, per query.  Both inputs are layout-invariant (the same
    stream yields the same counts single-process and sharded), so the
    derived gauge is too; ``cogra_query_matched_total`` is deliberately
    *not* used here because inline match output is watermark-timing
    sensitive (sharded batches coalesce watermarks, closing windows at
    different call sites).  Computing the ratio at snapshot time keeps the
    hot path to plain increments and guarantees the sharded parent view
    derives it from the *merged* counts.
    """
    families = snapshot.get("families", {})
    events = families.get("cogra_query_events_total")
    results = families.get("cogra_query_results_total")
    if not events:
        return snapshot
    results_by_query = {}
    if results:
        for child in results.get("children", ()):
            results_by_query[tuple(child.get("labels", ()))] = child.get(
                "value", 0.0
            )
    children = []
    for child in events.get("children", ()):
        labels = tuple(child.get("labels", ()))
        total = child.get("value", 0.0)
        emitted = results_by_query.get(labels, 0.0)
        children.append(
            {
                "labels": list(labels),
                "value": (emitted / total) if total else 0.0,
            }
        )
    families["cogra_query_selectivity"] = {
        "kind": "gauge",
        "help": "result records emitted per event routed to the query",
        "labels": ["query"],
        "children": children,
    }
    return snapshot
