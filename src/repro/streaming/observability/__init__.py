"""Observability subsystem: metrics registry, tracing, and exporters.

:class:`Observability` is the per-runtime handle the streaming modules share.
It owns

* a :class:`~repro.streaming.observability.registry.MetricsRegistry`, the
  runtime's one metrics store: the runtime families that
  :class:`~repro.streaming.metrics.StreamingMetrics` names, and the
  per-query / per-shard / lifecycle instruments, and
* a :class:`~repro.streaming.observability.tracing.Tracer` for sampled
  lifecycle spans.

Instrument handles (:class:`QueryInstruments`, :class:`ShardInstruments`)
are created once at registration time and cached on the hot-path objects, so
an observation is a couple of attribute increments per span of events.
Instrumentation is always on; what it costs is measured like every other
cost, by the benchmark of record (``perfbench/``), which always runs
instrumented.

``StreamingRuntime.registry_snapshot()`` exports the registry as it is.
``ShardedRuntime.registry_snapshot()`` merges the worker registries into
the parent's; a worker counts events, matches and latency, while the
parent alone counts results and the runtime families (see
:class:`Observability`'s ``count_results``), so nothing is counted twice.
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
    """Stands in for a counter or gauge child when a series must not be counted."""

    __slots__ = ()

    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass


_NOOP_CHILD = _NoopChild()

_LIFECYCLE_SECONDS = "cogra_lifecycle_seconds"

#: the families of the instruments below and of a job's
#: :class:`~repro.streaming.checkpoint.CheckpointStore`, by name, each with
#: the label values it writes where they form a closed set (``None``: any
#: value).  With the runtime families they are all a runtime's registry
#: holds; a restore brings back nothing else
#: (:meth:`~repro.streaming.metrics.StreamingMetrics.restore_registry`).
INSTRUMENT_FAMILIES = {
    "cogra_query_events_total": None,
    "cogra_query_matched_total": None,
    "cogra_query_latency_seconds": None,
    "cogra_query_results_total": None,
    "cogra_shard_outbox_depth": None,
    "cogra_shard_ship_latency_seconds": None,
    _LIFECYCLE_SECONDS: {("checkpoint",), ("restore",), ("recovery",), ("rebalance",)},
    "cogra_checkpoint_write_seconds": {("base",)},
    "cogra_checkpoint_bytes_total": {("base",)},
    "cogra_checkpoint_restore_seconds": None,
}


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
    and the parent ingests the stream, so workers record events/matches/
    latency but neither results nor the runtime families (both read 0).
    """

    def __init__(
        self,
        *,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
        count_results: bool = True,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.count_results = count_results
        self._results_children: dict = {}

    # -- instrument factories ----------------------------------------------

    def query_instruments(self, query: str) -> QueryInstruments:
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

    def shard_instruments(self, shard: int) -> ShardInstruments:
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

    def runtime_child(self, kind: str, name: str, help: str):
        """The unlabelled child of a runtime family (``counter`` or ``gauge``).

        A no-op reading 0 without ``count_results``: a worker's runtime
        families would count what its parent already counts.
        """
        if not self.count_results:
            return _NOOP_CHILD
        return getattr(self.registry, kind)(name, help).labels()

    def lifecycle_timer(self, op: str):
        """Cached ``cogra_lifecycle_seconds{op}`` child."""
        return self.registry.histogram(
            _LIFECYCLE_SECONDS,
            "durations of checkpoint/restore/recovery/rebalance operations",
            ("op",),
        ).labels(op)

    def lifecycle_seconds(self, op: str) -> float:
        """Total seconds :meth:`lifecycle_timer` recorded for ``op`` (0 if none).

        Reads without creating the series, so asking leaves exports alone.
        """
        family = self.registry.get(_LIFECYCLE_SECONDS)
        if family is not None:
            for labels, child in family.children():
                if labels == (op,):
                    return child.sum
        return 0.0

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
