"""Operational metrics of the streaming runtime, as named views of one registry.

:class:`StreamingMetrics` is how the runtimes record and callers read a
runtime's progress: ingestion and emission counts, watermark progress and
lag, reorder-buffer occupancy, late-event accounting and the rebalance /
backpressure pauses.  It keeps no store of its own.  Every runtime
family declared in :data:`RUNTIME_METRICS` lives in the runtime's
:class:`~repro.streaming.observability.Observability` registry, next to the
per-query, per-shard and lifecycle instruments, so the exporters, the
checkpoints and the sharded merge all read one registry.  The rebalance
pause total is the ``cogra_lifecycle_seconds{op="rebalance"}`` sum.

A sharded run counts each runtime family once, in the parent: its workers
build their runtimes on ``Observability(count_results=False)``, whose
runtime children are no-ops that read 0, so merging the worker registries
into the parent's view adds nothing to these families.

One rule covers restores: a registry value is cumulative across a restore,
the counters, the pause and backpressure totals and the per-query
instruments alike.  Only the rates (:meth:`~StreamingMetrics.throughput`,
:meth:`~StreamingMetrics.mean_latency_ms`,
:meth:`~StreamingMetrics.elapsed_seconds`) restart, because they divide by
wall-clock time measured in this process.
"""

from __future__ import annotations

import math
import time as _time
from typing import Callable, Dict, Optional

from repro.streaming.observability import INSTRUMENT_FAMILIES, Observability

#: attribute -> (registry kind, metric name, help text) of every runtime
#: family, in report order
RUNTIME_METRICS = {
    "events_ingested": (
        "counter",
        "cogra_events_ingested_total",
        "non-punctuation events ingested, late ones included",
    ),
    "events_released": (
        "counter",
        "cogra_events_released_total",
        "events released from the buffer toward executors",
    ),
    "events_buffered_peak": (
        "gauge",
        "cogra_reorder_buffer_peak",
        "high-water mark of the reorder buffer",
    ),
    "punctuations_seen": (
        "counter",
        "cogra_punctuations_total",
        "punctuation (watermark-carrying) events seen",
    ),
    "late_events_dropped": (
        "counter",
        "cogra_late_events_dropped_total",
        "late events dropped by policy",
    ),
    "late_events_rerouted": (
        "counter",
        "cogra_late_events_rerouted_total",
        "late events sent to the side channel",
    ),
    "results_emitted": (
        "counter",
        "cogra_results_emitted_total",
        "group results emitted to the caller",
    ),
    "rebalance_cycles": (
        "counter",
        "cogra_rebalance_cycles_total",
        "shard rebalance cycles executed",
    ),
    "rebalance_slots_moved": (
        "counter",
        "cogra_rebalance_slots_moved_total",
        "router slots migrated by rebalances",
    ),
    "rebalance_keys_moved": (
        "counter",
        "cogra_rebalance_keys_moved_total",
        "partition keys migrated by rebalances",
    ),
    "backpressure_waits": (
        "counter",
        "cogra_backpressure_waits_total",
        "times ingestion paused for downstream capacity",
    ),
    "backpressure_seconds": (
        "counter",
        "cogra_backpressure_seconds_total",
        "wall-clock seconds ingestion paused on backpressure",
    ),
    "watermark": (
        "gauge",
        "cogra_watermark",
        "current watermark (event-time units)",
    ),
    "watermark_lag": (
        "gauge",
        "cogra_watermark_lag",
        "newest event time minus watermark (event-time units)",
    ),
}

#: every family a runtime's registry holds, by name, with its closed set of
#: label values (``None``: any): the runtime families and the instruments'
REGISTRY_FAMILIES = {
    **{name: None for _kind, name, _help in RUNTIME_METRICS.values()},
    **INSTRUMENT_FAMILIES,
}

#: gauges created at the first finite watermark, so absent before it
_WATERMARK_GAUGES = ("watermark", "watermark_lag")

#: what :meth:`StreamingMetrics.snapshot` leaves to the registry
_UNCHECKPOINTED = ("backpressure_seconds",) + _WATERMARK_GAUGES


class StreamingMetrics:
    """Named views of one runtime's families in its observability registry.

    Parameters
    ----------
    clock:
        Monotonic-seconds callable behind :meth:`elapsed_seconds` and
        :meth:`throughput`.  Defaults to :func:`time.perf_counter`; tests
        inject a fake clock so wall-clock-derived metrics are deterministic.
    observability:
        The :class:`~repro.streaming.observability.Observability` whose
        registry holds the runtime families; the runtimes pass their own.
        A fresh one by default.
    """

    #: the checkpointed counter attributes (:meth:`snapshot` keys), in
    #: report order
    COUNTERS = tuple(
        attribute for attribute in RUNTIME_METRICS if attribute not in _UNCHECKPOINTED
    )

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        observability: Optional[Observability] = None,
    ) -> None:
        self._clock = _time.perf_counter if clock is None else clock
        self._observability = observability or Observability()
        self._children = {
            attribute: self._child(attribute)
            for attribute in RUNTIME_METRICS
            if attribute not in _WATERMARK_GAUGES
        }
        #: (watermark, lag) children once the watermark is finite
        self._watermark_gauges = None
        self.watermark: float = -math.inf
        self.max_event_time: float = -math.inf
        self._started_at: Optional[float] = None
        self._processing_seconds = 0.0
        # counter values at the last restore: rates divide wall-clock time
        # measured in THIS process, so they must use post-restore deltas,
        # not lifetime totals carried over from the checkpoint
        self._rate_base_ingested = 0
        self._rate_base_released = 0

    def _child(self, attribute: str):
        kind, name, help_text = RUNTIME_METRICS[attribute]
        return self._observability.runtime_child(kind, name, help_text)

    def _sync_watermark_gauges(self) -> None:
        """Mirror the watermark and its lag into the registry, once finite."""
        if math.isinf(self.watermark):
            return
        gauges = self._watermark_gauges
        if gauges is None:
            gauges = self._watermark_gauges = tuple(
                self._child(attribute) for attribute in _WATERMARK_GAUGES
            )
        gauges[0].set(self.watermark)
        gauges[1].set(self.watermark_lag())

    # -- recording hooks (called by the runtime) -----------------------------

    def record_ingest_batch(
        self, count: int, max_event_time: float, buffered_peak: int
    ) -> None:
        """Account for the ``count`` events of one slice entering the buffer.

        ``max_event_time`` is the newest event time among them and
        ``buffered_peak`` the highest buffer occupancy after any of their
        pushes; the first slice with events starts the throughput clock.
        """
        if count <= 0:
            return
        if self._started_at is None:
            self._started_at = self._clock()
        self._children["events_ingested"].inc(count)
        if max_event_time > self.max_event_time:
            self.max_event_time = max_event_time
            self._sync_watermark_gauges()
        peak = self._children["events_buffered_peak"]
        if buffered_peak > peak.value:
            peak.set(buffered_peak)

    def record_release(self, count: int) -> None:
        """Account for ``count`` events leaving the buffer toward executors."""
        self._children["events_released"].inc(count)

    def record_watermark(self, watermark: float) -> None:
        """Record watermark progress."""
        if watermark > self.watermark:
            self.watermark = watermark
            self._sync_watermark_gauges()

    def record_punctuation(self, count: int = 1) -> None:
        """Account for ``count`` punctuation (watermark-carrying) events."""
        if count:
            self._children["punctuations_seen"].inc(count)

    def record_late_batch(self, dropped: int, rerouted: int) -> None:
        """Account for a slice's late events in two counter increments."""
        if dropped:
            self._children["late_events_dropped"].inc(dropped)
        if rerouted:
            self._children["late_events_rerouted"].inc(rerouted)

    def record_emission(self, count: int) -> None:
        """Account for ``count`` emitted group results."""
        self._children["results_emitted"].inc(count)

    def record_processing_seconds(self, seconds: float) -> None:
        """Add wall-clock time spent inside executor hot paths."""
        self._processing_seconds += seconds

    def record_rebalance(self, slots: int, keys: int) -> None:
        """Account one shard-rebalance cycle (slots and keys migrated).

        Its pause is the runtime's ``rebalance`` lifecycle observation.
        """
        self._children["rebalance_cycles"].inc()
        self._children["rebalance_slots_moved"].inc(slots)
        self._children["rebalance_keys_moved"].inc(keys)

    def record_backpressure(self, seconds: float) -> None:
        """Account one ingestion pause waiting for downstream capacity."""
        self._children["backpressure_waits"].inc()
        self._children["backpressure_seconds"].inc(seconds)

    # -- derived metrics ------------------------------------------------------

    @property
    def late_events(self) -> int:
        """Total late events, independent of the configured policy."""
        return self.late_events_dropped + self.late_events_rerouted

    @property
    def backpressure_seconds(self) -> float:
        """Wall-clock seconds ingestion paused on backpressure."""
        return self._children["backpressure_seconds"].value

    @property
    def rebalance_pause_seconds(self) -> float:
        """Wall-clock seconds ingestion paused for shard migrations."""
        return self._observability.lifecycle_seconds("rebalance")

    def watermark_lag(self) -> float:
        """Distance between the newest event seen and the watermark.

        The lag is measured in **event-time units** -- the same units as
        ``Event.time`` and the ``WITHIN`` clause (milliseconds for the
        paper's stock feeds, plain seconds in most of this repo's
        examples).  It is *not* a wall-clock duration: a stalled source
        leaves the lag frozen no matter how much real time passes.

        ``inf`` when events have been ingested but no watermark exists yet
        (e.g. a punctuated source that never punctuates) -- emission is
        stalled and the lag is unbounded; ``0.0`` before any event.
        """
        if math.isinf(self.max_event_time):
            return 0.0
        if math.isinf(self.watermark):
            return math.inf
        return max(0.0, self.max_event_time - self.watermark)

    def elapsed_seconds(self) -> float:
        """Wall-clock seconds since the first ingested event."""
        if self._started_at is None:
            return 0.0
        return self._clock() - self._started_at

    def throughput(self) -> float:
        """Ingested events per wall-clock second (0 before the first event).

        After a checkpoint restore only the events ingested since the
        restore count -- the carried-over totals were ingested in another
        process whose wall-clock time is unknown here.
        """
        elapsed = self.elapsed_seconds()
        if elapsed <= 0.0:
            return 0.0
        return (self.events_ingested - self._rate_base_ingested) / elapsed

    def mean_latency_ms(self) -> float:
        """Mean executor processing time per released event in milliseconds.

        Like :meth:`throughput`, measured over the events released since
        the last restore (the processing timer restarts at restore).
        """
        released = self.events_released - self._rate_base_released
        if released <= 0:
            return 0.0
        return 1000.0 * self._processing_seconds / released

    # -- snapshots -------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """The checkpointed counters plus the watermark and newest event time."""
        state: Dict[str, object] = {name: getattr(self, name) for name in self.COUNTERS}
        state["watermark"] = None if math.isinf(self.watermark) else self.watermark
        state["max_event_time"] = (
            None if math.isinf(self.max_event_time) else self.max_event_time
        )
        return state

    def restore_registry(self, state: Optional[dict]) -> None:
        """Restore a checkpoint's registry, less what this code no longer writes.

        A checkpoint written by older code can name families, or label
        values of a closed set, that nothing here records any more (a
        removed feature's counters and lifecycle timer, the store's
        ``kind="delta"`` children); restoring them would export them from
        then on.  Only the series :data:`REGISTRY_FAMILIES` allows come
        back.  ``None`` resets the registry, as
        :meth:`~repro.streaming.observability.MetricsRegistry.restore` does.
        """
        if state:
            families = {}
            for name, entry in state.get("families", {}).items():
                if name not in REGISTRY_FAMILIES:
                    continue
                allowed = REGISTRY_FAMILIES[name]
                if allowed is not None:
                    entry = {
                        **entry,
                        "children": [
                            child
                            for child in entry.get("children", ())
                            if tuple(child.get("labels", ())) in allowed
                        ],
                    }
                families[name] = entry
            state = {**state, "families": families}
        self._observability.registry.restore(state)

    def restore(self, state: Dict[str, object]) -> None:
        """Restore the counters written by :meth:`snapshot`.

        The runtimes call it after restoring the registry, so a checkpoint
        whose registry lacks the runtime families still restores them.
        """
        for name in self.COUNTERS:
            self._children[name].set(int(state.get(name, 0)))
        watermark = state.get("watermark")
        self.watermark = -math.inf if watermark is None else float(watermark)
        max_time = state.get("max_event_time")
        self.max_event_time = -math.inf if max_time is None else float(max_time)
        self._sync_watermark_gauges()
        # rate measurements start fresh: anchor throughput/latency deltas at
        # the restored counter values
        self._started_at = None
        self._processing_seconds = 0.0
        self._rate_base_ingested = self.events_ingested
        self._rate_base_released = self.events_released

    # -- reporting -------------------------------------------------------------

    def describe(self) -> str:
        """Readable multi-line metrics report (CLI ``--metrics``).

        Throughput and latency derive from the process-local clock and
        restart at a checkpoint restore; every other line is cumulative
        across it.  The watermark lag is reported in event-time units (see
        :meth:`watermark_lag`), not wall-clock seconds.
        """
        watermark = "-" if math.isinf(self.watermark) else f"{self.watermark:g}"
        lines = [
            f"events ingested     : {self.events_ingested}",
            f"events released     : {self.events_released}",
            f"results emitted     : {self.results_emitted}",
            f"late events         : {self.late_events} "
            f"(dropped={self.late_events_dropped}, "
            f"side-channel={self.late_events_rerouted})",
            f"punctuations        : {self.punctuations_seen}",
            f"buffer peak         : {self.events_buffered_peak}",
            f"watermark           : {watermark}",
            f"watermark lag (evt) : {self.watermark_lag():g}",
            f"throughput (ev/s)   : {self.throughput():,.0f}",
            f"mean latency (ms)   : {self.mean_latency_ms():.4f}",
            f"rebalances          : {self.rebalance_cycles} "
            f"(slots={self.rebalance_slots_moved}, "
            f"keys={self.rebalance_keys_moved}, "
            f"pause={self.rebalance_pause_seconds * 1000.0:.1f} ms)",
            f"backpressure        : {self.backpressure_waits} waits "
            f"({self.backpressure_seconds * 1000.0:.1f} ms paused)",
        ]
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"StreamingMetrics(ingested={self.events_ingested}, "
            f"released={self.events_released}, late={self.late_events}, "
            f"emitted={self.results_emitted})"
        )


def _counter_property(attribute: str) -> property:
    """Expose a checkpointed counter's child as a plain integer attribute."""

    def _get(self) -> int:
        return int(self._children[attribute].value)

    def _set(self, value) -> None:
        self._children[attribute].set(value)

    kind, name, _ = RUNTIME_METRICS[attribute]
    return property(_get, _set, doc=f"{kind} {name}")


for _attribute in StreamingMetrics.COUNTERS:
    setattr(StreamingMetrics, _attribute, _counter_property(_attribute))
del _attribute
