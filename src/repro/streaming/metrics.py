"""Operational metrics of the streaming runtime.

:class:`StreamingMetrics` tracks the counters a production deployment would
export: ingestion and emission throughput, per-event processing latency,
watermark progress and lag, reorder-buffer occupancy and late-event
accounting.  The counters live in a private
:class:`~repro.streaming.observability.registry.MetricsRegistry` (so they
render through the Prometheus/JSONL exporters like every other metric) but
remain plain attributes of this class -- the public API and the checkpoint
schema are unchanged by the registry refactor.  The wall-clock timers are
intentionally *not* checkpointed (a restored runtime starts fresh
throughput measurements).

The registry is **private to this instance** on purpose: in a sharded run
every worker process owns a ``StreamingMetrics`` whose runtime counters
would double count against the parent's if worker registries merged
upward.  Only the separate per-query/per-shard observability registry
merges across processes (see :mod:`repro.streaming.observability`).
"""

from __future__ import annotations

import math
import time as _time
from typing import Callable, Dict, Optional

from repro.streaming.observability.registry import MetricsRegistry

#: counter attribute -> (registry kind, metric name, help text)
_COUNTER_METRICS = {
    "events_ingested": (
        "counter",
        "cogra_events_ingested_total",
        "events accepted into the reorder buffer",
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
    "replan_cycles": (
        "counter",
        "cogra_replan_cycles_total",
        "granularity replan checks that evaluated the cost model",
    ),
    "replan_migrations": (
        "counter",
        "cogra_replan_migrations_total",
        "live granularity migrations performed by replans",
    ),
}


class StreamingMetrics:
    """Counters and timers describing one streaming runtime's progress.

    Parameters
    ----------
    clock:
        Monotonic-seconds callable behind :meth:`elapsed_seconds` and
        :meth:`throughput`.  Defaults to :func:`time.perf_counter`; tests
        inject a fake clock so wall-clock-derived metrics are deterministic.
    registry:
        Optional :class:`MetricsRegistry` to store the counters in.  By
        default each instance creates its own (see the module docstring on
        why the registry is not shared with the observability layer).
    """

    #: counter attributes included in snapshots (order is the report order);
    #: see :attr:`TIMERS` for the wall-clock category that is excluded
    COUNTERS = (
        "events_ingested",
        "events_released",
        "events_buffered_peak",
        "punctuations_seen",
        "late_events_dropped",
        "late_events_rerouted",
        "results_emitted",
        "rebalance_cycles",
        "rebalance_slots_moved",
        "rebalance_keys_moved",
        "backpressure_waits",
        "replan_cycles",
        "replan_migrations",
    )

    #: timer attributes: wall-clock accumulations measured in THIS process.
    #: Unlike :attr:`COUNTERS` they are deliberately NOT part of
    #: :meth:`snapshot` -- a checkpoint restored elsewhere cannot continue
    #: another process's wall-clock -- and :meth:`restore` resets them.
    TIMERS = (
        "rebalance_pause_seconds",
        "replan_pause_seconds",
        "backpressure_seconds",
    )

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self._clock = _time.perf_counter if clock is None else clock
        self.registry = MetricsRegistry() if registry is None else registry
        children = {}
        for attribute, (kind, name, help_text) in _COUNTER_METRICS.items():
            family = getattr(self.registry, kind)(name, help_text)
            children[attribute] = family.labels()
        self._children = children
        #: wall-clock seconds ingestion paused for shard migrations; a
        #: timer (see :attr:`TIMERS`), so not part of checkpoints
        self.rebalance_pause_seconds = 0.0
        #: wall-clock seconds ingestion paused for granularity migrations;
        #: a timer like rebalance_pause_seconds
        self.replan_pause_seconds = 0.0
        # backpressure_seconds is a timer like rebalance_pause_seconds but
        # registry-backed so the exporters surface it next to the waits
        # counter; the property below keeps plain attribute access working
        self._backpressure_seconds = self.registry.counter(
            "cogra_backpressure_seconds_total",
            "wall-clock seconds ingestion paused on backpressure",
        ).labels()
        self.watermark: float = -math.inf
        self.max_event_time: float = -math.inf
        self._started_at: Optional[float] = None
        self._processing_seconds = 0.0
        # counter values at the last restore: rates divide wall-clock time
        # measured in THIS process, so they must use post-restore deltas,
        # not lifetime totals carried over from the checkpoint
        self._rate_base_ingested = 0
        self._rate_base_released = 0

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

    def record_rebalance(self, slots: int, keys: int, pause_seconds: float) -> None:
        """Account one shard-rebalance cycle (slots and keys migrated)."""
        self._children["rebalance_cycles"].inc()
        self._children["rebalance_slots_moved"].inc(slots)
        self._children["rebalance_keys_moved"].inc(keys)
        self.rebalance_pause_seconds += pause_seconds

    def record_replan(self, migrations: int, pause_seconds: float) -> None:
        """Account one granularity replan check (and its migrations)."""
        self._children["replan_cycles"].inc()
        if migrations:
            self._children["replan_migrations"].inc(migrations)
        self.replan_pause_seconds += pause_seconds

    def record_backpressure(self, seconds: float) -> None:
        """Account one ingestion pause waiting for downstream capacity."""
        self._children["backpressure_waits"].inc()
        self._backpressure_seconds.inc(seconds)

    @property
    def backpressure_seconds(self) -> float:
        """Wall-clock seconds ingestion spent paused on backpressure.

        A timer (see :attr:`TIMERS`): measured in this process only,
        excluded from checkpoints, reset by :meth:`restore`.
        """
        return float(self._backpressure_seconds.value)

    @backpressure_seconds.setter
    def backpressure_seconds(self, value: float) -> None:
        self._backpressure_seconds.set(float(value))

    # -- derived metrics ------------------------------------------------------

    @property
    def late_events(self) -> int:
        """Total late events, independent of the configured policy."""
        return self.late_events_dropped + self.late_events_rerouted

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
        """Checkpointable counter state (:attr:`TIMERS` excluded on purpose)."""
        state: Dict[str, object] = {name: getattr(self, name) for name in self.COUNTERS}
        state["watermark"] = None if math.isinf(self.watermark) else self.watermark
        state["max_event_time"] = (
            None if math.isinf(self.max_event_time) else self.max_event_time
        )
        return state

    def restore(self, state: Dict[str, object]) -> None:
        """Restore the counters written by :meth:`snapshot`."""
        for name in self.COUNTERS:
            setattr(self, name, int(state.get(name, 0)))
        watermark = state.get("watermark")
        self.watermark = -math.inf if watermark is None else float(watermark)
        max_time = state.get("max_event_time")
        self.max_event_time = -math.inf if max_time is None else float(max_time)
        # rate measurements start fresh: discard any timer state and anchor
        # throughput/latency deltas at the restored counter values
        self._started_at = None
        self._processing_seconds = 0.0
        for name in self.TIMERS:
            setattr(self, name, 0.0)
        self._rate_base_ingested = self.events_ingested
        self._rate_base_released = self.events_released

    def registry_snapshot(self) -> dict:
        """Registry view of the counters plus watermark gauges (if finite).

        Used by the exporters; the watermark/lag gauges are added here at
        snapshot time because ``-inf`` (their pre-first-event value) is not
        JSON-representable.
        """
        snapshot = self.registry.snapshot()
        families = snapshot["families"]
        for name, help_text, value in (
            ("cogra_watermark", "current watermark (event-time units)", self.watermark),
            (
                "cogra_watermark_lag",
                "newest event time minus watermark (event-time units)",
                self.watermark_lag(),
            ),
        ):
            if math.isinf(value):
                continue
            families[name] = {
                "kind": "gauge",
                "help": help_text,
                "labels": [],
                "children": [{"labels": [], "value": value}],
            }
        return snapshot

    # -- reporting -------------------------------------------------------------

    def describe(self) -> str:
        """Readable multi-line metrics report (CLI ``--metrics``).

        Counter lines mirror :meth:`snapshot`; the remaining lines are
        derived from :attr:`TIMERS` and the process-local clock
        (throughput, latency, rebalance pause) and therefore restart at a
        checkpoint restore instead of carrying over.  The watermark lag is
        reported in event-time units (see :meth:`watermark_lag`), not
        wall-clock seconds.
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
            f"replans             : {self.replan_cycles} checks "
            f"(migrations={self.replan_migrations}, "
            f"pause={self.replan_pause_seconds * 1000.0:.1f} ms)",
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
    """Expose a registry child as a plain integer attribute.

    Keeps ``metrics.events_ingested`` (and ``+=``/``setattr`` on it, which
    :meth:`StreamingMetrics.restore` relies on) working exactly as when the
    counters were instance integers.
    """

    def _get(self) -> int:
        return int(self._children[attribute].value)

    def _set(self, value) -> None:
        self._children[attribute].set(value)

    kind, name, _ = _COUNTER_METRICS[attribute]
    return property(_get, _set, doc=f"{kind} {name} (registry-backed)")


for _attribute in StreamingMetrics.COUNTERS:
    setattr(StreamingMetrics, _attribute, _counter_property(_attribute))
del _attribute
