"""The streaming runtime: many queries, one out-of-order input stream.

:class:`StreamingRuntime` is the production-style counterpart of
:meth:`CograEngine.run`:

* any number of queries is registered against the same input stream;
* events may arrive out of order within a configurable lateness bound --
  the ingestion layer (:mod:`repro.streaming.ingest`) restores order and
  generates watermarks;
* released events are applied a *step* at a time -- everything between two
  window boundaries is one span -- and each query is handed only the
  events whose types can affect it, in runs cut at its own boundaries;
* window results are emitted incrementally as the watermark passes each
  window's end (:mod:`repro.streaming.emission`), not at end of stream;
* the whole runtime state can be checkpointed mid-stream and restored into
  a fresh runtime with identical final results
  (:mod:`repro.streaming.checkpoint`).

Example
-------
::

    runtime = StreamingRuntime(lateness=5.0)
    runtime.register(query_text_1, name="q1")
    runtime.register(query_text_2, name="q2")
    runtime.run(
        JsonlFileTailSource("events.jsonl"),
        CallbackSink(lambda record: publish(record.query, record.result)),
    )

or, driving the loop by hand::

    for event in source:
        for record in runtime.process(event):
            publish(record.query, record.result)
    for record in runtime.flush():
        publish(record.query, record.result)
"""

from __future__ import annotations

import math
import time as _time
from functools import partial
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.core.engine import CograEngine
from repro.core.executor import QueryExecutor
from repro.core.results import GroupResult
from repro.errors import CheckpointError, ConfigError, LateEventError, SourceError
from repro.events.event import Event
from repro.events.stream import sort_events
from repro.query.query import Query
from repro.query.semantics import Semantics
from repro.query.windows import WindowSpec
from repro.streaming.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointStore,
    check_query_identity,
    checkpointed_queries,
    query_header,
    restore_executor,
    snapshot_executor,
)
from repro.streaming.config import (
    BackpressureConfig,
    LatenessConfig,
    WatermarkConfig,
    late_replay_reason,
)
from repro.streaming.emission import EmissionController, EmissionRecord
from repro.streaming.ingest import (
    IngestBatch,
    LatePolicy,
    OutOfOrderIngestor,
    WatermarkStrategy,
)
from repro.streaming.metrics import StreamingMetrics
from repro.streaming.observability import (
    JsonlMetricsExporter,
    Observability,
    QueryInstruments,
    finalize_snapshot,
)
from repro.streaming.sources import EventSource, Sink, as_source


def replay_corrections(
    replay: "StreamingRuntime",
    late: List[Event],
    watermark: float,
    metrics: StreamingMetrics,
) -> List[EmissionRecord]:
    """Run drained side-channel events through ``replay``; wrap as corrections.

    The shared tail of ``reprocess_late`` on both runtimes: the late events
    are sorted, applied via :meth:`StreamingRuntime.process_ordered`, every
    still-open window flushed, and the results re-emitted flagged
    ``is_correction=True`` with the live runtime's ``watermark`` as context
    (counted in the live runtime's emission ``metrics``).
    """
    records = replay.process_ordered(sort_events(late), watermark=None)
    records.extend(replay.flush())
    corrections = [
        EmissionRecord(record.query, record.result, watermark, is_correction=True)
        for record in records
    ]
    metrics.record_emission(len(corrections))
    return corrections


class PipelineDriver:
    """The source → process → emit → sink driver loop shared by the runtimes.

    Subclasses provide the runtime interface the loop is written against:
    ``process_batch(events, emit)`` / ``flush()`` / ``checkpoint()`` /
    ``_checkpoint_cut()`` / ``drain_pending()`` -- both :class:`StreamingRuntime` and
    :class:`~repro.streaming.sharded.ShardedRuntime` do, so the CLI,
    examples, benchmarks and :meth:`CograEngine.stream` stop hand-rolling
    ingestion loops.  Both ingest in this process and hold ``_ingestor``,
    ``metrics``, ``observability``, ``query_names`` and ``_windows`` (the
    window of each windowed query, by name, which define the steps of
    :meth:`_ingest`), which the members shared here read.
    :meth:`drive` is the lazy form (a generator of emission records),
    :meth:`run` the eager one (collect, or push into a
    :class:`~repro.streaming.sources.Sink`).

    Events are pulled from the source in slices of
    :attr:`decode_batch_size` (see
    :meth:`~repro.streaming.sources.EventSource.batches`; latency-sensitive
    live sources yield singleton slices) and pushed through
    ``process_batch``, whose result never depends on how the stream was
    sliced.  Slices are split at checkpoint-interval boundaries so periodic
    checkpoints still land at exact ingested-event counts.  Both runtimes
    push a slice through their reorder buffer with :meth:`_ingest`, the one
    place that counts what was ingested.
    """

    #: default slice size for :meth:`drive`'s source pulls; overridden per
    #: job via ``JobConfig.batch.decode_batch_size``
    decode_batch_size = 256

    def drive(
        self,
        events: Union[EventSource, Iterable[Event]],
        *,
        checkpoint_store: Optional[CheckpointStore] = None,
        checkpoint_interval: Optional[int] = None,
        on_late: Optional[Callable[[List[Event]], None]] = None,
        metrics_exporter: Optional[JsonlMetricsExporter] = None,
        sink: Optional[Sink] = None,
        backpressure: Optional[BackpressureConfig] = None,
        decode_batch_size: Optional[int] = None,
    ) -> Iterator[EmissionRecord]:
        """Pull events from a source, yield emission records as they emit.

        Parameters
        ----------
        events:
            An :class:`~repro.streaming.sources.EventSource` or any
            iterable of events (adapted via
            :func:`~repro.streaming.sources.as_source`).  The source is
            closed when the generator finishes -- normally or not.
        checkpoint_store / checkpoint_interval:
            Together they enable periodic checkpointing: every
            ``checkpoint_interval`` ingested events the runtime state is
            snapshotted into the store (incremental deltas; see
            :class:`~repro.streaming.checkpoint.CheckpointStore`).
        on_late:
            Called with each batch of drained side-channel late events
            (``LatePolicy.SIDE_CHANNEL``) so they are persisted or
            reprocessed instead of piling up.
        metrics_exporter:
            Optional
            :class:`~repro.streaming.observability.JsonlMetricsExporter`.
            Once per chunk (a pulled slice, or the part of it up to the
            next checkpoint boundary) the loop offers it the runtime's
            :meth:`registry_snapshot`; the exporter samples at most once
            per its configured interval, and a final sample is taken after
            the flush so the time series always ends with the complete
            run.
        sink:
            Optional downstream :class:`~repro.streaming.sources.Sink`.
            Every record is emitted into it *before* it is yielded -- as
            soon as the ingest step closing its window was applied (see
            :class:`DriveSession`; a caller pulling this generator must
            not emit again, and the sink must not call back into the
            runtime).  The sink also serves two delivery
            concerns: its :meth:`~repro.streaming.sources.Sink.ready`
            signal throttles ingestion (backpressure), and -- when it
            exposes ``state()``, like
            :class:`~repro.streaming.sources.TransactionalSink` -- its
            delivered offset is stored inside each checkpoint, atomically
            with executor state, which is what makes recovery
            exactly-once.  It is not closed.
        backpressure:
            :class:`~repro.streaming.config.BackpressureConfig` tuning the
            ready-poll loop (defaults apply when ``None``).
        """
        session = DriveSession(
            self,
            events,
            checkpoint_store=checkpoint_store,
            checkpoint_interval=checkpoint_interval,
            on_late=on_late,
            metrics_exporter=metrics_exporter,
            sink=sink,
            backpressure=backpressure,
            decode_batch_size=decode_batch_size,
        )
        try:
            for batch in session.batches():
                yield from session.step(batch)
            yield from session.finish()
        finally:
            session.close()

    def _ingest(self, events: Iterable[Event], apply) -> None:
        """Push a slice through the reorder buffer; apply it step by step.

        Every event is pushed on its own, but pushes are *applied* a step at
        a time.  A step is everything between two window edges: while the
        watermark stays below the next time edge and no push releases the
        event at the next count edge (:meth:`_step_boundary`), what the
        pushes release accumulates into one span and only the newest
        watermark is kept.  That span opens and closes no window and yields
        no records; it is handed to ``apply(batch, trace, edge)`` as one
        :class:`IngestBatch` when the step ends.  The push that reaches an
        edge is applied alone, exactly as pushed and with ``edge`` true, so
        whatever it emits carries its own watermark.  A sampled event
        (``trace``, its ``ingest`` child already finished, else ``None``), a
        raising late event and the end of the slice end the step too, which
        is why neither sampling nor the slicing can change what is emitted.

        Late events and their accounting end here.  The ingested /
        punctuation / late / released tallies reach :attr:`metrics` once per
        slice, also when a raising late policy aborts it, so the totals never
        depend on the slicing.
        """
        ingestor = self._ingestor
        push = ingestor.push
        tracer = self.observability.tracer
        sample = tracer.start_trace if tracer.enabled else None
        reroutes = ingestor.late_policy is LatePolicy.SIDE_CHANNEL
        ingested = punctuations = late_dropped = late_rerouted = 0
        max_time = -math.inf
        buffered_peak = -1
        trace = span = None
        #: the watermark after the last push that was not late
        current = ingestor.watermark
        #: events released so far: the ordinal of the next released event
        first = ordinal = self.metrics.events_released
        boundary, count_edge = self._step_boundary(current, ordinal)
        #: what the open step's pushes released, and whether one of them
        #: moved the watermark (to ``current``)
        pending: List[Event] = []
        advanced = False
        try:
            for event in events:
                if sample is not None:
                    trace = sample(
                        "event", event_type=event.event_type, event_time=event.time
                    )
                    span = None if trace is None else trace.child("ingest")
                try:
                    batch = push(event)
                except LateEventError:
                    # the raising policy still accounts for the event, like
                    # the drop and side-channel policies do
                    ingested += 1
                    late_dropped += 1
                    max_time = max(max_time, event.time)
                    buffered_peak = max(buffered_peak, len(ingestor))
                    if span is not None:
                        span.annotate(late=True)
                        span.finish()
                    raise
                if span is not None:
                    span.annotate(
                        released=len(batch.released),
                        late=batch.late_event is not None,
                        punctuation=batch.punctuation,
                    )
                    span.finish()
                if batch.punctuation:
                    punctuations += 1
                else:
                    # batch.buffered is post-push occupancy from the ingestor
                    # itself; late events never entered the buffer
                    ingested += 1
                    if event.time > max_time:
                        max_time = event.time
                    if batch.buffered > buffered_peak:
                        buffered_peak = batch.buffered
                if batch.late_event is not None:
                    if reroutes:
                        late_rerouted += 1
                    else:
                        late_dropped += 1
                elif (
                    batch.watermark < boundary
                    and ordinal + len(batch.released) <= count_edge
                    and trace is None
                ):
                    if batch.released:
                        ordinal += len(batch.released)
                        pending.extend(batch.released)
                    if batch.advanced:
                        advanced = True
                        current = batch.watermark
                else:
                    if pending or advanced:
                        step = IngestBatch(pending, current, advanced)
                        pending = []
                        advanced = False
                        apply(step, None, False)
                    ordinal += len(batch.released)
                    current = batch.watermark
                    apply(batch, trace, current >= boundary or ordinal > count_edge)
                    boundary, count_edge = self._step_boundary(current, ordinal)
                if trace is not None:
                    trace.finish()
        finally:
            if trace is not None:
                trace.finish()  # idempotent; closes the root of an aborted push
            metrics = self.metrics
            metrics.record_punctuation(punctuations)
            metrics.record_ingest_batch(ingested, max_time, buffered_peak)
            metrics.record_late_batch(late_dropped, late_rerouted)
            metrics.record_release(ordinal - first)
            metrics.record_watermark(current)
            # the slice ends the step, also when a raising late event cut it
            # short: what the step held was released before that event came
            if pending or advanced:
                apply(IngestBatch(pending, current, advanced), None, False)

    def _step_boundary(self, watermark: float, ordinal: int) -> Tuple[float, float]:
        """The next window edge of any registered query, in time and in ordinals.

        The time edge is the next window start or end after ``watermark``
        (:meth:`WindowSpec.next_boundary`): below it the watermark closes
        nothing and released events fall into the windows the step began in.
        A count window is the same grid in event ordinals: its edge is the
        next one after the last released event's (``ordinal - 1``), where
        the event arriving closes a window.  The ordinal counts every
        released event, as a count-windowed query's ``events_seen`` does.
        """
        boundary = count_edge = math.inf
        for window in self._windows.values():
            if window.is_count_based:
                count_edge = min(count_edge, window.next_boundary(ordinal - 1))
            else:
                boundary = min(boundary, window.next_boundary(watermark))
        return boundary, count_edge

    def _check_late_replay(self) -> None:
        """Raise the :func:`late_replay_reason` of the registered windows, if any.

        Both runtimes' ``reprocess_late`` call it before draining the side
        channel, so refused late events stay there to be persisted instead.
        """
        reason = late_replay_reason(
            {name: window.is_count_based for name, window in self._windows.items()}
        )
        if reason is not None:
            raise ConfigError(reason)

    def _await_sink_ready(
        self, ready: Callable[[], bool], backpressure: BackpressureConfig
    ) -> None:
        """Pause ingestion until the sink reports capacity (backpressure).

        The wait is accounted as one ``backpressure_waits`` episode with its
        wall-clock duration added to ``backpressure_seconds``; a configured
        ``max_wait_seconds`` turns a permanently stalled sink into a loud
        :class:`~repro.errors.SourceError` instead of a silent hang.
        """
        started = _time.perf_counter()
        while not ready():
            _time.sleep(backpressure.poll_interval_seconds)
            waited = _time.perf_counter() - started
            max_wait = backpressure.max_wait_seconds
            if max_wait is not None and waited >= max_wait:
                self.metrics.record_backpressure(waited)
                raise SourceError(
                    f"sink reported not-ready for {waited:.1f}s "
                    f"(backpressure.max_wait_seconds={max_wait:g}); "
                    f"is the downstream consumer stuck?"
                )
        self.metrics.record_backpressure(_time.perf_counter() - started)

    #: true while :meth:`_checkpoint_for_save` takes the cut through
    #: ``checkpoint()``, which then returns it undecoded
    _keep_cut_encoded = False

    def _checkpoint_for_save(self) -> Dict[str, object]:
        """The cut a save writes, taken through the public ``checkpoint()``.

        ``checkpoint()`` stays the one entry point every snapshot passes, so
        whatever wraps it (a tracer, a profiler) sees the periodic saves
        too.  Here it returns the cut before decoding: a sharded cut's
        entries stay the JSON texts its workers encoded.
        """
        self._keep_cut_encoded = True
        try:
            return self.checkpoint()
        finally:
            self._keep_cut_encoded = False

    def _delivery_checkpoint(
        self,
        snapshot: Dict[str, object],
        source: EventSource,
        sink: Optional[Sink],
    ) -> Dict[str, object]:
        """One snapshot covering runtime, source and sink state atomically.

        The runtime ``snapshot`` (cut by :meth:`checkpoint`) is enriched
        with the source's consumer offsets (``source_offsets``) and the
        sink's delivered position (``sink``) when either exposes them, so
        a single :meth:`CheckpointStore.save` commits all three facets
        together -- the invariant exactly-once recovery rests on.  The
        caller delivers the records the cut released before it calls this,
        so the sink position covers them.  Both runtimes' ``restore``
        ignore unknown snapshot keys, and the delta store carries them
        verbatim, so plain checkpoints are unaffected.
        """
        offsets = getattr(source, "offsets", None)
        if callable(offsets):
            snapshot["source_offsets"] = offsets()
        state = getattr(sink, "state", None)
        if callable(state):
            snapshot["sink"] = state()
        return snapshot

    def run(
        self,
        events: Union[EventSource, Iterable[Event]],
        sink: Optional[Sink] = None,
        *,
        checkpoint_store: Optional[CheckpointStore] = None,
        checkpoint_interval: Optional[int] = None,
        on_late: Optional[Callable[[List[Event]], None]] = None,
        metrics_exporter: Optional[JsonlMetricsExporter] = None,
        backpressure: Optional[BackpressureConfig] = None,
        decode_batch_size: Optional[int] = None,
    ) -> List[EmissionRecord]:
        """Process a stream to completion and flush at the end.

        Without a ``sink`` the emitted records are collected and returned
        (the historical behaviour).  With one, :meth:`drive` emits every
        record into it as it is produced and the returned list is empty --
        the records left the pipeline already; the sink's ``ready`` signal
        then also throttles ingestion.  The sink is *not* closed; it may
        outlive the run.
        """
        records = self.drive(
            events,
            checkpoint_store=checkpoint_store,
            checkpoint_interval=checkpoint_interval,
            on_late=on_late,
            metrics_exporter=metrics_exporter,
            sink=sink,
            backpressure=backpressure,
            decode_batch_size=decode_batch_size,
        )
        if sink is None:
            return list(records)
        for _ in records:  # delivered already; retain nothing
            pass
        return []

    def _observe_lifecycle(self, op: str, seconds: float) -> None:
        """Record one lifecycle operation's duration (and a sampled span)."""
        self.observability.lifecycle_timer(op).observe(seconds)
        span = self.observability.start_trace(op)
        if span is not None:
            span.annotate(seconds=seconds)
            span.finish()

    # -- introspection ---------------------------------------------------------

    @property
    def watermark(self) -> float:
        """Current watermark of the ingestion layer."""
        return self._ingestor.watermark

    @property
    def buffered_events(self) -> int:
        """Events currently held in the reorder buffer."""
        return len(self._ingestor)

    @property
    def late_events(self) -> List[Event]:
        """Side channel of late events (``LatePolicy.SIDE_CHANNEL``)."""
        return list(self._ingestor.side_channel)

    def take_late_events(self) -> List[Event]:
        """Drain (return and clear) the late-event side channel.

        Long-running jobs call this periodically to reprocess or persist
        late events without the side channel growing without bound.
        """
        return self._ingestor.take_side_channel()


class DriveSession:
    """Step-at-a-time form of :meth:`PipelineDriver.drive`.

    ``drive`` owns its loop: it pulls batches until the source is
    exhausted.  A :class:`DriveSession` externalises that loop so a
    scheduler can interleave *many* pipelines -- feed one batch to job A,
    one to job B -- without threads hiding inside each pipeline.
    :class:`~repro.streaming.config.Job` opens one at ``start()`` and both
    its own ``records()`` loop and the job server's fair scheduler step
    it; ``drive`` itself is a thin generator over one session.

    Usage::

        session = DriveSession(runtime, source, sink=sink, ...)
        for batch in session.batches():
            records = session.step(batch)      # may be interleaved
        records = session.finish()             # flush + final export
        session.close()                        # always, in a finally

    The session is the one place a record enters the sink, and every
    record enters it exactly once, before it is yielded.  ``step`` hands
    the sink's ``emit`` to ``process_batch``, so a record reaches the sink
    as soon as the ingest step that closes its window was applied, not at
    the end of the pulled slice; the consumer of ``step`` still receives
    the slice's records together once ``process_batch`` returns.  Records
    surfacing outside ``process_batch`` (a sharded quiesce, the final
    flush) go through :meth:`deliver`, which emits each and then yields
    it.  ``step`` splits slices at checkpoint-interval boundaries, lets the
    sink's ``ready`` signal throttle ingestion, drains late events to
    ``on_late``, saves periodic checkpoints through
    :meth:`PipelineDriver._delivery_checkpoint` and offers the metrics
    exporter a snapshot.  A checkpoint runs in three steps: cut the
    runtime snapshot (``_checkpoint_for_save``: a sharded cut quiesces the
    workers, which can release records, and carries the entry texts they
    encoded, saved undecoded), deliver every released record to the sink, and
    only then read the source offsets and the sink position and save.  So
    the sink position inside a checkpoint covers every record whose
    window the saved state has closed, and a crash right after the save
    loses none.  The sink must not call back into the runtime while a
    slice is processed.
    """

    def __init__(
        self,
        driver: PipelineDriver,
        events: Union[EventSource, Iterable[Event]],
        *,
        checkpoint_store: Optional[CheckpointStore] = None,
        checkpoint_interval: Optional[int] = None,
        on_late: Optional[Callable[[List[Event]], None]] = None,
        metrics_exporter: Optional[JsonlMetricsExporter] = None,
        sink: Optional[Sink] = None,
        backpressure: Optional[BackpressureConfig] = None,
        decode_batch_size: Optional[int] = None,
    ):
        if (checkpoint_store is None) != (checkpoint_interval is None):
            raise ValueError(
                "checkpoint_store and checkpoint_interval enable periodic "
                "checkpointing together; pass both or neither"
            )
        if checkpoint_interval is not None and checkpoint_interval < 1:
            raise ValueError(
                f"checkpoint_interval must be at least 1, got {checkpoint_interval}"
            )
        if decode_batch_size is None:
            decode_batch_size = driver.decode_batch_size
        if decode_batch_size < 1:
            raise ValueError(
                f"decode_batch_size must be at least 1, got {decode_batch_size}"
            )
        if checkpoint_interval:
            # a pulled slice must never straddle a checkpoint boundary: the
            # checkpoint records the source's consumer offsets, so every
            # event the source has delivered must be inside runtime state
            # when the snapshot is cut.  Clamp the pull size to the largest
            # divisor of the interval, so boundaries land between pulls.
            size = min(decode_batch_size, checkpoint_interval)
            while checkpoint_interval % size:
                size -= 1
            decode_batch_size = size
        self.driver = driver
        self.source = as_source(events)
        self.sink = sink
        self._emit = sink.emit if sink is not None else None
        #: resolved pull-slice size (clamped to the checkpoint interval)
        self.decode_batch_size = decode_batch_size
        self._checkpoint_store = checkpoint_store
        self._checkpoint_interval = checkpoint_interval
        self._on_late = on_late
        self._metrics_exporter = metrics_exporter
        self._sink_ready = getattr(sink, "ready", None) if sink is not None else None
        self._backpressure = backpressure or BackpressureConfig()
        #: events ingested through this session so far
        self.processed = 0
        self._finished = False

    def batches(self) -> Iterator[List[Event]]:
        """The source's batch iterator at the resolved slice size."""
        return self.source.batches(self.decode_batch_size)

    def sink_ready(self) -> bool:
        """Whether the sink (if any) currently reports capacity.

        A scheduler can poll this *before* :meth:`step` to skip a job
        whose sink is backed up instead of blocking inside the step.
        """
        return self._sink_ready is None or self._sink_ready()

    def deliver(self, records: Iterable[EmissionRecord]) -> Iterator[EmissionRecord]:
        """Emit each record into the sink (if any), then yield it."""
        sink = self.sink
        if sink is None:
            yield from records
            return
        for record in records:
            sink.emit(record)
            yield record

    def step(self, batch: List[Event]) -> Iterator[EmissionRecord]:
        """Run one pulled slice through the pipeline; deliver its records.

        Each record enters the sink inside ``process_batch``, as the step
        closing its window is applied; the chunk's records are then yielded
        together.  A generator so records reach the sink and the consumer
        *before* the chunk's checkpoint save -- the delivery order
        exactly-once recovery is proven against.  Callers must drain it
        fully (or use ``list(...)``); an abandoned generator leaves the
        slice half ingested.
        """
        driver = self.driver
        start = 0
        total = len(batch)
        while start < total:
            if self._sink_ready is not None and not self._sink_ready():
                driver._await_sink_ready(self._sink_ready, self._backpressure)
            end = total
            if self._checkpoint_interval:
                # split the slice at the checkpoint boundary so the
                # periodic snapshot lands at the exact event count
                room = self._checkpoint_interval - (
                    self.processed % self._checkpoint_interval
                )
                end = min(total, start + room)
            chunk = batch if start == 0 and end == total else batch[start:end]
            self.processed += end - start
            start = end
            try:
                records = driver.process_batch(chunk, self._emit)
            except LateEventError as error:
                # a raising late policy aborts the slice, not the results
                # its earlier events already produced (and emitted)
                yield from error.records
                raise
            yield from records
            if self._on_late is not None:
                late = driver.take_late_events()
                if late:
                    self._on_late(late)
            if (
                self._checkpoint_interval
                and self.processed % self._checkpoint_interval == 0
            ):
                # the cut, saved as it is: a sharded cut's entries stay the
                # JSON texts its workers encoded
                snapshot = driver._checkpoint_for_save()
                # a sharded checkpoint quiesces the workers; the records
                # that became ready during the quiesce reach the sink
                # before the save, which commits them with the cut
                yield from self.deliver(driver.drain_pending())
                self._checkpoint_store.save(
                    driver._delivery_checkpoint(snapshot, self.source, self.sink)
                )
            if self._metrics_exporter is not None:
                if self._metrics_exporter.maybe_export(driver.registry_snapshot):
                    # a sharded snapshot pull quiesces the workers too
                    yield from self.deliver(driver.drain_pending())

    def finish(self) -> Iterator[EmissionRecord]:
        """Flush the pipeline after the last batch; deliver the tail records.

        Idempotent: a second call yields nothing (the runtime refuses a
        second flush, and the session must tolerate a scheduler finishing
        a job from more than one code path).
        """
        if self._finished:
            return
        self._finished = True
        driver = self.driver
        yield from self.deliver(driver.flush())
        if self._on_late is not None:
            late = driver.take_late_events()
            if late:
                self._on_late(late)
        if self._metrics_exporter is not None:
            self._metrics_exporter.export_now(driver.registry_snapshot)

    def close(self) -> None:
        """Close the session's source (always safe to call)."""
        self.source.close()


class RegisteredQuery:
    """One query attached to the runtime, with its routing metadata."""

    __slots__ = (
        "name",
        "engine",
        "order",
        "relevant_types",
        "broadcast",
        "instruments",
    )

    def __init__(
        self,
        name: str,
        engine: CograEngine,
        instruments: QueryInstruments,
        order: int = 0,
    ):
        self.name = name
        self.engine = engine
        self.order = order
        #: cached per-query metric children of the owning runtime
        self.instruments = instruments
        self.relevant_types = engine.plan.relevant_types
        # contiguous semantics see *every* event (any event breaks
        # contiguity), emit_empty_groups makes even unmatched groups
        # observable, and every event advances a count window's ordinal, so
        # all three disable type-based routing for this query
        window = engine.query.window
        self.broadcast = (
            engine.query.semantics is Semantics.CONTIGUOUS
            or engine._emit_empty_groups
            or (window is not None and window.is_count_based)
        )

    @property
    def executor(self) -> QueryExecutor:
        """The engine's current executor instance."""
        return self.engine.executor

    def __repr__(self) -> str:
        return f"RegisteredQuery({self.name!r}, granularity={self.engine.granularity})"


class StreamingRuntime(PipelineDriver):
    """Executes registered queries over one out-of-order input stream.

    Parameters
    ----------
    lateness:
        Bounded-disorder tolerance in seconds: events may arrive up to this
        much event time behind later events.  Ignored when an explicit
        ``watermark_strategy`` is given.
    watermark_strategy:
        Optional :class:`~repro.streaming.ingest.WatermarkStrategy`
        (e.g. :class:`~repro.streaming.ingest.PunctuationWatermark`).
    late_policy:
        What happens to events arriving behind the watermark; see
        :class:`~repro.streaming.ingest.LatePolicy`.  The default comes
        from :class:`~repro.streaming.config.LatenessConfig` -- ``raise``,
        mirroring the batch path's strictness on disorder (it used to be
        ``drop`` here while :meth:`CograEngine.stream` said ``raise``;
        the shared config reconciled the divergence).  Invalid policy
        strings fail eagerly with :class:`~repro.errors.ConfigError`.
    emit_empty_groups:
        Default for queries registered without an explicit setting.
    observability:
        Optional :class:`~repro.streaming.observability.Observability`
        bundle (metrics registry + tracer).  By default a fresh bundle is
        created, with tracing off.
    """

    def __init__(
        self,
        lateness: float = 0.0,
        watermark_strategy: Optional[WatermarkStrategy] = None,
        late_policy: Union[LatePolicy, str, None] = None,
        emit_empty_groups: bool = False,
        observability: Optional[Observability] = None,
    ):
        # the constructor kwargs are one corner of the declarative JobConfig
        # API: normalising them through the component specs keeps defaults
        # and validation in exactly one place (repro.streaming.config)
        late = LatenessConfig.of(late_policy)
        strategy = watermark_strategy or WatermarkConfig(lateness=lateness).build()
        self._ingestor = OutOfOrderIngestor(strategy, late.resolved_policy)
        self._controller = EmissionController()
        self.observability = observability or Observability()
        self.metrics = StreamingMetrics(observability=self.observability)
        self._emit_empty_groups = emit_empty_groups
        self._queries: List[RegisteredQuery] = []
        self._by_name: Dict[str, RegisteredQuery] = {}
        self._windows: Dict[str, WindowSpec] = {}
        self._flushed = False
        #: set when a restore failed mid-application; the mixed state must
        #: never process events (see :meth:`restore`)
        self._poisoned = False
        #: highest watermark handed to :meth:`process_ordered` so far
        self._ordered_watermark = -math.inf

    # -- registration ----------------------------------------------------------

    def register(
        self,
        query: Union[Query, str, CograEngine],
        name: Optional[str] = None,
        granularity=None,
        emit_empty_groups: Optional[bool] = None,
    ) -> str:
        """Attach a query (text, :class:`Query` or prepared engine).

        Returns the name under which the query's results are emitted.
        Registration is only allowed before the first event is processed.
        """
        if self.metrics.events_ingested or self.metrics.punctuations_seen:
            # punctuations advance the watermark without counting as data
            # events, and a query registered behind the watermark would see
            # everything before it as late
            raise RuntimeError(
                "queries must be registered before the first event is ingested"
            )
        if isinstance(query, CograEngine):
            if granularity is not None or emit_empty_groups is not None:
                raise ValueError(
                    "granularity/emit_empty_groups cannot be overridden on an "
                    "already-built engine; configure the CograEngine instead"
                )
            if any(registered.engine is query for registered in self._queries):
                raise ValueError(
                    "this engine instance is already registered; engines own "
                    "their executor state and cannot back two queries"
                )
            engine = query
            engine.reset()
        else:
            engine = CograEngine(
                query,
                emit_empty_groups=(
                    self._emit_empty_groups
                    if emit_empty_groups is None
                    else emit_empty_groups
                ),
                granularity=granularity,
            )
        name = name or engine.query.name
        if name in self._by_name:
            raise ValueError(f"a query named {name!r} is already registered")
        registered = RegisteredQuery(
            name,
            engine,
            self.observability.query_instruments(name),
            order=len(self._queries),
        )
        self._queries.append(registered)
        self._by_name[name] = registered
        if engine.query.window is not None:
            self._windows[name] = engine.query.window
        return name

    @property
    def query_names(self) -> List[str]:
        """Names of the registered queries, in registration order."""
        return [registered.name for registered in self._queries]

    def engine(self, name: str) -> CograEngine:
        """The engine evaluating the query registered under ``name``."""
        return self._by_name[name].engine

    # -- streaming -------------------------------------------------------------

    def _check_processable(self, require_open: bool = True) -> None:
        """Shared guards of the event-facing entry points."""
        if require_open and not self._queries:
            raise RuntimeError("no queries are registered with this runtime")
        if self._poisoned:
            raise RuntimeError(
                "a failed restore left this runtime in an inconsistent state; "
                "create a new runtime (and retry the restore if desired)"
            )
        if require_open and self._flushed:
            raise RuntimeError(
                "this runtime was flushed; emitted windows cannot be reopened "
                "(start a new runtime, or restore a checkpoint)"
            )

    def process(self, event: Event) -> List[EmissionRecord]:
        """Ingest one (possibly out-of-order) event: a slice of one."""
        return self.process_batch([event])

    def process_batch(
        self,
        events: List[Event],
        emit: Optional[Callable[[EmissionRecord], None]] = None,
    ) -> List[EmissionRecord]:
        """Ingest a slice of (possibly out-of-order) events; return what emits.

        The records, their order, the watermark stamps and the window
        emission timing depend only on the events and their order, never on
        how the stream was cut into slices: every event is pushed through
        the reorder buffer on its own, what the pushes between two window
        edges release is applied as one step (see :meth:`_ingest`; a step
        emits nothing, and the slice's end merely ends it early), and the
        push that reaches an edge is applied alone.  Each step's
        span reaches the executors through :meth:`_route_slice`.  With a
        raising late policy the records the slice's earlier events emitted
        travel on the :class:`~repro.errors.LateEventError` (``.records``).

        ``emit``, when given, is called on each record as soon as the step
        that produced it was applied -- so a window closed by the slice's
        10th event leaves before the rest of the slice is folded -- in
        exactly the order of the returned list, which ``emit`` does not
        change.  Records on a :class:`~repro.errors.LateEventError` were
        emitted already.  ``emit`` must not call back into the runtime:
        a checkpoint taken mid-slice would not match the source offsets.
        """
        self._check_processable()
        records: List[EmissionRecord] = []
        try:
            self._ingest(events, partial(self._apply_push, records, emit))
        except LateEventError as error:
            error.records = records
            raise
        finally:
            self.metrics.record_emission(len(records))
        return records

    def _apply_push(
        self, records: List[EmissionRecord], emit, batch, trace, edge
    ) -> None:
        """Route what one step released, then emit what its watermark closes.

        ``batch`` is a push as the reorder buffer returned it, or the pushes
        of a step folded into one (their released events, the newest
        watermark).  ``edge`` is unused: the executors find their own edges.
        What the step appended to ``records`` goes to ``emit`` (if any)
        before the next step is applied.
        """
        emitted_before = len(records)
        released = batch.released
        if released:
            started = _time.perf_counter()
            if trace is None:
                self._route_slice(released, batch.watermark, records)
            else:
                with trace.child("route", events=len(released)) as route:
                    self._route_slice(released, batch.watermark, records, route)
            self.metrics.record_processing_seconds(_time.perf_counter() - started)
        if batch.advanced:
            if trace is None:
                self._advance_emission(batch.watermark, records)
            else:
                with trace.child("emit", watermark=batch.watermark):
                    self._advance_emission(batch.watermark, records)
        if trace is not None:
            trace.annotate(records=len(records) - emitted_before)
        if emit is not None and len(records) > emitted_before:
            for record in records[emitted_before:]:
                emit(record)

    def _advance_emission(
        self, watermark: float, records: List[EmissionRecord]
    ) -> None:
        """Emit, query by query, the windows ending at or before ``watermark``."""
        advance = self._controller.advance
        for registered in self._queries:
            emitted = advance(registered.name, registered.executor, watermark)
            if emitted:
                registered.instruments.results.inc(len(emitted))
                records.extend(emitted)

    def _route_slice(
        self,
        released: List[Event],
        watermark: float,
        records: List[EmissionRecord],
        span=None,
    ) -> None:
        """Deliver an in-order span to the queries its events can affect.

        The one router, behind the ingest steps, :meth:`process_ordered` and
        :meth:`flush`.  Each query gets the span filtered to its
        ``relevant_types`` (all of it for a broadcast query) in one
        :meth:`QueryExecutor.process_batch` call -- event types may mix, the
        executor binds each event and groups by partition key, and it alone
        cuts the span where *that query's* windows start or end: a boundary
        of one query never fragments the runs of another.  When several
        queries emit inside one span their records are put back into the
        order feeding the span event by event would produce (index of the
        closing event, then registration order).  ``span`` is a sampled
        ``route`` span; each query fed adds an ``execute`` child.
        """
        present = {event.event_type for event in released}
        #: (span index of the closing event, registration order, records)
        closed: List[Tuple[int, int, List[EmissionRecord]]] = []
        for registered in self._queries:
            types = registered.relevant_types
            if registered.broadcast or present <= types:
                events = released
            elif present.isdisjoint(types):
                continue
            else:
                events = [event for event in released if event.event_type in types]
            execute = (
                None
                if span is None
                else span.child("execute", query=registered.name, events=len(events))
            )
            emitting = self._apply_span(registered, events)
            if emitting:
                if events is not released:
                    positions = [
                        index
                        for index, event in enumerate(released)
                        if event.event_type in types
                    ]
                    emitting = [
                        (positions[start], results) for start, results in emitting
                    ]
                collect = self._controller.collect
                for index, results in emitting:
                    emitted = collect(registered.name, results, watermark)
                    closed.append((index, registered.order, emitted))
            if execute is not None:
                execute.finish()
        closed.sort()  # (index, order) is unique: the records are never compared
        for _, _, emitted in closed:
            records.extend(emitted)

    def _apply_span(self, registered: RegisteredQuery, events: List[Event]):
        """Feed one query its share of a span; return what its executor closed."""
        instruments = registered.instruments
        started = _time.perf_counter()
        emitting = registered.executor.process_batch(events)
        instruments.observe_execution_batch(
            len(events), _time.perf_counter() - started, len(emitting)
        )
        instruments.results.inc(sum(len(results) for _, results in emitting))
        return emitting

    def process_ordered(
        self, events: Iterable[Event], watermark: Optional[float] = None
    ) -> List[EmissionRecord]:
        """Apply already-ordered events, then advance emission to ``watermark``.

        This bypasses the reorder buffer and the late-event policy: the
        caller guarantees that ``events`` are in ``(time, sequence)`` order
        and at or above every watermark previously passed here.  It exists
        for deployments where ordering and watermarking happen *once*
        upstream -- the sharded runtime's parent ingestor orders the stream
        and ships watermarked batches to worker processes, each of which
        hosts one of these runtimes -- but works just as well for replaying
        a pre-sorted log without paying for the reorder heap.

        ``watermark=None`` applies the events without advancing emission
        (windows close only when an event walks past their end), mirroring
        an ingestor push that released events without moving the watermark.
        """
        self._check_processable()
        records: List[EmissionRecord] = []
        context = (
            self._ordered_watermark
            if watermark is None
            else max(watermark, self._ordered_watermark)
        )
        if not isinstance(events, list):
            events = list(events)
        count = len(events)
        if count:
            started = _time.perf_counter()
            self._route_slice(events, context, records)
            self.metrics.record_release(count)
            self.metrics.record_processing_seconds(_time.perf_counter() - started)
        if watermark is not None and watermark > self._ordered_watermark:
            self._ordered_watermark = watermark
            self.metrics.record_watermark(watermark)
            self._advance_emission(watermark, records)
        self.metrics.record_emission(len(records))
        return records

    def flush(self) -> List[EmissionRecord]:
        """Drain the reorder buffer and close every open window."""
        self._check_processable(require_open=False)
        records: List[EmissionRecord] = []
        remaining = self._ingestor.drain()
        if remaining:
            self.metrics.record_release(len(remaining))
            started = _time.perf_counter()
            # drained events run past the watermark; windows they close
            # are end-of-stream emissions, so the record context is inf
            # (a stale finite watermark would violate wm >= window_end)
            self._route_slice(remaining, math.inf, records)
            self.metrics.record_processing_seconds(_time.perf_counter() - started)
        for registered in self._queries:
            closed = self._controller.close(registered.name, registered.executor)
            if closed:
                registered.instruments.results.inc(len(closed))
                records.extend(closed)
        self.metrics.record_emission(len(records))
        self._flushed = True
        return records

    def drain_pending(self) -> List[EmissionRecord]:
        """Records merged outside :meth:`process` calls -- none here.

        Exists so the :class:`PipelineDriver` loop can treat this runtime
        and the asynchronous :class:`~repro.streaming.sharded.ShardedRuntime`
        uniformly.
        """
        return []

    # -- introspection ---------------------------------------------------------

    def reprocess_late(self) -> List[EmissionRecord]:
        """Replay the side channel; emit correction records for its windows.

        The late events' windows were already emitted (and their aggregate
        state evicted), so they cannot be recomputed in place.  Instead the
        drained events are replayed through a fresh runtime hosting the
        same queries (via :meth:`process_ordered` -- the events are sorted
        first) and the resulting window results are re-emitted flagged
        ``is_correction=True``: each record carries the late events'
        *additional* contribution to an already-published window, for the
        consumer to merge (COUNT/SUM add, MIN/MAX combine).  Trends that
        would have interleaved late and on-time events are beyond what an
        evicted window can recover -- the record patches, it does not
        replace.

        Returns ``[]`` when the side channel is empty.  Usable while the
        stream is live and after :meth:`flush`.  Raises
        :class:`~repro.errors.ConfigError` for count-windowed queries
        (:meth:`_check_late_replay`).
        """
        self._check_processable(require_open=False)
        self._check_late_replay()
        late = self._ingestor.take_side_channel()
        if not late:
            return []
        replay = StreamingRuntime(lateness=0.0)
        for registered in self._queries:
            replay.register(
                CograEngine(
                    registered.engine.query,
                    emit_empty_groups=registered.engine._emit_empty_groups,
                    granularity=registered.engine.granularity,
                ),
                name=registered.name,
            )
        return replay_corrections(replay, late, self.watermark, self.metrics)

    def storage_units(self) -> int:
        """Stored scalar aggregates across every registered executor."""
        return sum(r.executor.storage_units() for r in self._queries)

    # -- checkpointing ---------------------------------------------------------

    def checkpoint(self) -> Dict[str, object]:
        """Snapshot the entire runtime state as JSON-safe primitives.

        The snapshot does not embed the query definitions themselves -- like
        restoring a stream-processing job from a savepoint, the caller
        recreates the runtime with the same registered queries and then
        calls :meth:`restore`.
        """
        return self._checkpoint_cut()

    def _checkpoint_cut(self) -> Dict[str, object]:
        """The snapshot a periodic save writes: here :meth:`checkpoint`'s dict."""
        if self._flushed:
            raise CheckpointError("cannot checkpoint a runtime that was flushed")
        if self._poisoned:
            raise CheckpointError(
                "cannot checkpoint a runtime whose restore failed mid-way"
            )
        started = _time.perf_counter()
        state = {
            "version": CHECKPOINT_VERSION,
            "queries": query_header((r.name, r.engine) for r in self._queries),
            "executors": {
                r.name: snapshot_executor(r.executor) for r in self._queries
            },
            "ingest": self._ingestor.snapshot(),
            "metrics": self.metrics.snapshot(),
            "emitted_counts": dict(self._controller.emitted_counts),
            "registry": self.observability.registry.snapshot(),
        }
        self._observe_lifecycle("checkpoint", _time.perf_counter() - started)
        return state

    def restore(self, state: Dict[str, object]) -> None:
        """Restore a snapshot into this runtime.

        The runtime must have the same queries registered (same names, same
        order, same granularities) as the runtime the snapshot was taken
        from; anything else raises :class:`~repro.errors.CheckpointError`.
        """
        recorded = checkpointed_queries(state)
        check_query_identity(
            recorded, query_header((r.name, r.engine) for r in self._queries)
        )
        started = _time.perf_counter()
        try:
            for registered in self._queries:
                registered.engine.reset()
                restore_executor(
                    registered.executor, state["executors"][registered.name]
                )
            self._ingestor.restore(state["ingest"])
            # old checkpoints carry no registry section; restore(None)
            # resets the instruments instead of failing.  The metrics
            # section goes second: older registries lack the runtime families
            self.observability.registry.restore(state.get("registry"))
            self.metrics.restore(state["metrics"])
            self._controller.emitted_counts = {
                name: int(count) for name, count in state["emitted_counts"].items()
            }
        except Exception as exc:
            # a failure mid-application leaves some executors restored and
            # others fresh; poison the runtime so the inconsistent state can
            # never silently process events
            self._poisoned = True
            if isinstance(exc, CheckpointError):
                raise
            # corrupt or hand-edited snapshots surface data errors of many
            # shapes; the documented contract is a single error class
            raise CheckpointError(f"cannot restore checkpoint: {exc}") from exc
        self._poisoned = False
        self._flushed = False
        # ordered-mode emission resumes from the restored watermark
        self._ordered_watermark = self.metrics.watermark
        self._observe_lifecycle("restore", _time.perf_counter() - started)

    def registry_snapshot(self) -> Dict[str, object]:
        """The observability registry, for the exporters.

        It holds the runtime families of :attr:`metrics` and the per-query
        and lifecycle instruments; the per-query selectivity gauges are
        derived from its counters.
        """
        return finalize_snapshot(self.observability.registry.snapshot())

    def close(self) -> None:
        """Release resources held by the runtime (the tracer's sink).

        Exists so callers can treat :class:`StreamingRuntime` and
        :class:`~repro.streaming.sharded.ShardedRuntime` (which must stop
        its worker processes) uniformly.
        """
        self.observability.close()

    def __repr__(self) -> str:
        return (
            f"StreamingRuntime({len(self._queries)} queries, "
            f"watermark={self._ingestor.watermark:g}, buffered={len(self._ingestor)})"
        )


def group_results(
    records: Iterable[EmissionRecord], query: Optional[str] = None
) -> List[GroupResult]:
    """Extract plain :class:`GroupResult`s from emission records."""
    return [
        record.result
        for record in records
        if query is None or record.query == query
    ]
