"""Multi-process sharded streaming runtime (Sections 7-8, "Parallel Processing").

Equivalence predicates and the GROUP-BY clause partition the stream into
sub-streams that never interact, so they can be processed on different CPU
cores -- and a sub-stream's aggregates can be moved between cores without
touching any other.  :class:`ShardedRuntime` is built on those two facts:

* the **parent** applies out-of-order ingestion exactly once -- one
  :class:`~repro.streaming.ingest.OutOfOrderIngestor` restores order,
  generates watermarks and handles late events -- and routes every released
  event to the worker owning its partition key (``plan.partition_key``
  hashed into the slots of a :class:`~repro.streaming.routing.ShardRouter`,
  a versioned slot -> worker map);
* each **worker process** hosts a full
  :class:`~repro.streaming.runtime.StreamingRuntime` for the registered
  queries and consumes already-ordered, watermarked batches through
  :meth:`~repro.streaming.runtime.StreamingRuntime.process_ordered`;
* emitted windows travel back over the worker's acknowledgement pipe and
  are **merged in watermark order**: batches are numbered (epochs) and an
  epoch's records are released only once every earlier epoch is complete.
  An acknowledgement is whatever the operation of its epoch says it is --
  records for a batch, a payload filed per shard for everything else.

**Transport**: each worker incarnation owns two one-way pipes, an inbox and
an acknowledgement pipe, and holds the only copy of its ends of both.  The
parent's main thread does all of its I/O -- no helper threads: it writes
length-prefixed pickled frames on a non-blocking inbox (what does not fit
waits in a per-shard backlog) and one ``poll`` loop over acknowledgement
pipes, backlogged inboxes and process sentinels reads acknowledgements,
drains backlogs and notices dead workers.  A worker killed mid-write ends
in an end-of-file on its acknowledgement pipe, never in a read blocked on a
truncated frame, and a full inbox never blocks the parent while that worker
waits for its acknowledgements to be read.

**One primitive moves state**: quiesce in-flight work behind the last
shipped watermark, collect every worker's slice of the state, mutate the
slices, record them as the *recovery baseline*, restore the affected
workers onto theirs (``_migrate``).  Its callers differ only in the
mutation:

* **rebalancing** (:class:`~repro.streaming.routing.RebalancePolicy`, the
  ``shards.rebalance.*`` fields of
  :class:`~repro.streaming.config.JobConfig`, ``cogra stream --rebalance``)
  swaps router entries when one worker's load reaches the skew threshold
  and re-homes the aggregator entries under the new map; only the workers
  that lose or gain a slot are restored, and events still buffered in the
  parent are re-routed under the new map;
* **re-planning** (:mod:`repro.streaming.replan`) relabels the migrated
  queries' granularity and broadcasts the plan swap instead of a restore;
* :meth:`ShardedRuntime.restore` has nothing to collect: the slices are
  the given snapshot split under this runtime's topology, every worker is
  restored;
* **worker recovery** (``max_restarts > 0``) is the one-shard case: a
  worker that dies (OOM kill, segfault, uncaught error) is respawned,
  restored onto its slice of the baseline exactly as recorded, and sent
  the batches shipped since from a parent-side replay buffer -- results
  are identical to a run that never crashed (acknowledgements of replayed
  work are deduplicated against what the dead incarnation already
  delivered).  With ``max_restarts=0`` the run aborts with a
  :class:`~repro.errors.WorkerCrashError` instead.

:meth:`ShardedRuntime.checkpoint` is the collection without a mutation: the
slices become the baseline as collected (trimming the replay buffers, so
periodic checkpoints -- :meth:`~repro.streaming.runtime.PipelineDriver.run`
with a :class:`~repro.streaming.checkpoint.CheckpointStore` -- bound both
recovery time and parent memory) and are composed into one snapshot in the
*same versioned schema* :class:`~repro.streaming.runtime.StreamingRuntime`
writes: a sharded checkpoint restores into a single-process runtime, a
single-process checkpoint restores into any worker count, and worker counts
can change between checkpoint and restore.  The router travels inside every
checkpoint, so ``--recover`` resumes the post-migration topology, not the
seed one.

Queries without partition attributes cannot be sharded (every event maps to
the same key); the runtime then falls back to a single shard and records the
reason in :attr:`ShardedRuntime.fallback_reason`.

Example
-------
::

    runtime = ShardedRuntime(workers=4, lateness=5.0)
    runtime.register(query_text, name="q")
    for event in source:
        for record in runtime.process(event):
            publish(record.query, record.result)
    for record in runtime.flush():
        publish(record.query, record.result)
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import select
import struct
import time as _time
import traceback
import warnings
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.analyzer.granularity import Granularity
from repro.core.engine import CograEngine
from repro.core.partitioner import shard_index, single_shard_reason
from repro.core.results import GroupResult
from repro.errors import CheckpointError, LateEventError, WorkerCrashError
from repro.events.event import Event
from repro.events.stream import sort_events
from repro.query.parser import parse_query
from repro.query.query import Query
from repro.query.windows import WindowSpec
from repro.streaming.checkpoint import (
    CHECKPOINT_VERSION,
    check_query_identity,
    checkpointed_queries,
    merge_executor_snapshots,
    query_header,
    rehome_executor_snapshots,
    restore_executor,
    snapshot_executor,
    split_executor_snapshot,
)
from repro.streaming.config import (
    BackpressureConfig,
    LatenessConfig,
    RebalanceConfig,
    ShardConfig,
    WatermarkConfig,
)
from repro.streaming.emission import EmissionRecord
from repro.streaming.ingest import (
    LatePolicy,
    OutOfOrderIngestor,
    WatermarkStrategy,
)
from repro.streaming.metrics import StreamingMetrics
from repro.streaming.observability import (
    Observability,
    ShardInstruments,
    finalize_snapshot,
    merge_snapshots,
)
from repro.streaming.replan import (
    ReplanController,
    merge_raw_observations,
    migrate_engine,
    observe_executor,
    observe_instruments,
    resolve_replan_policy,
)
from repro.streaming.routing import RebalancePolicy, ShardRouter, ShardStats
from repro.streaming.runtime import (
    PipelineDriver,
    StreamingRuntime,
    replay_corrections,
)

#: how long the parent waits for worker liveness before declaring a hang
ACK_TIMEOUT_SECONDS = 120.0

#: epoch-space offset marking replayed operations: a batch originally
#: shipped as epoch ``e`` is re-sent after a worker restart as epoch
#: ``-(e + _REPLAY_OFFSET)``, so its acknowledgement can be matched to the
#: original epoch -- or discarded when the dead incarnation's ack already
#: arrived.  Values above the offset stay free for sentinels (-1 is the
#: ready handshake, -2 the out-of-band recovery restore).
_REPLAY_OFFSET = 10
_RECOVERY_RESTORE_EPOCH = -2

#: how long close() lets the workers finish before terminating them
_STOP_SECONDS = 5.0


def _frame(message) -> bytes:
    """``message`` pickled behind the length header ``Connection.recv_bytes`` reads."""
    body = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(body) > 0x7FFFFFFF:
        return struct.pack("!iQ", -1, len(body)) + body
    return struct.pack("!i", len(body)) + body


def _encode_event_blob(events: List[Event]) -> bytes:
    """Serialize a wave of events as one pre-pickled blob.

    The wire form is a list of plain ``(event_type, time, attributes,
    sequence)`` tuples: pickling tuples of primitives is much cheaper than
    pickling ``Event`` objects through ``__reduce__`` (one global lookup and
    constructor call per event on both ends), and decoding goes through the
    trusted :meth:`Event.from_wire` fast path.
    """
    return pickle.dumps(
        [
            (event.event_type, event.time, event.attributes, event.sequence)
            for event in events
        ],
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def _decode_event_blob(blob: bytes) -> List[Event]:
    """Rebuild the events of one :func:`_encode_event_blob` wave."""
    from_wire = Event.from_wire
    return [
        from_wire(event_type, time, attributes, sequence)
        for event_type, time, attributes, sequence in pickle.loads(blob)
    ]


def _encode_record_blob(records: List[EmissionRecord]) -> bytes:
    """Serialize one acknowledgement's emission records as a single blob."""
    return pickle.dumps(
        [
            (
                record.query,
                (
                    result.window_id,
                    result.window_start,
                    result.window_end,
                    result.group,
                    result.values,
                    result.trend_count,
                ),
                record.watermark,
                record.is_correction,
            )
            for record in records
            for result in (record.result,)
        ],
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def _decode_record_blob(blob: bytes) -> List[EmissionRecord]:
    """Rebuild the records of one :func:`_encode_record_blob` payload."""
    return [
        EmissionRecord(query, GroupResult(*result), watermark, is_correction)
        for query, result, watermark, is_correction in pickle.loads(blob)
    ]


class _QuerySpec:
    """Everything a worker needs to register one query (picklable)."""

    __slots__ = ("name", "query", "granularity", "emit_empty_groups")

    def __init__(
        self,
        name: str,
        query: Query,
        granularity: Optional[str],
        emit_empty_groups: bool,
    ):
        self.name = name
        self.query = query
        self.granularity = granularity
        self.emit_empty_groups = emit_empty_groups


def _build_worker_runtime(
    specs: List[_QuerySpec], observability: Optional[Observability] = None
) -> StreamingRuntime:
    """The runtime a worker process hosts: same queries, no reorder buffer.

    The parent already ordered and watermarked the stream, so the worker
    consumes it via :meth:`StreamingRuntime.process_ordered`; the worker's
    own ingestor stays empty and its lateness bound is irrelevant.
    """
    runtime = StreamingRuntime(lateness=0.0, observability=observability)
    for spec in specs:
        runtime.register(
            spec.query,
            name=spec.name,
            granularity=spec.granularity,
            emit_empty_groups=spec.emit_empty_groups,
        )
    return runtime


def _worker_loop(
    shard: int,
    specs: List[_QuerySpec],
    inbox,
    outbox,
) -> None:
    """Body of one worker process.

    Consumes pickled operation tuples from ``inbox`` (``recv_bytes``) until
    the ``None`` sentinel and acknowledges every operation on ``outbox``
    (``send_bytes``, one pickled tuple each) as ``("ok", epoch, shard,
    payload, processing_seconds)`` or ``("error", epoch, shard, traceback)``.
    Takes the two connection ends as arguments so tests can run it
    synchronously in process over pre-loaded pipes.

    The parent ships each wave's events as one pre-pickled blob
    (:func:`_encode_event_blob`) decoded here once per wave, and this worker
    blob-encodes the emission records of its batch and flush
    acknowledgements the same way; an empty wave or acknowledgement travels
    as the empty list.

    The worker's observability counts events/matches/latency but *not*
    results (``count_results=False``): emitted records ship to the parent,
    which counts each exactly once after replay deduplication.  Checkpoint
    payloads carry the worker registry so the parent can merge the sharded
    metric view and restore it across recoveries.
    """

    def reply(ack: tuple) -> None:
        outbox.send_bytes(pickle.dumps(ack, protocol=pickle.HIGHEST_PROTOCOL))

    try:
        runtime = _build_worker_runtime(specs, Observability(count_results=False))
    except Exception:
        reply(("error", -1, shard, traceback.format_exc()))
        return
    reply(("ok", -1, shard, "ready", 0.0))
    while True:
        try:
            message = pickle.loads(inbox.recv_bytes())
        except EOFError:  # the parent is gone
            break
        if message is None:
            break
        op, epoch = message[0], message[1]
        try:
            started = _time.perf_counter()
            if op == "batch":
                events, watermark = message[2], message[3]
                if events:
                    events = _decode_event_blob(events)
                records = runtime.process_ordered(events, watermark)
                if records:
                    records = _encode_record_blob(records)
                reply(
                    ("ok", epoch, shard, records, _time.perf_counter() - started)
                )
            elif op == "flush":
                # final events run past the watermark, exactly like the
                # single-process flush routing drained events at +inf; the
                # +inf advance then closes every remaining window
                events = message[2]
                if events:
                    events = _decode_event_blob(events)
                records = runtime.process_ordered(events, math.inf)
                records.extend(runtime.flush())
                if records:
                    records = _encode_record_blob(records)
                reply(
                    ("ok", epoch, shard, records, _time.perf_counter() - started)
                )
            elif op == "checkpoint":
                payload = {
                    "executors": {
                        r.name: snapshot_executor(r.executor)
                        for r in runtime._queries
                    },
                    "registry": runtime.observability.registry.snapshot(),
                }
                reply(("ok", epoch, shard, payload, 0.0))
            elif op == "metrics":
                # a pure registry pull (no executor snapshot): the parent's
                # registry_snapshot() merges these into the live view
                payload = {"registry": runtime.observability.registry.snapshot()}
                reply(("ok", epoch, shard, payload, 0.0))
            elif op == "restore":
                executors = message[2]
                for registered in runtime._queries:
                    registered.engine.reset()
                    if registered.name in executors:
                        restore_executor(
                            registered.executor, executors[registered.name]
                        )
                runtime._flushed = False
                # recovery restores pass the checkpoint watermark so replayed
                # batches resume emission exactly where the dead incarnation
                # stood; plain restores start from scratch (the parent
                # re-advances with the next shipped watermark)
                watermark = message[3] if len(message) > 3 else None
                runtime._ordered_watermark = (
                    -math.inf if watermark is None else float(watermark)
                )
                # the optional fifth element steers the worker registry:
                # absent/None keeps it (migrations -- counts are cumulative
                # per worker), "reset" zeroes it (full restore: the parent's
                # base snapshot already holds this worker's share), a dict
                # restores a recovered incarnation to its checkpointed view
                registry_action = message[4] if len(message) > 4 else None
                if registry_action == "reset":
                    runtime.observability.registry.reset()
                elif isinstance(registry_action, dict):
                    runtime.observability.registry.restore(registry_action)
                reply(("ok", epoch, shard, None, 0.0))
            elif op == "observe":
                # raw replan statistics per query; the parent merges the
                # shard views and decides centrally (repro.streaming.replan)
                payload = {
                    "observe": {
                        registered.name: observe_instruments(
                            observe_executor(registered.executor),
                            registered.instruments,
                        )
                        for registered in runtime._queries
                    }
                }
                reply(("ok", epoch, shard, payload, 0.0))
            elif op == "replan":
                # live granularity migration, parent-coordinated: arrives
                # between shipped waves, so the local executor is quiescent
                name, granularity = message[2], message[3]
                migrate_engine(runtime._by_name[name].engine, granularity)
                reply(
                    ("ok", epoch, shard, None, _time.perf_counter() - started)
                )
            else:
                raise ValueError(f"unknown worker operation {op!r}")
        except Exception:
            reply(("error", epoch, shard, traceback.format_exc()))
            # the runtime state after a failed operation is unknown; stop
            # consuming so the parent sees the shard as failed, not stuck
            break


def _worker_main(
    shard: int, specs: List[_QuerySpec], inbox, outbox, parent_ends
) -> None:
    """Entry point of a worker process: :func:`_worker_loop` on its pipe ends.

    A forked worker also inherits the parent's ends of its two pipes.  It
    closes them, so the parent is the only writer of its inbox and the only
    reader of its acknowledgements: a worker whose parent died reads
    end-of-file and stops instead of waiting on its inbox for good.
    """
    for end in parent_ends:
        end.close()
    _worker_loop(shard, specs, inbox, outbox)


class _Epoch:
    """One shipped wave of work and the acknowledgements it still awaits."""

    __slots__ = ("pending", "records", "payloads", "op", "sent_at")

    def __init__(self, pending: set, op: str = "batch") -> None:
        self.pending = pending
        #: what the shards answered: emission records of a batch/flush,
        #: the per-shard payload of every other operation
        self.records: List[EmissionRecord] = []
        self.payloads: Dict[int, object] = {}
        self.op = op
        #: monotonic shipment time, feeding the per-shard ship-latency
        #: histograms when the acknowledgements come back
        self.sent_at = _time.perf_counter()


class ShardedRuntime(PipelineDriver):
    """Executes registered queries across worker processes, one per hash-range.

    Parameters
    ----------
    workers:
        Number of worker processes (hash-ranges of partition keys).  Forced
        to 1 -- with a diagnostic in :attr:`fallback_reason` -- when the
        registered queries cannot be sharded consistently.
    lateness / watermark_strategy / late_policy / emit_empty_groups:
        As on :class:`~repro.streaming.runtime.StreamingRuntime`; ingestion
        happens once, in the parent.
    ship_interval:
        How many released events to coalesce before shipping a wave (with
        the newest watermark) to the workers, checked at the end of each
        ingest step.  Whatever it is, the push reaching a window edge, in
        time or in event ordinals, ships at once with its own watermark, so
        every record carries the same watermark stamp as in a single-process
        run (record *order* within a wave is canonical -- window, then group,
        then query -- so multi-query jobs may interleave differently).
        Smaller values only hand events to the workers sooner.
    max_batch:
        Outbox bound: a shard's pending events are shipped at the end of the
        step in which they reach this size, even when ``ship_interval`` has
        not elapsed.
    max_restarts:
        How many times each shard's worker may be respawned after a crash
        before the run aborts with
        :class:`~repro.errors.WorkerCrashError`.  ``0`` (the default)
        keeps the historical fail-fast behaviour.  With restarts enabled
        the parent buffers every batch shipped since the last checkpoint
        for replay -- take periodic checkpoints (e.g. via
        :meth:`~repro.streaming.runtime.PipelineDriver.run` with a
        checkpoint store) to keep that buffer bounded.
    start_method:
        Optional :mod:`multiprocessing` start method (default: ``fork``
        when available, the platform default otherwise).
    rebalance:
        Adaptive shard rebalancing: a :class:`RebalancePolicy`, a
        :class:`~repro.streaming.config.RebalanceConfig`, a raw settings
        mapping (the ``shards.rebalance.*`` JobConfig section), or ``None``
        to keep the static seed routing.  Forced cycles via
        :meth:`rebalance` work either way.
    max_inflight:
        Bounded worker inboxes (backpressure): at most this many shipped
        epochs may await worker acknowledgement before ingestion blocks.
        The block is accounted as ``backpressure_waits`` /
        ``backpressure_seconds`` in :attr:`metrics`.  Mirrors the
        ``backpressure.max_inflight`` JobConfig field.
    replan:
        Adaptive granularity re-planning: a
        :class:`~repro.streaming.replan.ReplanPolicy`, a
        :class:`~repro.streaming.config.ReplanConfig`, a mapping of its
        fields, or ``None``/disabled to keep the planned granularities.
        The parent merges the workers' observed statistics, re-evaluates
        the cost model, and broadcasts plan swaps between shipped waves;
        results are unchanged (see :mod:`repro.streaming.replan`).
    """

    def __init__(
        self,
        workers: int = 2,
        lateness: float = 0.0,
        watermark_strategy: Optional[WatermarkStrategy] = None,
        late_policy: Union[LatePolicy, str, None] = None,
        emit_empty_groups: bool = False,
        ship_interval: int = 64,
        max_batch: int = 512,
        max_restarts: int = 0,
        start_method: Optional[str] = None,
        rebalance: Union["RebalancePolicy", RebalanceConfig, Dict, None] = None,
        max_inflight: int = 64,
        observability: Optional[Observability] = None,
        replan=None,
    ):
        # the kwargs are one corner of the declarative JobConfig API: the
        # component specs own validation and defaults (ConfigError is a
        # ValueError, so callers catching the historical type keep working)
        if isinstance(rebalance, RebalancePolicy):
            rebalance = rebalance.as_config()
        shards = ShardConfig(
            workers=workers,
            ship_interval=ship_interval,
            max_batch=max_batch,
            max_restarts=max_restarts,
            start_method=start_method,
            rebalance=RebalanceConfig() if rebalance is None else rebalance,
        )
        late = LatenessConfig.of(late_policy)
        self.workers = shards.workers
        strategy = watermark_strategy or WatermarkConfig(lateness=lateness).build()
        self._ingestor = OutOfOrderIngestor(strategy, late.resolved_policy)
        #: parent-side observability: the runtime families of ``metrics``,
        #: per-shard shipping instruments, lifecycle timers/spans, and the
        #: results counters (workers count events/matches/latency; the
        #: parent counts results exactly once, after replay deduplication)
        self.observability = observability or Observability()
        self.metrics = StreamingMetrics(observability=self.observability)
        self._emit_empty_groups = emit_empty_groups
        self._ship_interval = ship_interval
        self._max_batch = max_batch
        #: epochs allowed in flight before ingestion blocks on worker acks
        #: (validated by the owning BackpressureConfig section)
        self._max_inflight = BackpressureConfig(max_inflight=max_inflight).max_inflight
        #: events released into the outboxes since the last wave
        self._events_since_ship = 0
        #: newest watermark not yet delivered to the workers, if any
        self._pending_watermark: Optional[float] = None
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self._context = multiprocessing.get_context(start_method)

        self._specs: List[_QuerySpec] = []
        self._engines: Dict[str, CograEngine] = {}
        self._windows: Dict[str, WindowSpec] = {}
        #: the plan whose partition_key routes events (set at start)
        self._routing_plan = None
        self.shard_count = 0
        #: why sharding degraded to a single shard, or None
        self.fallback_reason: Optional[str] = None

        #: the rebalance decision rules (disabled policies still serve
        #: forced :meth:`rebalance` calls and the router granularity)
        self._policy = RebalancePolicy.from_config(shards.rebalance)
        #: the versioned range->worker map (built at start)
        self._router: Optional[ShardRouter] = None
        #: events routed per hash slot since the last rebalance cycle
        self._slot_loads: List[int] = []
        self._events_since_rebalance_check = 0
        #: newest watermark actually delivered to the workers (migrations
        #: quiesce behind it; ``-inf`` until the first advance ships)
        self._shipped_watermark = -math.inf
        #: human-readable log of slot migrations, newest last
        self.rebalance_log: List[str] = []

        #: the adaptive granularity control loop (None when disabled); the
        #: parent observes the merged shard statistics, decides against the
        #: observed cost model and broadcasts plan swaps between shipped
        #: waves -- workers never re-plan on their own
        self._replan_policy = resolve_replan_policy(replan)
        self._replan_controller = (
            ReplanController(self._replan_policy)
            if self._replan_policy is not None
            else None
        )

        self._procs: List = []
        #: per worker incarnation, the parent's ends of its two one-way
        #: pipes: the inbox writer (non-blocking; frames that do not fit
        #: wait in the shard's backlog) and the acknowledgement reader.  The
        #: worker holds the only other ends, so its death -- even mid-write
        #: -- is an end-of-file here; recovery opens fresh pipes
        self._inboxes: List = []
        self._acks: List = []
        self._backlogs: List[bytearray] = []
        #: the one I/O loop's poll set: acknowledgement readers and process
        #: sentinels always, inbox writers while their backlog is non-empty
        self._poller = select.poll()
        #: polled descriptor -> shard, readers (ack pipes, sentinels) and
        #: inbox writers apart
        self._reader_fds: Dict[int, int] = {}
        self._writer_fds: Dict[int, int] = {}
        self._started = False
        self._flushed = False
        self._poisoned = False
        self._epoch = 0
        self._inflight: Dict[int, _Epoch] = {}
        self._outboxes: List[List[Event]] = []
        self._ready_records: List[EmissionRecord] = []
        self._emitted_counts: Dict[str, int] = {}
        self.shard_stats: List[ShardStats] = []
        #: cached per-shard instrument bundles
        self._shard_instruments: List[ShardInstruments] = []
        #: worker registries pulled during flush(), so registry_snapshot()
        #: keeps the complete merged view after the workers are gone
        self._final_worker_registries: Optional[List[dict]] = None

        self.max_restarts = max_restarts
        #: per-shard count of worker respawns so far
        self.restart_counts: List[int] = []
        #: human-readable log of recoveries, newest last (see shard_report)
        self.recovery_log: List[str] = []
        #: per-shard batch/flush messages shipped since the last checkpoint,
        #: kept for replay after a worker restart (only with max_restarts)
        self._replay: List[List[tuple]] = []
        #: what a restarted worker resumes from: the slices the live workers
        #: held at the last consistent cut -- ``{shard: {"executors": ...,
        #: "registry": snapshot or "reset"}}`` -- and the watermark shipped
        #: by then (None until the first checkpoint, migration or restore)
        self._baseline: Optional[Tuple[Dict[int, dict], Optional[float]]] = None
        #: shards currently being recovered; a repeat failure inside its own
        #: recovery is fatal instead of recursing forever
        self._recovering: set = set()
        #: special acks read by one wait loop on behalf of another
        self._held_acks: List[tuple] = []

    # -- registration ----------------------------------------------------------

    def register(
        self,
        query: Union[Query, str],
        name: Optional[str] = None,
        granularity=None,
        emit_empty_groups: Optional[bool] = None,
    ) -> str:
        """Attach a query (text or :class:`~repro.query.query.Query`).

        Mirrors :meth:`StreamingRuntime.register`, except that prepared
        :class:`CograEngine` instances are rejected: engines own in-process
        executor state that cannot be shipped to worker processes.
        """
        if isinstance(query, CograEngine):
            raise TypeError(
                "a prepared CograEngine cannot back a sharded query (its "
                "executor state lives in this process); register the query "
                "text or Query object instead"
            )
        if self._started:
            raise RuntimeError(
                "queries must be registered before the first event is ingested"
            )
        if isinstance(query, str):
            query = parse_query(query)
        flag = (
            self._emit_empty_groups if emit_empty_groups is None else emit_empty_groups
        )
        # building the engine here validates the query, resolves the
        # granularity the same way the workers will, and gives the parent
        # the plan it routes with and the definition text checkpoints record
        engine = CograEngine(query, emit_empty_groups=flag, granularity=granularity)
        name = name or engine.query.name
        if name in self._engines:
            raise ValueError(f"a query named {name!r} is already registered")
        self._specs.append(_QuerySpec(name, query, granularity, flag))
        self._engines[name] = engine
        if engine.query.window is not None:
            self._windows[name] = engine.query.window
        return name

    @property
    def query_names(self) -> List[str]:
        """Names of the registered queries, in registration order."""
        return [spec.name for spec in self._specs]

    # -- worker lifecycle ------------------------------------------------------

    def _resolve_shard_count(self) -> int:
        """Workers the stream can actually use, with the fallback diagnostic."""
        queries = {}
        for name, engine in self._engines.items():
            window = engine.query.window
            counted = window is not None and window.is_count_based
            queries[name] = (engine.plan.partition_attributes, counted)
        self.fallback_reason = single_shard_reason(queries)
        if self.fallback_reason is not None:
            if self.workers > 1:
                warnings.warn(self.fallback_reason, RuntimeWarning, stacklevel=3)
            return 1
        return self.workers

    def _start(self) -> None:
        """Spawn the worker processes and wait for their ready handshakes."""
        if not self._specs:
            raise RuntimeError("no queries are registered with this runtime")
        self.shard_count = self._resolve_shard_count()
        self._routing_plan = self._engines[self._specs[0].name].plan
        self._outboxes = [[] for _ in range(self.shard_count)]
        self.shard_stats = [ShardStats() for _ in range(self.shard_count)]
        self._shard_instruments = [
            self.observability.shard_instruments(shard)
            for shard in range(self.shard_count)
        ]
        self.restart_counts = [0] * self.shard_count
        self._replay = [[] for _ in range(self.shard_count)]
        self._router = ShardRouter(self.shard_count, self._policy.slots_per_worker)
        self._slot_loads = [0] * self._router.slots
        self._events_since_rebalance_check = 0
        self._shipped_watermark = -math.inf
        self._procs = [None] * self.shard_count
        self._inboxes = [None] * self.shard_count
        self._acks = [None] * self.shard_count
        self._backlogs = [bytearray() for _ in range(self.shard_count)]
        for shard in range(self.shard_count):
            self._spawn(shard)
        self._started = True
        ready = set()
        while len(ready) < self.shard_count:
            ack = self._next_ack()
            if ack[1] != -1 or ack[3] != "ready":
                raise WorkerCrashError(
                    f"unexpected worker handshake {ack[:2]!r}", shard=ack[2]
                )
            ready.add(ack[2])

    def _spawn(self, shard: int) -> None:
        """Start ``shard``'s worker process on two fresh one-way pipes."""
        inbox_reader, inbox = self._context.Pipe(duplex=False)
        acks, ack_writer = self._context.Pipe(duplex=False)
        restarts = self.restart_counts[shard]
        proc = self._context.Process(
            target=_worker_main,
            args=(shard, self._specs, inbox_reader, ack_writer, (inbox, acks)),
            daemon=True,
            name=f"cogra-shard-{shard}" + (f"-r{restarts}" if restarts else ""),
        )
        proc.start()
        # the worker now holds the only copies of its ends, so its exit --
        # even halfway through writing a frame -- ends ``acks``
        inbox_reader.close()
        ack_writer.close()
        os.set_blocking(inbox.fileno(), False)
        self._procs[shard] = proc
        self._inboxes[shard] = inbox
        self._acks[shard] = acks
        self._backlogs[shard] = bytearray()
        for fd in (acks.fileno(), proc.sentinel):
            self._reader_fds[fd] = shard
            self._poller.register(fd, select.POLLIN)
        self._writer_fds[inbox.fileno()] = shard

    def _close_pipes(self, shard: int) -> None:
        """Stop polling ``shard``'s pipes and close the parent's ends (idempotent).

        Unsent backlog goes with them: a worker is only abandoned when it
        is dead or stopping.
        """
        acks, inbox = self._acks[shard], self._inboxes[shard]
        if acks is None:
            return
        for fd in (acks.fileno(), self._procs[shard].sentinel):
            del self._reader_fds[fd]
            self._poller.unregister(fd)
        if self._backlogs[shard]:
            self._poller.unregister(inbox.fileno())
            self._backlogs[shard] = bytearray()
        del self._writer_fds[inbox.fileno()]
        acks.close()
        inbox.close()
        self._acks[shard] = self._inboxes[shard] = None

    def close(self) -> None:
        """Stop the worker processes (idempotent).

        Called by :meth:`flush` on success and by users on error paths; a
        closed runtime cannot process further events.
        """
        self.observability.close()
        if not self._started:
            self._started = True  # a closed runtime must not restart lazily
            self._poisoned = True
            return
        for shard, inbox in enumerate(self._inboxes):
            if inbox is not None:
                self._send(shard, None)
        # deliver the stop sentinels, dropping whatever the workers still
        # acknowledge, until every acknowledgement pipe has ended
        deadline = _time.monotonic() + _STOP_SECONDS
        while self._reader_fds and _time.monotonic() < deadline:
            ack = self._poll_io(deadline - _time.monotonic())
            if ack is not None and ack[0] == "exit":
                self._close_pipes(ack[2])
        for shard, proc in enumerate(self._procs):
            proc.join(timeout=max(deadline - _time.monotonic(), 1.0))
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=5.0)
            self._close_pipes(shard)
        self._procs = []
        self._inboxes = []
        self._acks = []
        self._backlogs = []

    def __enter__(self) -> "ShardedRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            for proc in self._procs:
                if proc.is_alive():
                    proc.terminate()
        except Exception:
            pass

    # -- parent-side messaging -------------------------------------------------

    def _fail(self, message: str, shard: Optional[int], exitcode=None) -> None:
        self._poisoned = True
        error = WorkerCrashError(message, shard=shard, exitcode=exitcode)
        self.close()
        raise error

    def _send(self, shard: int, message) -> None:
        """Frame ``message`` onto ``shard``'s inbox without ever blocking.

        What the pipe does not take now waits in the shard's backlog, which
        :meth:`_poll_io` writes out as the worker drains its inbox.
        """
        backlog = self._backlogs[shard]
        if backlog:
            backlog += _frame(message)
            return
        frame = _frame(message)
        fd = self._inboxes[shard].fileno()
        try:
            written = os.write(fd, frame)
        except BlockingIOError:
            written = 0
        except BrokenPipeError:  # the worker is gone; the ack pipe says so
            return
        if written < len(frame):
            backlog += memoryview(frame)[written:]
            self._poller.register(fd, select.POLLOUT)

    def _flush(self, shard: int) -> None:
        """Write as much of ``shard``'s backlog as its inbox takes now."""
        backlog = self._backlogs[shard]
        fd = self._inboxes[shard].fileno()
        try:
            del backlog[: os.write(fd, backlog)]
        except BlockingIOError:
            return
        except BrokenPipeError:  # the worker is gone; the ack pipe says so
            backlog.clear()
        if not backlog:
            self._poller.unregister(fd)

    def _poll_io(self, timeout: float) -> Optional[tuple]:
        """The parent's one I/O loop, run until an acknowledgement arrives.

        Writes backlogged frames as the workers drain their inboxes and
        returns the first acknowledgement read -- ``("exit", None, shard)``
        when a worker's acknowledgement pipe has ended -- or ``None`` once
        ``timeout`` seconds passed without one.
        """
        deadline = _time.monotonic() + timeout
        while True:
            wait_ms = max(deadline - _time.monotonic(), 0.0) * 1000.0
            reader = None
            for fd, _ in self._poller.poll(wait_ms):
                if fd in self._writer_fds:
                    self._flush(self._writer_fds[fd])
                elif reader is None:
                    reader = fd
            if reader is not None:
                return self._recv_ack(reader)
            if _time.monotonic() >= deadline:
                return None

    def _recv_ack(self, fd: int) -> tuple:
        """One acknowledgement of the shard whose ack pipe or sentinel is ``fd``."""
        shard = self._reader_fds[fd]
        acks = self._acks[shard]
        # a fired sentinel means the worker exited; its pipe may still hold
        # complete acknowledgements, read before the exit is reported
        if fd == acks.fileno() or acks.poll():
            try:
                return pickle.loads(acks.recv_bytes())
            except (EOFError, OSError):  # ended, possibly halfway into a frame
                pass
        return ("exit", None, shard)

    def _read_ack(self, timeout: float) -> Optional[tuple]:
        """One raw acknowledgement: held-back specials first, then the pipes.

        ``None`` when nothing arrives within ``timeout`` seconds.
        """
        if self._held_acks:
            return self._held_acks.pop(0)
        return self._poll_io(timeout)

    def _handle_failure(
        self, message: str, shard: Optional[int], exitcode=None
    ) -> None:
        """Route one worker failure: recover the shard, or abort the run."""
        if (
            shard is None
            or self.max_restarts == 0
            or not self.restart_counts
            or self.restart_counts[shard] >= self.max_restarts
            or shard in self._recovering
        ):
            self._fail(message, shard, exitcode=exitcode)
        self._recover(shard, message)

    def _handle_exit(self, shard: int, when: str) -> None:
        """Route the failure of a worker process found dead."""
        proc = self._procs[shard]
        proc.join(timeout=1.0)  # its pipe has ended: the exit code is due
        self._handle_failure(
            f"shard {shard} (pid {proc.pid}) exited with code {proc.exitcode} {when}",
            shard,
            exitcode=proc.exitcode,
        )

    def _next_ack(self, when: str = "while work was in flight", block: bool = True):
        """The next acknowledgement of live work, failures routed away.

        A worker that reports an error or whose pipe ends is recovered in
        place (respawn + restore + replay, see :meth:`_recover`) and the
        wait starts over, or -- beyond ``max_restarts`` -- the run aborts
        with :class:`WorkerCrashError`.  Without ``block``, ``None`` when
        nothing is ready; a blocking wait fails after
        ``ACK_TIMEOUT_SECONDS`` without any acknowledgement.
        """
        while True:
            ack = self._read_ack(ACK_TIMEOUT_SECONDS if block else 0.0)
            if ack is None:
                if not block:
                    return None
                self._fail(  # pragma: no cover - hang guard
                    f"no worker acknowledgement within {ACK_TIMEOUT_SECONDS:g}s {when}",
                    None,
                )
            if ack[0] == "ok":
                return ack
            if ack[0] == "error":
                self._handle_failure(f"shard {ack[2]} failed:\n{ack[3]}", ack[2])
            else:
                self._handle_exit(ack[2], when)

    def _apply_ack(self, ack) -> None:
        """Fold one acknowledgement into the epoch it answers.

        What an acknowledgement *is* follows from the operation of its
        epoch, never from its payload: a batch/flush carries a record blob,
        every other operation's payload (a checkpoint slice, a registry, an
        observation, ``None``) is filed under its shard for whoever shipped
        the epoch.  Replayed operations come back with their epoch encoded
        below ``-_REPLAY_OFFSET``; they count toward the original epoch
        unless the dead incarnation's own acknowledgement already did.
        Stale acknowledgements from a replaced incarnation are dropped.
        """
        _, epoch, shard, payload, seconds = ack
        if epoch <= -_REPLAY_OFFSET:
            epoch = -epoch - _REPLAY_OFFSET
        entry = self._inflight.get(epoch)
        if entry is None or shard not in entry.pending:
            if self.restart_counts and self.restart_counts[shard]:
                # a replay the pre-crash incarnation already answered, or a
                # stale ack (stray ready handshake included) from an
                # incarnation that was replaced
                return
            raise WorkerCrashError(  # pragma: no cover - protocol guard
                f"shard {shard} acknowledged unknown epoch {epoch}", shard=shard
            )
        entry.pending.discard(shard)
        self.metrics.record_processing_seconds(seconds)
        if entry.op not in ("batch", "flush"):
            entry.payloads[shard] = payload
            return
        # an empty batch/flush acknowledgement travels as the empty list
        records = _decode_record_blob(payload) if payload else ()
        entry.records.extend(records)
        self.shard_stats[shard].record_ack(len(records), seconds)
        self._shard_instruments[shard].ship_latency.observe(
            _time.perf_counter() - entry.sent_at
        )

    # -- worker recovery ---------------------------------------------------------

    def _recover(self, shard: int, reason: str) -> None:
        """Respawn one crashed shard and bring it back to the live timeline.

        1. reap the dead process and abandon its inbox (unconsumed messages
           are covered by the replay buffer);
        2. spawn a replacement and wait for its ready handshake;
        3. restore the shard's slice of the baseline -- the degenerate
           one-shard case of the migration primitive, nothing to collect
           (fresh state when no baseline was cut yet);
        4. replay every batch/flush shipped since that cut, with epochs
           moved into the replay range so acknowledgements merge into the
           original epochs -- or are dropped when the dead incarnation
           already delivered them;
        5. re-issue the collection requests (checkpoint, metrics, observe)
           the dead worker still owed.

        Failures of *other* shards while waiting recover recursively; a
        second failure of this same shard (or exhausted ``max_restarts``)
        aborts the run.
        """
        recovery_started = _time.perf_counter()
        self.restart_counts[shard] += 1
        # per-incarnation stats restart with the replacement process, so
        # ShardStats.incarnation always mirrors restart_counts[shard]
        self.shard_stats[shard].begin_incarnation()
        self._recovering.add(shard)
        try:
            old = self._procs[shard]
            if old.is_alive():  # reported an error but has not exited yet
                old.terminate()
            old.join(timeout=5.0)
            # abandon the dead incarnation's pipes: its unconsumed inbox is
            # covered by the replay buffer, and an acknowledgement it left
            # unread (or half-written) is re-acknowledged by the replay and
            # deduplicated
            self._close_pipes(shard)
            self._spawn(shard)
            self._await_worker_ack(
                shard, -1, f"ready handshake of restarted shard {shard}"
            )
            # re-surface the consumed ready ack: a crash during the STARTUP
            # handshake recovers in here, but _start()'s loop still counts
            # ready acks -- without this it would stall out waiting for one
            # that was already read.  Outside startup the stray ready is
            # dropped harmlessly by _apply_ack (the shard has restarts).
            self._held_acks.append(("ok", -1, shard, "ready", 0.0))
            if self._baseline is not None:
                # the baseline holds exactly what this shard's worker held at
                # the last consistent cut (migrations re-cut it), so it ships
                # as is; its registry brings the worker's counters back to
                # that cut, and the replay re-applies the deltas since
                slices, watermark = self._baseline
                piece = slices[shard]
                message = self._restore_message(
                    _RECOVERY_RESTORE_EPOCH, piece, watermark, piece["registry"]
                )
                self._send(shard, message)
                self._await_worker_ack(
                    shard,
                    _RECOVERY_RESTORE_EPOCH,
                    f"checkpoint restore on restarted shard {shard}",
                )
            for message in self._replay[shard]:
                replayed = (message[0], -(message[1] + _REPLAY_OFFSET)) + message[2:]
                self._send(shard, replayed)
            for epoch in sorted(self._inflight):
                entry = self._inflight[epoch]
                if shard not in entry.pending:
                    continue
                if entry.op in ("restore", "replan"):
                    # the baseline is set before either ships: the restore
                    # above already applied the same state, and the respawned
                    # worker was built from the post-migration specs
                    entry.pending.discard(shard)
                elif entry.op not in ("batch", "flush"):  # those were replayed
                    self._send(shard, (entry.op, epoch))
            self.recovery_log.append(
                f"shard {shard} restarted "
                f"({self.restart_counts[shard]}/{self.max_restarts}): {reason}"
            )
        finally:
            self._recovering.discard(shard)
        self._observe_lifecycle("recovery", _time.perf_counter() - recovery_started)
        self._release_ready_epochs()

    def _await_worker_ack(self, shard: int, sentinel: int, what: str) -> None:
        """Wait for one special acknowledgement from ``shard``.

        Everything else arriving meanwhile is applied to its epoch, except
        other shards' specials, which are held back for their own wait
        loops; failures are routed through :meth:`_handle_failure` (fatal
        for ``shard`` itself -- it is already mid-recovery).
        """
        stashed: List[tuple] = []
        try:
            while True:
                ack = self._next_ack(f"during recovery ({what})")
                if ack[1] not in (-1, _RECOVERY_RESTORE_EPOCH):
                    self._apply_ack(ack)
                elif ack[1] == sentinel and ack[2] == shard:
                    return
                else:  # another recovery's special
                    stashed.append(ack)
        finally:
            self._held_acks.extend(stashed)

    def _release_ready_epochs(self) -> None:
        """Move completed epochs -- in order -- into the ready record list.

        Records within one epoch come from disjoint shards; sorting by
        (window, group, query) makes the merged order independent of ack
        arrival and of the worker count.
        """
        while self._inflight:
            first = min(self._inflight)
            entry = self._inflight[first]
            if entry.pending:
                return
            del self._inflight[first]
            entry.records.sort(
                key=lambda record: (
                    record.result.window_id,
                    repr(record.result.group_key),
                    record.query,
                )
            )
            per_query: Dict[str, int] = {}
            for record in entry.records:
                per_query[record.query] = per_query.get(record.query, 0) + 1
            for query, count in per_query.items():
                self._emitted_counts[query] = (
                    self._emitted_counts.get(query, 0) + count
                )
                # the one place sharded results surface, post-dedup: the
                # counter matches the single-process runtime's exactly
                self.observability.results_counter(query).inc(count)
            self.metrics.record_emission(len(entry.records))
            self._ready_records.extend(entry.records)

    def _drain_acks(self, block: bool) -> None:
        """Consume acknowledgements; with ``block`` wait until none in flight."""
        while self._inflight:
            self._release_ready_epochs()
            if not self._inflight:
                break
            ack = self._next_ack(block=block)
            if ack is None:
                break
            self._apply_ack(ack)
        self._release_ready_epochs()

    def _ship(self, op: str, shards: Iterable[int], payloads=None) -> int:
        """Send one epoch of ``op`` messages to ``shards``; return the epoch."""
        epoch = self._epoch
        self._epoch += 1
        shards = list(shards)
        self._inflight[epoch] = _Epoch(set(shards), op)
        for shard in shards:
            if not self._procs[shard].is_alive():
                self._handle_exit(shard, f"before epoch {epoch} could be sent")
            message = payloads[shard] if payloads is not None else (op, epoch)
            self._send(shard, message)
            # recovery replays everything shipped since the last checkpoint;
            # recording after the send keeps "recorded" = "needs replay"
            if self.max_restarts and message[0] in ("batch", "flush"):
                self._replay[shard].append(message)
        return epoch

    def _ship_outboxes(self, watermark: Optional[float]) -> None:
        """Ship buffered events (and, with a watermark, an advance) as one epoch.

        A watermark advance must reach *every* shard -- windows close on all
        of them -- while a plain overflow ship only goes to shards that have
        events.
        """
        self._events_since_ship = 0
        self._pending_watermark = None
        if watermark is None:
            shards = [s for s in range(self.shard_count) if self._outboxes[s]]
            if not shards:
                return
        else:
            shards = list(range(self.shard_count))
            self._shipped_watermark = max(self._shipped_watermark, watermark)
        payloads = {}
        for shard in shards:
            events = self._outboxes[shard]
            payload = _encode_event_blob(events) if events else events
            payloads[shard] = ("batch", self._epoch, payload, watermark)
            self.shard_stats[shard].record_shipment(len(events))
            self._shard_instruments[shard].outbox_depth.set(len(events))
            self._outboxes[shard] = []
        self._ship("batch", shards, payloads)

    def _route_released(self, events: Iterable[Event]) -> None:
        """Append released events to the outbox of the worker owning their key.

        Uses the executor's own key computation (``plan.partition_key``) so
        sharded and single-process runs agree on partitions; ownership goes
        through the live :class:`ShardRouter` map, with the per-slot load
        counted for the rebalance policy.
        """
        plan = self._routing_plan
        if self.shard_count == 1:
            self._outboxes[0].extend(events)
            return
        slots = self._router.slots
        assignment = self._router.assignment
        slot_loads = self._slot_loads
        outboxes = self._outboxes
        for event in events:
            slot = shard_index(plan.partition_key(event), slots)
            slot_loads[slot] += 1
            outboxes[assignment[slot]].append(event)

    # -- quiesce -> snapshot -> restore -------------------------------------------

    def _collect(self, op: str) -> Dict[int, object]:
        """Quiesce, ask every worker for ``op``; return ``{shard: payload}``.

        The one collection loop (``checkpoint`` slices, ``metrics``
        registries, ``observe`` statistics).  A worker that dies meanwhile
        is recovered inside :meth:`_next_ack`, which re-issues the request
        to the replacement -- the loop only watches the epoch's pending set.
        """
        self._drain_acks(block=True)
        entry = self._inflight[self._ship(op, range(self.shard_count))]
        while entry.pending:
            self._apply_ack(self._next_ack())
        self._release_ready_epochs()
        return entry.payloads

    def _worker_watermark(self) -> Optional[float]:
        """The watermark the workers' state stands at (None before the first)."""
        shipped = self._shipped_watermark
        return None if shipped == -math.inf else shipped

    def _set_baseline(self, slices: Dict[int, dict], watermark) -> None:
        """Record what the live workers hold as the state recovery resumes from.

        Everything shipped before this consistent cut is part of
        ``slices``, so the replay buffers restart empty.
        """
        if self.max_restarts:
            self._baseline = (slices, watermark)
            self._replay = [[] for _ in range(self.shard_count)]

    @staticmethod
    def _restore_message(epoch: int, piece: dict, watermark, registry_action) -> tuple:
        """The ``restore`` operation putting one worker onto ``piece``.

        ``registry_action`` steers the worker's registry: ``None`` keeps it
        (live migrations -- its counts are cumulative per worker),
        ``"reset"`` zeroes it, a snapshot restores it (recovery).
        """
        return ("restore", epoch, piece["executors"], watermark, registry_action)

    def _install(self, slices: Dict[int, dict], shards, registry_action) -> None:
        """Make ``slices`` the baseline, then restore ``shards`` onto theirs.

        The baseline is recorded before the ship: a worker that dies
        mid-way is recovered straight into the state being installed.
        """
        watermark = self._worker_watermark()
        self._set_baseline(slices, watermark)
        if shards:
            payloads = {
                shard: self._restore_message(
                    self._epoch, slices[shard], watermark, registry_action
                )
                for shard in shards
            }
            self._ship("restore", shards, payloads)
        self._drain_acks(block=True)

    def _migrate(self, mutate) -> Dict[int, dict]:
        """Move state between live workers: the one migration primitive.

        quiesce -> collect every worker's slice -> ``mutate(slices)`` ->
        the mutated slices become the recovery baseline -> the shards
        ``mutate`` returned are restored onto theirs -> await.  ``mutate``
        edits the slices in place (they are fresh copies) and is all a
        caller supplies; because sub-streams never interact, re-homing
        entries, relabelling a plan or handing a partition off are the same
        operation.  Returns the slices as installed.
        """
        slices = self._collect("checkpoint")
        self._install(slices, mutate(slices), None)
        return slices

    # -- adaptive rebalancing --------------------------------------------------

    @property
    def router_version(self) -> int:
        """Version of the live range->worker map (0 until the first move)."""
        return 0 if self._router is None else self._router.version

    def _maybe_rebalance(self, released: int) -> None:
        """Count a step's ``released`` events; check skew every ``min_interval``."""
        if not self._policy.enabled or self.shard_count < 2:
            return
        self._events_since_rebalance_check += released
        if self._events_since_rebalance_check >= self._policy.min_interval:
            self.rebalance()

    def rebalance(
        self, moves: Optional[List[Tuple[int, int]]] = None
    ) -> List[Tuple[int, int]]:
        """Migrate hash slots between workers now; return the applied moves.

        ``moves`` is a list of ``(slot, target worker)`` reassignments;
        ``None`` plans them with the :class:`RebalancePolicy` from the
        routing load observed since the last cycle (usable whether or not
        automatic rebalancing is enabled).  No-op reassignments are
        dropped; an unstarted runtime is started first; a single-shard
        runtime never moves anything.
        """
        self._check_usable()
        if not self._started:
            self._start()
        if self.shard_count < 2:
            return []
        if moves is None:
            moves = self._policy.plan(
                self._slot_loads, self._router.assignment, self.shard_count
            )
        else:
            # last reassignment per slot wins; drop no-ops
            final: Dict[int, int] = {}
            for slot, worker in moves:
                slot, worker = int(slot), int(worker)
                if not 0 <= slot < self._router.slots:
                    raise ValueError(
                        f"slot {slot} is outside 0..{self._router.slots - 1}"
                    )
                if not 0 <= worker < self.shard_count:
                    raise ValueError(
                        f"worker {worker} is outside 0..{self.shard_count - 1}"
                    )
                final[slot] = worker
            moves = [
                (slot, worker)
                for slot, worker in final.items()
                if self._router.assignment[slot] != worker
            ]
        self._slot_loads = [0] * self._router.slots
        self._events_since_rebalance_check = 0
        if moves:
            self._apply_moves(moves)
        return moves

    def _apply_moves(self, moves: List[Tuple[int, int]]) -> None:
        """Migrate the state of ``moves``' hash slots between live workers.

        A :meth:`_migrate` whose mutation swaps the router entries (bumping
        the map version) and re-homes every aggregator entry under the new
        map; only the workers that lose or gain a slot are restored.  Events
        still buffered in parent outboxes are **held back** around it -- they
        must be processed by the new owners of their slots, after those own
        the migrated state -- and then re-routed through the updated map, to
        be shipped with the next wave.
        """
        started = _time.perf_counter()
        router = self._router
        old_owner = {slot: router.assignment[slot] for slot, _ in moves}
        affected = sorted(set(old_owner.values()) | {w for _, w in moves})
        held = [event for outbox in self._outboxes for event in outbox]
        self._outboxes = [[] for _ in range(self.shard_count)]
        moved_keys = set()

        def keys(state: Dict[str, object]) -> set:
            return {tuple(entry[1]) for entry in state["aggregators"]}

        def swap(slices: Dict[int, dict]) -> List[int]:
            for slot, worker in moves:
                router.move(slot, worker)
            for spec in self._specs:
                states = {
                    shard: piece["executors"][spec.name]
                    for shard, piece in slices.items()
                }
                rehomed = rehome_executor_snapshots(states, router.owner_of_key)
                for shard in affected:
                    # an unaffected worker is not restored, so its slice
                    # (its own last_time included) stays what it holds
                    moved_keys.update(keys(rehomed[shard]) - keys(states[shard]))
                    slices[shard]["executors"][spec.name] = rehomed[shard]
            return affected

        self._migrate(swap)
        # held events re-routed under the swapped map (their slot loads were
        # already counted when they were first routed)
        assignment = router.assignment
        slots = router.slots
        plan = self._routing_plan
        for event in sort_events(held):
            slot = shard_index(plan.partition_key(event), slots)
            self._outboxes[assignment[slot]].append(event)
        pause = _time.perf_counter() - started
        self.metrics.record_rebalance(len(moves), len(moved_keys))
        self._observe_lifecycle("rebalance", pause)
        moved = ", ".join(
            f"slot {slot}: {old_owner[slot]}->{worker}" for slot, worker in moves
        )
        self.rebalance_log.append(
            f"router v{router.version}: moved {len(moves)} slot(s), "
            f"{len(moved_keys)} key(s) ({moved}); paused {pause * 1000.0:.1f} ms"
        )

    # -- adaptive granularity re-planning --------------------------------------

    def _maybe_replan(self, released: int) -> None:
        """Count a step's ``released`` events; check granularity when due."""
        if self._replan_policy is None or not self._started:
            return
        if self._replan_controller.due(released):
            self._replan_now()

    def _replan_now(self) -> None:
        """One check of the control loop: observe workers, decide, migrate."""
        controller = self._replan_controller
        controller.begin_check()
        started = _time.perf_counter()
        # per-shard, per-query raw statistics, summed into one stream-wide
        # view per query; the decision is central, workers never re-plan
        observed = self._collect("observe")
        migrations: List[Tuple[str, "Granularity"]] = []
        for spec in self._specs:
            engine = self._engines[spec.name]
            merged = merge_raw_observations(
                [observed[shard]["observe"][spec.name] for shard in sorted(observed)]
            )
            target = controller.decide(spec.name, engine, merged)
            if (
                target is not engine.plan.granularity
                and len(migrations) < controller.policy.max_migrations
            ):
                migrations.append((spec.name, target))
        if migrations:
            self._apply_replan(migrations)
        self.metrics.record_replan(len(migrations))
        self._observe_lifecycle("replan", _time.perf_counter() - started)

    def _apply_replan(self, migrations: List[Tuple[str, "Granularity"]]) -> None:
        """Broadcast granularity migrations to the workers, quiesced.

        A :meth:`_migrate` whose mutation re-plans the parent engines
        (validating the target granularity), updates the registration specs
        -- so recovered workers and composed checkpoints describe the
        post-migration plan -- and relabels the migrated queries' slices
        with the new granularity (the worker snapshots were taken
        pre-migration; open aggregators carry their own recorded classes
        and rebuild unchanged).  Routing is granularity-blind, so no state
        changes owner and nothing is restored: the ``replan`` operation is
        broadcast instead, and acknowledged by every worker before any
        further events ship.
        """
        controller = self._ensure_replan_controller()
        performed: List[Tuple[str, "Granularity", "Granularity"]] = []

        def relabel(slices: Dict[int, dict]) -> List[int]:
            for name, target in migrations:
                engine = self._engines[name]
                previous = engine.plan.granularity
                if not migrate_engine(engine, target):
                    continue
                new = engine.plan.granularity
                for spec in self._specs:
                    if spec.name == name:
                        spec.granularity = new.value
                for piece in slices.values():
                    piece["executors"][name]["granularity"] = new.value
                performed.append((name, previous, new))
            return []

        slices = self._migrate(relabel)
        for name, previous, new in performed:
            payloads = {
                shard: ("replan", self._epoch, name, new.value)
                for shard in range(self.shard_count)
            }
            self._ship("replan", range(self.shard_count), payloads)
            controller.record_migration(
                name,
                previous,
                new,
                sum(int(p["executors"][name]["events_seen"]) for p in slices.values()),
            )
        self._drain_acks(block=True)

    def migrate_granularity(self, name: str, granularity) -> bool:
        """Force a live granularity migration of one registered query.

        The sharded counterpart of :meth:`StreamingRuntime.
        migrate_granularity`: the swap is coordinated across every worker
        behind a quiesce.  Returns True when a migration happened;
        disallowed granularities raise
        :class:`~repro.errors.PlanningError`.
        """
        self._check_usable()
        if not self._started:
            self._start()
        engine = self._engines.get(name)
        if engine is None:
            raise KeyError(f"no registered query named {name!r}")
        if isinstance(granularity, str):
            granularity = Granularity(granularity)
        if granularity is engine.plan.granularity:
            return False
        started = _time.perf_counter()
        self._apply_replan([(name, granularity)])
        self.metrics.record_replan(1)
        self._observe_lifecycle("replan", _time.perf_counter() - started)
        return True

    # -- streaming -------------------------------------------------------------

    def _check_not_poisoned(self) -> None:
        if self._poisoned:
            raise RuntimeError(
                "this sharded runtime was closed after a failure; create a "
                "new runtime (and restore the last checkpoint if desired)"
            )

    def _check_usable(self) -> None:
        self._check_not_poisoned()
        if self._flushed:
            raise RuntimeError(
                "this runtime was flushed and its workers stopped; create a "
                "new ShardedRuntime (and restore a checkpoint there if desired)"
            )

    def process(self, event: Event) -> List[EmissionRecord]:
        """Ingest one (possibly out-of-order) event: a slice of one."""
        return self.process_batch([event])

    def process_batch(
        self,
        events: List[Event],
        emit: Optional[Callable[[EmissionRecord], None]] = None,
    ) -> List[EmissionRecord]:
        """Ingest an arrival-ordered slice of events; return merged emissions.

        Emission is asynchronous: records surface once the owning worker has
        acknowledged the batch and every earlier epoch is complete, so a
        given call may return results triggered by earlier events.  All
        records are delivered by the end of :meth:`flush`.  The slice runs
        through the same steps as in
        :class:`~repro.streaming.runtime.StreamingRuntime` (see
        :meth:`_ingest`): shipping decisions (``ship_interval``,
        ``max_batch``, backpressure), rebalancing and re-planning happen
        once per step, and the push reaching a window edge ships alone with
        its own watermark, so watermark stamps depend on neither the slicing
        nor ``ship_interval``; acknowledgements are drained once per slice.

        ``emit`` has the single-process contract: it is called on each
        returned record, in order, and must not call back into the runtime.
        Here that happens when the slice's acknowledgements were drained,
        the one point sharded records surface.  A raising late policy
        first waits for every shipped epoch, so the
        :class:`~repro.errors.LateEventError` carries (``.records``, emitted
        already) every record the events before the late one produced, as
        in a single-process run.
        """
        self._check_usable()
        if not self._started:
            self._start()
        try:
            self._ingest(events, self._apply_push)
        except LateEventError as error:
            # every window edge before the late event shipped alone, so
            # the shipped epochs hold every record those events produced
            self._drain_acks(block=True)
            error.records = self._take_ready(emit)
            raise
        self._drain_acks(block=False)
        return self._take_ready(emit)

    def _apply_push(self, batch, trace, edge: bool) -> None:
        """Route what one step released to the outboxes; ship what is due.

        A wave ships once ``ship_interval`` released events have gathered,
        once an outbox holds ``max_batch`` events, or at once when ``edge``
        says the push reached a window edge (decided by :meth:`_ingest`
        alone, in time or in event ordinals).  That push is applied alone,
        so a wave that closes windows carries its watermark; every other
        wave closes nothing.

        Parent-side spans cover ingest and route/ship; per-event execution
        happens inside the worker processes and shows up in their latency
        histograms instead.
        """
        released = batch.released
        if released:
            if trace is None:
                self._route_released(released)
            else:
                with trace.child("route", events=len(released)):
                    self._route_released(released)
        if batch.advanced:
            self._pending_watermark = batch.watermark
        self._maybe_rebalance(len(released))
        self._maybe_replan(len(released))
        self._events_since_ship += len(released)
        if (
            edge
            or self._events_since_ship >= self._ship_interval
            or any(len(outbox) >= self._max_batch for outbox in self._outboxes)
        ):
            self._ship_outboxes(self._pending_watermark)
        if len(self._inflight) > self._max_inflight:
            # bounded inboxes: block ingestion until the workers drain below
            # the cap, and account the pause as backpressure
            blocked_at = _time.perf_counter()
            while len(self._inflight) > self._max_inflight:
                self._apply_ack(self._next_ack())
                self._release_ready_epochs()
            self.metrics.record_backpressure(_time.perf_counter() - blocked_at)

    def _take_ready(
        self, emit: Optional[Callable[[EmissionRecord], None]] = None
    ) -> List[EmissionRecord]:
        """Hand over the merged records, each to ``emit`` (if any) first."""
        ready = self._ready_records
        self._ready_records = []
        if emit is not None:
            for record in ready:
                emit(record)
        return ready

    def drain_pending(self) -> List[EmissionRecord]:
        """Collect records merged outside :meth:`process` calls.

        Emission is asynchronous, so records can become ready while a
        :meth:`checkpoint` quiesces the workers; callers interleaving
        checkpoints with processing use this to pick them up immediately
        instead of waiting for the next :meth:`process` return.
        """
        self._check_usable()
        if not self._started:
            return []
        self._drain_acks(block=False)
        return self._take_ready()

    def flush(self) -> List[EmissionRecord]:
        """Drain everything, close every window, and stop the workers."""
        self._check_usable()
        if not self._started:
            self._start()
        remaining = self._ingestor.drain()
        if remaining:
            self.metrics.record_release(len(remaining))
            self._route_released(remaining)
        # drained events ride inside the flush operation so each worker can
        # route them past the watermark (+inf), like the single-process flush
        payloads = {}
        for shard in range(self.shard_count):
            events = self._outboxes[shard]
            payload = _encode_event_blob(events) if events else events
            payloads[shard] = ("flush", self._epoch, payload)
            self.shard_stats[shard].record_shipment(len(events))
            self._outboxes[shard] = []
        self._events_since_ship = 0
        self._pending_watermark = None
        self._ship("flush", range(self.shard_count), payloads)
        self._drain_acks(block=True)
        # last chance to pull the worker registries: after close() the
        # processes are gone, so registry_snapshot() serves this view
        self._final_worker_registries = self._collect_worker_registries()
        self._flushed = True
        self.close()
        return self._take_ready()

    # run()/drive() come from PipelineDriver: the shared source -> process ->
    # emit -> sink loop with periodic checkpointing and late-event draining

    # -- introspection ---------------------------------------------------------

    def reprocess_late(self) -> List[EmissionRecord]:
        """Replay the side channel; emit correction records for its windows.

        The sharded counterpart of
        :meth:`~repro.streaming.runtime.StreamingRuntime.reprocess_late`:
        the drained late events run through a fresh single-process replay
        runtime hosting the same queries (they are few -- no sharding
        needed) and come back flagged ``is_correction=True``.  It refuses
        count-windowed queries the same way.
        """
        self._check_not_poisoned()
        self._check_late_replay()
        late = self._ingestor.take_side_channel()
        if not late:
            return []
        replay = _build_worker_runtime(self._specs)
        return replay_corrections(replay, late, self.watermark, self.metrics)

    def shard_report(self) -> str:
        """Readable per-shard routing/merging statistics."""
        lines = [
            f"shards              : {self.shard_count} (of {self.workers} requested)"
        ]
        if self.fallback_reason:
            lines.append(f"fallback            : {self.fallback_reason}")
        if self._router is not None:
            lines.append(
                f"router              : v{self._router.version}, "
                f"{self._router.slots} slots"
            )
        for shard, stats in enumerate(self.shard_stats):
            restarts = (
                f" restarts={self.restart_counts[shard]}"
                if self.restart_counts and self.restart_counts[shard]
                else ""
            )
            lines.append(
                f"shard {shard}             : events={stats.events_sent} "
                f"batches={stats.batches_sent} records={stats.records_merged} "
                f"acks={stats.acks_received} "
                f"processing={stats.processing_seconds:.3f}s{restarts}"
            )
        for note in self.rebalance_log:
            lines.append(f"rebalance           : {note}")
        for record in self.replan_log:
            lines.append(
                f"replan              : {record['query']} "
                f"{record['from']}->{record['to']} (v{record['version']}, "
                f"after {record['events_total']} events)"
            )
        for note in self.recovery_log:
            lines.append(f"recovery            : {note}")
        return "\n".join(lines)

    # -- checkpointing ---------------------------------------------------------

    def checkpoint(self) -> Dict[str, object]:
        """Snapshot the runtime in the single-process checkpoint schema.

        The worker executors' states are merged per query, so the snapshot
        is indistinguishable from one taken by a
        :class:`~repro.streaming.runtime.StreamingRuntime` over the same
        stream prefix -- it restores into a single-process runtime or into a
        :class:`ShardedRuntime` with *any* worker count.  An informational
        ``"sharded"`` key records the topology, including the versioned
        router map; a :class:`ShardedRuntime` with the same worker count
        adopts the map on restore (post-migration topology), every other
        restorer ignores it.
        """
        self._check_usable()
        if not self._started:
            self._start()
        started = _time.perf_counter()
        # events sitting in parent outboxes must be part of the workers'
        # state, not lost between router and snapshot
        self._ship_outboxes(self._pending_watermark)
        slices = self._collect("checkpoint")
        self._set_baseline(slices, self._worker_watermark())
        snapshot = self._compose_snapshot(slices)
        self._observe_lifecycle("checkpoint", _time.perf_counter() - started)
        return snapshot

    def _collect_worker_registries(self) -> List[dict]:
        """Quiesce in-flight work and pull every worker's registry snapshot."""
        payloads = self._collect("metrics")
        return [payloads[shard]["registry"] for shard in sorted(payloads)]

    def _compose_snapshot(self, shard_payloads: Dict[int, Dict]) -> Dict[str, object]:
        """Merge per-worker payloads into the single-process snapshot schema."""
        executors = {
            spec.name: merge_executor_snapshots(
                [
                    shard_payloads[s]["executors"][spec.name]
                    for s in sorted(shard_payloads)
                ]
            )
            for spec in self._specs
        }
        # the merged registry restores into ANY runtime (it is the same
        # schema a single-process checkpoint writes); the per-worker views
        # ride informationally in the sharded section so a recovered worker
        # can resume its own slice exactly
        worker_registries = {
            str(shard): shard_payloads[shard].get("registry")
            for shard in sorted(shard_payloads)
        }
        merged_registry = merge_snapshots(
            self.observability.registry.snapshot(),
            *[r for r in worker_registries.values() if isinstance(r, dict)],
        )
        return {
            "version": CHECKPOINT_VERSION,
            "queries": query_header(self._engines.items()),
            "executors": executors,
            "ingest": self._ingestor.snapshot(),
            "metrics": self.metrics.snapshot(),
            "emitted_counts": dict(self._emitted_counts),
            "registry": merged_registry,
            "sharded": {
                "workers": self.shard_count,
                "router": self._router.snapshot(),
                "worker_registries": worker_registries,
                # the watermark the worker slices stand at -- what a
                # recovery restore must resume emission from (equals the
                # metrics watermark for checkpoint(), which ships pending
                # watermarks first, but lags it during a migration quiesce)
                "watermark": self._worker_watermark(),
            },
        }

    def restore(self, state: Dict[str, object]) -> None:
        """Restore a snapshot (sharded or single-process) into this runtime.

        The same queries must be registered (names, granularities,
        definitions, ``emit_empty_groups``) as in the checkpointed runtime;
        the worker count may differ -- every aggregator is re-routed to the
        shard owning its partition key under *this* runtime's topology.
        A sharded snapshot taken under the *same* worker count carries its
        versioned router map along: the restored runtime adopts the
        post-migration assignment instead of the seed one.  Pending records
        of this runtime's own timeline are discarded.
        """
        recorded = checkpointed_queries(state)
        self._check_usable()
        if not self._started:
            self._start()
        if self._replan_policy is not None:
            # with re-planning enabled the checkpointed granularity wins: a
            # snapshot taken after a migration restores into a runtime whose
            # queries were registered at the seed granularity, so adopt the
            # recorded plan (parent and workers) before the identity check
            recorded_by_name = {entry[0]: entry for entry in recorded}
            for spec in self._specs:
                entry = recorded_by_name.get(spec.name)
                if entry is None or entry[1] == self._engines[spec.name].granularity:
                    continue
                try:
                    self._apply_replan([(spec.name, entry[1])])
                except WorkerCrashError:
                    raise  # _fail already poisoned the runtime
                except Exception:
                    pass  # the identity check below reports the mismatch
        check_query_identity(recorded, query_header(self._engines.items()))
        # quiesce: outstanding epochs and unshipped events belong to the
        # abandoned timeline
        self._drain_acks(block=True)
        self._ready_records = []
        self._outboxes = [[] for _ in range(self.shard_count)]
        self._events_since_ship = 0
        self._pending_watermark = None
        restore_started = _time.perf_counter()
        try:
            # adopt the checkpointed router map when the topology matches;
            # rebuild the seed map otherwise (aggregators are re-split by
            # whichever map ends up live, so both are consistent)
            sharded_info = state.get("sharded")
            sharded_info = sharded_info if isinstance(sharded_info, dict) else {}
            router_state = sharded_info.get("router")
            if (
                isinstance(router_state, dict)
                and sharded_info.get("workers") == self.shard_count
            ):
                self._router = ShardRouter.from_snapshot(router_state, self.shard_count)
            else:
                self._router = ShardRouter(
                    self.shard_count, self._policy.slots_per_worker
                )
            self._slot_loads = [0] * self._router.slots
            self._events_since_rebalance_check = 0
            self._shipped_watermark = -math.inf
            # every worker resets its registry: the merged registry becomes
            # the parent's base, so base + fresh worker deltas stays the
            # cumulative view (old checkpoints carry no registry and simply
            # reset everything).  The baseline says "reset" too -- a later
            # recovery must not count a worker's share twice.
            slices = {
                shard: {"executors": {}, "registry": "reset"}
                for shard in range(self.shard_count)
            }
            for spec in self._specs:
                per_shard = split_executor_snapshot(
                    state["executors"][spec.name],
                    self.shard_count,
                    owner=self._router.owner_of_key,
                )
                for shard, snapshot in per_shard.items():
                    slices[shard]["executors"][spec.name] = snapshot
            self._ingestor.restore(state["ingest"])
            self.observability.registry.restore(state.get("registry"))
            self.metrics.restore(state["metrics"])
            self._final_worker_registries = None
            self._emitted_counts = {
                name: int(count) for name, count in state["emitted_counts"].items()
            }
            self._install(slices, range(self.shard_count), "reset")
        except WorkerCrashError:
            raise  # _fail already poisoned the runtime and stopped the workers
        except Exception as exc:
            # the workers now hold a half-applied timeline; stop them so a
            # failed restore cannot leak idle processes
            self._poisoned = True
            self.close()
            if isinstance(exc, CheckpointError):
                raise
            raise CheckpointError(f"cannot restore checkpoint: {exc}") from exc
        self._flushed = False
        self._observe_lifecycle("restore", _time.perf_counter() - restore_started)

    def registry_snapshot(self) -> Dict[str, object]:
        """Merged registry view across the parent and every worker.

        The sharded counterpart of
        :meth:`~repro.streaming.runtime.StreamingRuntime.registry_snapshot`:
        the parent's registry (the runtime families of :attr:`metrics`,
        shipping, lifecycle, results) and -- on a live runtime -- a fresh
        pull of every worker's registry, which briefly quiesces in-flight
        work.  After :meth:`flush` the registries collected during the
        flush serve the final view, so the merged numbers equal a
        single-process run over the same stream.
        """
        snapshots = [self.observability.registry.snapshot()]
        if self._final_worker_registries is not None:
            snapshots.extend(self._final_worker_registries)
        elif self._started and not self._flushed and not self._poisoned and self._procs:
            snapshots.extend(self._collect_worker_registries())
        return finalize_snapshot(merge_snapshots(*snapshots))

    def __repr__(self) -> str:
        return (
            f"ShardedRuntime({len(self._specs)} queries, "
            f"workers={self.workers}, shards={self.shard_count or 'unstarted'}, "
            f"watermark={self._ingestor.watermark:g})"
        )
