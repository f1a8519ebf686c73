"""Checkpointing: snapshot/restore of runtime state and the on-disk store.

A checkpoint captures everything an executor accumulated mid-stream -- per
(window, group) aggregators, their :class:`~repro.core.aggregate_state.
TrendAccumulator` cells, stored events, and the executor's clock -- as a
tree of JSON-serialisable primitives.  Restoring the snapshot into a fresh
runtime configured with the *same queries* continues the computation as if
it had never stopped: the final results are identical, which the test suite
asserts window by window.

The snapshot format is structural, not pickled: every aggregator class
registers an (extract, apply) handler pair below, so checkpoints are
inspectable, diffable, and independent of Python object layout.  Unknown
aggregator classes raise :class:`~repro.errors.CheckpointError` instead of
silently writing an incomplete snapshot.

On top of the snapshot codec, :class:`CheckpointStore` persists a *chain*
of checkpoints to a directory: full base snapshots plus **incremental
deltas** (only the per-executor aggregators that changed since the previous
checkpoint), periodically compacted into a fresh base.  Sustained update
streams mutate a small working set of open windows per interval, so deltas
stay small while full snapshots grow with total state -- the same argument
that makes delta-based incremental view maintenance tractable.  The store
can write in the caller's thread or on a background writer thread, so the
driver loop's periodic checkpoints do not stall ingestion on disk I/O.
"""

from __future__ import annotations

import json
import os
import queue as _queue
import threading
from pathlib import Path
from time import perf_counter as _perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.analyzer.plan import plan_query
from repro.core.aggregate_state import WIDTH, TrendAccumulator
from repro.core.executor import QueryExecutor
from repro.core.partitioner import shard_index
from repro.errors import CheckpointError, StateQuotaError
from repro.events.event import Event
from repro.streaming.jsonl import event_from_json, event_to_json

#: bump when the snapshot layout changes incompatibly
CHECKPOINT_VERSION = 1


# ---------------------------------------------------------------------------
# events and accumulators
# ---------------------------------------------------------------------------


def snapshot_event(event: Event) -> Dict[str, object]:
    """JSON-safe representation of one event (the shared JSONL codec)."""
    return event_to_json(event)


def restore_event(state: Dict[str, object]) -> Event:
    """Rebuild the event written by :func:`snapshot_event`."""
    return event_from_json(state)


def snapshot_accumulator(accumulator: TrendAccumulator) -> Dict[str, object]:
    """JSON-safe representation of one trend accumulator."""
    slots = accumulator.slots
    return {
        "targets": [list(target) for target in accumulator.targets],
        "trend_count": accumulator.trend_count,
        # per-target [occurrence count, sum, min, max], aligned with targets
        "states": [
            slots[base : base + WIDTH] for base in range(0, len(slots), WIDTH)
        ],
    }


def restore_accumulator(state: Dict[str, object]) -> TrendAccumulator:
    """Rebuild the accumulator written by :func:`snapshot_accumulator`."""
    targets = tuple((variable, attribute) for variable, attribute in state["targets"])
    accumulator = TrendAccumulator(targets)
    accumulator.trend_count = int(state["trend_count"])
    accumulator.slots = [value for cell in state["states"] for value in cell]
    return accumulator


def _snapshot_optional_event(event: Optional[Event]):
    return None if event is None else snapshot_event(event)


def _restore_optional_event(state) -> Optional[Event]:
    return None if state is None else restore_event(state)


def _snapshot_node_lists(nodes: Dict[str, List[Tuple[Event, TrendAccumulator]]]):
    return {
        variable: [
            [snapshot_event(event), snapshot_accumulator(cell)]
            for event, cell in entries
        ]
        for variable, entries in nodes.items()
    }


def _restore_node_lists(state) -> Dict[str, List[Tuple[Event, TrendAccumulator]]]:
    return {
        variable: [
            (restore_event(event_state), restore_accumulator(cell_state))
            for event_state, cell_state in entries
        ]
        for variable, entries in state.items()
    }


# ---------------------------------------------------------------------------
# aggregator state handlers
# ---------------------------------------------------------------------------


def _extract_pattern(aggregator) -> Dict[str, object]:
    return {
        "last_event": _snapshot_optional_event(aggregator._last_event),
        "last_variable": aggregator._last_variable,
        "last_cell": snapshot_accumulator(aggregator._last_cell),
        "final": snapshot_accumulator(aggregator._final),
    }


def _apply_pattern(aggregator, state) -> None:
    aggregator._last_event = _restore_optional_event(state["last_event"])
    aggregator._last_variable = state["last_variable"]
    aggregator._last_cell = restore_accumulator(state["last_cell"])
    aggregator._final = restore_accumulator(state["final"])


def _extract_type(aggregator) -> Dict[str, object]:
    return {
        "cells": {
            variable: snapshot_accumulator(cell)
            for variable, cell in aggregator._cells.items()
        }
    }


def _apply_type(aggregator, state) -> None:
    aggregator._cells = {
        variable: restore_accumulator(cell) for variable, cell in state["cells"].items()
    }


def _extract_mixed(aggregator) -> Dict[str, object]:
    return {
        "type_cells": {
            variable: snapshot_accumulator(cell)
            for variable, cell in aggregator._type_cells.items()
        },
        "event_cells": _snapshot_node_lists(aggregator._event_cells),
        "final": snapshot_accumulator(aggregator._final),
    }


def _apply_mixed(aggregator, state) -> None:
    aggregator._type_cells = {
        variable: restore_accumulator(cell)
        for variable, cell in state["type_cells"].items()
    }
    aggregator._event_cells = _restore_node_lists(state["event_cells"])
    aggregator._final = restore_accumulator(state["final"])


def _extract_event(aggregator) -> Dict[str, object]:
    # an event-grained aggregator is a mixed-grained one with no Tt cells;
    # its stored events keep their name of the GRETA graph's nodes
    return {
        "nodes": _snapshot_node_lists(aggregator._event_cells),
        "final": snapshot_accumulator(aggregator._final),
    }


def _apply_event(aggregator, state) -> None:
    aggregator._event_cells = _restore_node_lists(state["nodes"])
    aggregator._final = restore_accumulator(state["final"])


def _extract_negation_type(aggregator) -> Dict[str, object]:
    return {
        "full": {
            variable: snapshot_accumulator(cell)
            for variable, cell in aggregator._full.items()
        },
        "compatible": [
            [index, variable, snapshot_accumulator(cell)]
            for (index, variable), cell in aggregator._compatible.items()
        ],
    }


def _apply_negation_type(aggregator, state) -> None:
    aggregator._full = {
        variable: restore_accumulator(cell) for variable, cell in state["full"].items()
    }
    aggregator._compatible = {
        (int(index), variable): restore_accumulator(cell)
        for index, variable, cell in state["compatible"]
    }


def _extract_negation_event(aggregator) -> Dict[str, object]:
    state = _extract_event(aggregator)
    state["cutoffs"] = [
        [index, variable, cutoff]
        for (index, variable), cutoff in aggregator._cutoffs.items()
    ]
    return state


def _apply_negation_event(aggregator, state) -> None:
    _apply_event(aggregator, state)
    aggregator._cutoffs = {
        (int(index), variable): int(cutoff)
        for index, variable, cutoff in state["cutoffs"]
    }


#: aggregator class name -> (extract, apply) state handlers
_HANDLERS: Dict[str, Tuple[Callable, Callable]] = {
    "PatternGrainedAggregator": (_extract_pattern, _apply_pattern),
    "TypeGrainedAggregator": (_extract_type, _apply_type),
    "MixedGrainedAggregator": (_extract_mixed, _apply_mixed),
    "EventGrainedAggregator": (_extract_event, _apply_event),
    # negation-aware variants (repro.extensions.negation); their immutable
    # configuration (components, crossing edges) is rebuilt by the factory,
    # only the mutable state travels through the checkpoint
    "NegationPatternGrainedAggregator": (_extract_pattern, _apply_pattern),
    "NegationTypeGrainedAggregator": (_extract_negation_type, _apply_negation_type),
    "NegationEventGrainedAggregator": (_extract_negation_event, _apply_negation_event),
}

#: aggregator class name -> the granularity whose plan builds it.  After a
#: live granularity migration (:mod:`repro.streaming.replan`) a snapshot may
#: hold aggregators of the *previous* granularity for still-open windows;
#: :func:`restore_executor` uses this map to rebuild each one under a plan
#: forced to its recorded granularity instead of the executor's current one.
_CLASS_GRANULARITY = {
    "PatternGrainedAggregator": "pattern",
    "TypeGrainedAggregator": "type",
    "MixedGrainedAggregator": "mixed",
    "EventGrainedAggregator": "event",
    "NegationPatternGrainedAggregator": "pattern",
    "NegationTypeGrainedAggregator": "type",
    "NegationEventGrainedAggregator": "event",
}


def snapshot_aggregator(aggregator) -> Dict[str, object]:
    """JSON-safe representation of one sub-stream aggregator."""
    class_name = type(aggregator).__name__
    handlers = _HANDLERS.get(class_name)
    if handlers is None:
        raise CheckpointError(
            f"aggregator class {class_name!r} has no registered checkpoint handler"
        )
    extract, _ = handlers
    return {
        "class": class_name,
        "events_processed": aggregator.events_processed,
        "state": extract(aggregator),
    }


def restore_aggregator_state(aggregator, snapshot: Dict[str, object]) -> None:
    """Apply a snapshot to a freshly constructed aggregator of the same class."""
    class_name = type(aggregator).__name__
    if snapshot["class"] != class_name:
        raise CheckpointError(
            f"checkpoint holds a {snapshot['class']!r} aggregator but the plan "
            f"builds {class_name!r}; was the query or granularity changed?"
        )
    _, apply = _HANDLERS[class_name]
    aggregator.events_processed = int(snapshot["events_processed"])
    apply(aggregator, snapshot["state"])


# ---------------------------------------------------------------------------
# executors
# ---------------------------------------------------------------------------


def _entry_order(entry) -> Tuple[int, str]:
    """Canonical position of a ``[window_id, key, state]`` snapshot entry.

    The entries are a set keyed by ``(window_id, key)`` -- restore, merge,
    split and the delta diff all treat them so; one order makes snapshots
    of equal state equal and diffable.
    """
    return (entry[0], repr(entry[1]))


def snapshot_executor(executor: QueryExecutor) -> Dict[str, object]:
    """JSON-safe representation of one executor's runtime state."""
    aggregators = [
        [window_id, list(key), snapshot_aggregator(aggregator)]
        for window_id, key, aggregator in executor.open_aggregators()
    ]
    aggregators.sort(key=_entry_order)
    return {
        "query": executor.query.name,
        "granularity": executor.plan.granularity.value,
        "events_seen": executor.events_seen,
        "last_time": executor.last_time,
        "aggregators": aggregators,
    }


def restore_executor(executor: QueryExecutor, state: Dict[str, object]) -> None:
    """Restore a snapshot into an executor built from the same plan.

    The executor's existing runtime state is discarded; its plan (and hence
    aggregator factory) must match the checkpointed one, which is validated
    via the recorded granularity and per-aggregator class names.
    """
    granularity = executor.plan.granularity.value
    if state["granularity"] != granularity:
        raise CheckpointError(
            f"checkpoint was taken at granularity {state['granularity']!r} but "
            f"the plan selects {granularity!r}"
        )
    # after a granularity migration still-open windows keep aggregators of
    # the previous granularity; rebuild those under a plan forced to their
    # recorded granularity (restore_aggregator_state stays the final check)
    plans = {granularity: executor.plan}
    restored = []
    for window_id, key_values, aggregator_state in state["aggregators"]:
        recorded = _CLASS_GRANULARITY.get(aggregator_state["class"], granularity)
        plan = plans.get(recorded)
        if plan is None:
            plan = plan_query(executor.plan.query, forced_granularity=recorded)
            plans[recorded] = plan
        aggregator = executor._aggregator_factory(plan)
        restore_aggregator_state(aggregator, aggregator_state)
        restored.append((int(window_id), tuple(key_values), aggregator))
    last_time = state["last_time"]
    executor.adopt(
        int(state["events_seen"]),
        None if last_time is None else float(last_time),
        restored,
    )


# ---------------------------------------------------------------------------
# the snapshot header: version and query identity (both runtimes)
# ---------------------------------------------------------------------------


def query_header(queries: Iterable[Tuple[str, object]]) -> List[Dict[str, object]]:
    """The ``"queries"`` section of a runtime snapshot.

    ``queries`` yields ``(registered name, engine)`` in registration order.
    The rendered query identifies the definition, so a restore into a
    same-named but different query fails; ``emit_empty_groups`` changes
    emission and routing, so it is part of the identity too.
    """
    return [
        {
            "name": name,
            "granularity": engine.granularity,
            "definition": engine.query.describe(),
            "emit_empty_groups": engine._emit_empty_groups,
        }
        for name, engine in queries
    ]


#: what makes a registered query "the same": its name, granularity,
#: definition and ``emit_empty_groups``
QueryIdentity = Tuple[str, str, Optional[str], bool]


def _query_identities(header) -> List[QueryIdentity]:
    return [
        (
            q["name"],
            q["granularity"],
            q.get("definition"),
            bool(q.get("emit_empty_groups", False)),
        )
        for q in header
    ]


def checkpointed_queries(state: Dict[str, object]) -> List[QueryIdentity]:
    """Check the snapshot version; return the query identities it records."""
    version = state.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {version!r} is not supported "
            f"(expected {CHECKPOINT_VERSION})"
        )
    try:
        return _query_identities(state["queries"])
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"malformed checkpoint: {exc}") from exc


def check_query_identity(recorded: List[QueryIdentity], current: List[Dict]) -> None:
    """Raise unless the live queries (a :func:`query_header`) are the recorded ones."""
    if recorded != _query_identities(current):
        names = [(entry[0], entry[1]) for entry in recorded]
        raise CheckpointError(
            f"registered queries do not match the checkpointed queries "
            f"{names}: names, granularities, definitions and "
            f"emit_empty_groups must be identical"
        )


# ---------------------------------------------------------------------------
# topology split/merge (sharded runtimes, recovery, adaptive rebalancing)
# ---------------------------------------------------------------------------


def merge_executor_snapshots(
    snapshots: List[Dict[str, object]],
) -> Dict[str, object]:
    """Combine per-shard executor snapshots into one single-process snapshot.

    Shards hold disjoint (window, partition key) aggregators, so the merge
    concatenates; entries are sorted for a deterministic, diffable snapshot.
    """
    first = snapshots[0]
    aggregators = [entry for snapshot in snapshots for entry in snapshot["aggregators"]]
    aggregators.sort(key=_entry_order)
    last_times = [s["last_time"] for s in snapshots if s["last_time"] is not None]
    return {
        "query": first["query"],
        "granularity": first["granularity"],
        "events_seen": sum(int(s["events_seen"]) for s in snapshots),
        "last_time": max(last_times) if last_times else None,
        "aggregators": aggregators,
    }


def rehome_executor_snapshots(
    per_shard: Dict[int, Dict[str, object]],
    owner: Callable[[Tuple], int],
) -> Dict[int, Dict[str, object]]:
    """Move every aggregator entry to the shard ``owner`` gives its key.

    The one way executor state changes hands between shards (restore into
    a topology, live rebalancing).  The scalar fields cannot be moved
    faithfully, so each shard keeps its own ``events_seen`` (a later merge
    still sums to the stream total) and every shard receives the global
    ``last_time`` (protecting executor order checks).
    """
    times = [s["last_time"] for s in per_shard.values() if s["last_time"] is not None]
    last_time = max(times) if times else None
    rehomed: Dict[int, Dict[str, object]] = {
        shard: {**state, "last_time": last_time, "aggregators": []}
        for shard, state in per_shard.items()
    }
    for state in per_shard.values():
        for entry in state["aggregators"]:
            rehomed[owner(tuple(entry[1]))]["aggregators"].append(entry)
    for state in rehomed.values():
        state["aggregators"].sort(key=_entry_order)
    return rehomed


def split_executor_snapshot(
    snapshot: Dict[str, object],
    shard_count: int,
    owner: Optional[Callable[[Tuple], int]] = None,
) -> Dict[int, Dict[str, object]]:
    """Split one executor snapshot into per-shard snapshots by key ownership.

    The inverse of :func:`merge_executor_snapshots` under any topology:
    :func:`rehome_executor_snapshots` applied to "shard 0 holds everything"
    (so shard 0 carries the full ``events_seen`` and a later merge sums
    back to the original).  ``owner`` is the static
    :func:`~repro.core.partitioner.shard_index` hash by default, or a live
    router's (possibly rebalanced) range->worker map.
    """
    if owner is None:

        def owner(key: Tuple) -> int:
            return shard_index(key, shard_count)

    per_shard = {
        shard: {**snapshot, "events_seen": 0, "aggregators": []}
        for shard in range(shard_count)
    }
    per_shard[0] = {**snapshot, "events_seen": int(snapshot["events_seen"])}
    return rehome_executor_snapshots(per_shard, owner)


# ---------------------------------------------------------------------------
# file persistence (single snapshots)
# ---------------------------------------------------------------------------


def save_checkpoint(state: Dict[str, object], path) -> Path:
    """Write a snapshot (e.g. ``StreamingRuntime.checkpoint()``) as JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(state, sort_keys=True))
    return path


def load_checkpoint(path) -> Dict[str, object]:
    """Read a snapshot previously written by :func:`save_checkpoint`."""
    path = Path(path)
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot load checkpoint {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# the incremental checkpoint store
# ---------------------------------------------------------------------------

#: bump when the store's file/manifest layout changes incompatibly
STORE_VERSION = 1

_MANIFEST_NAME = "MANIFEST.json"

#: snapshot keys a delta always carries in full (they are small and change
#: every interval); everything else top-level travels under "extra"
_DELTA_FULL_KEYS = ("version", "queries", "ingest", "metrics", "emitted_counts")


class CheckpointEntry:
    """Metadata about one checkpoint written by :class:`CheckpointStore`."""

    __slots__ = ("checkpoint_id", "kind", "path", "bytes_written")

    def __init__(self, checkpoint_id: int, kind: str, path: Path, bytes_written: int):
        self.checkpoint_id = checkpoint_id
        self.kind = kind
        self.path = path
        self.bytes_written = bytes_written

    def __repr__(self) -> str:
        return (
            f"CheckpointEntry(id={self.checkpoint_id}, kind={self.kind!r}, "
            f"bytes={self.bytes_written})"
        )


def _index_executor(state: Dict[str, object]) -> Dict[Tuple, str]:
    """(window, key) -> canonical JSON of the aggregator entry's state."""
    return {
        (int(entry[0]), json.dumps(entry[1])): json.dumps(entry[2], sort_keys=True)
        for entry in state["aggregators"]
    }


class CheckpointStore:
    """A directory of incremental checkpoints with periodic compaction.

    Layout: ``MANIFEST.json`` names the current chain -- one *base* file
    holding a full snapshot, followed by *delta* files each holding only
    the aggregator entries that changed (or disappeared) since the
    previous checkpoint.  :meth:`load_latest` replays the chain back into
    one full snapshot that restores into any runtime the snapshot schema
    allows (single-process or sharded, any worker count).

    Parameters
    ----------
    directory:
        Where the chain lives.  Created if missing; an existing chain is
        picked up (the first :meth:`save` then starts a fresh base, since
        the in-memory diffing state is gone).
    compact_every:
        Chain length at which the next save writes a full base snapshot
        and prunes the previous chain.  ``1`` makes every checkpoint a
        full snapshot (no deltas).
    background:
        Write checkpoint files on a dedicated writer thread so the caller
        (the driver loop) does not block on disk I/O.  :meth:`flush` joins
        outstanding writes; a failed background write re-raises on the
        next :meth:`save`, :meth:`flush` or :meth:`close`.
    registry:
        Optional
        :class:`~repro.streaming.observability.MetricsRegistry` recording
        write durations and bytes (labelled by base/delta kind) and
        :meth:`load_latest` durations.  The metric children are created
        here, up front: with ``background=True`` the writer thread only
        ever touches its own pre-built children, never the registry's
        family dictionaries.
    max_state_bytes:
        Optional cap on the serialized size of a snapshot's aggregator
        state (the ``executors`` section).  :meth:`save` raises
        :class:`~repro.errors.StateQuotaError` when a snapshot exceeds it
        -- checkpoint time is when a job's state is serialized anyway, so
        it is the natural (and cheap) enforcement point for the job
        server's per-tenant state quotas.  Enforced in the caller's
        thread even for background stores, so the violation surfaces as
        a raise from ``save``, not a deferred writer error.
    tenant:
        Optional tenant name carried into the quota error, for the job
        server's per-tenant accounting.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        compact_every: int = 8,
        background: bool = False,
        registry=None,
        max_state_bytes: Optional[int] = None,
        tenant: Optional[str] = None,
    ):
        if compact_every < 1:
            raise ValueError(f"compact_every must be at least 1, got {compact_every}")
        if max_state_bytes is not None and max_state_bytes < 1:
            raise ValueError(
                f"max_state_bytes must be a positive byte count, "
                f"got {max_state_bytes}"
            )
        self.max_state_bytes = max_state_bytes
        self.tenant = tenant
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.compact_every = compact_every
        self._write_timers = None
        self._byte_counters = None
        self._restore_timer = None
        if registry is not None:
            write_seconds = registry.histogram(
                "cogra_checkpoint_write_seconds",
                "disk write duration of one checkpoint file",
                ("kind",),
            )
            written_bytes = registry.counter(
                "cogra_checkpoint_bytes_total",
                "serialized checkpoint bytes written to the store",
                ("kind",),
            )
            self._write_timers = {
                kind: write_seconds.labels(kind) for kind in ("base", "delta")
            }
            self._byte_counters = {
                kind: written_bytes.labels(kind) for kind in ("base", "delta")
            }
            self._restore_timer = registry.histogram(
                "cogra_checkpoint_restore_seconds",
                "duration of reconstructing the newest checkpoint chain",
            ).labels()
        #: metadata of every checkpoint written by THIS store instance
        self.entries: List[CheckpointEntry] = []
        self._manifest = self._read_manifest()
        #: per-executor index of the last saved snapshot, for diffing
        self._last_index: Optional[Dict[str, Dict[Tuple, str]]] = None
        self._queue: Optional[_queue.Queue] = None
        self._writer: Optional[threading.Thread] = None
        self._write_error: Optional[BaseException] = None
        self._closed = False
        #: files superseded by the newest base, deleted after the manifest
        #: stopped referencing them
        self._prune: List[Path] = []
        if background:
            self._queue = _queue.Queue()
            self._writer = threading.Thread(
                target=self._writer_loop, name="cogra-checkpoint-writer", daemon=True
            )
            self._writer.start()

    # -- manifest --------------------------------------------------------------

    def _read_manifest(self) -> Dict[str, object]:
        path = self.directory / _MANIFEST_NAME
        if not path.exists():
            return {"store_version": STORE_VERSION, "next_id": 1, "chain": []}
        try:
            manifest = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"checkpoint store manifest {path} is unreadable or corrupt "
                f"({exc}); delete the directory to start over, or point the "
                f"store somewhere else"
            ) from exc
        version = manifest.get("store_version")
        if version != STORE_VERSION:
            raise CheckpointError(
                f"checkpoint store at {self.directory} has layout version "
                f"{version!r} but this build reads {STORE_VERSION}; recover "
                f"with the matching build or start a fresh directory"
            )
        return manifest

    def _write_manifest(self) -> None:
        path = self.directory / _MANIFEST_NAME
        temporary = path.with_suffix(".json.tmp")
        temporary.write_text(json.dumps(self._manifest, sort_keys=True))
        os.replace(temporary, path)

    # -- writing ---------------------------------------------------------------

    def save(self, snapshot: Dict[str, object]) -> Optional[CheckpointEntry]:
        """Persist one runtime snapshot; return what was written.

        Synchronous stores return the :class:`CheckpointEntry` (kind and
        bytes written); background stores hand the snapshot to the writer
        thread and return ``None`` (use :meth:`flush` + :attr:`entries`).
        """
        self._check_open()
        if snapshot.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"snapshot version {snapshot.get('version')!r} does not match "
                f"this build's checkpoint version {CHECKPOINT_VERSION}; was it "
                f"produced by runtime.checkpoint()?"
            )
        if self.max_state_bytes is not None:
            # encode: the quota is a byte count, and non-ASCII state
            # serializes to more bytes than characters
            state_bytes = len(
                json.dumps(snapshot.get("executors", {})).encode("utf-8")
            )
            if state_bytes > self.max_state_bytes:
                owner = f"tenant {self.tenant!r}" if self.tenant else "this store"
                raise StateQuotaError(
                    f"checkpoint aggregator state is {state_bytes} bytes, over "
                    f"the {self.max_state_bytes}-byte quota of {owner}; the "
                    f"job accumulates more state than its tenant is allowed",
                    tenant=self.tenant,
                    state_bytes=state_bytes,
                    limit_bytes=self.max_state_bytes,
                )
        if self._queue is not None:
            self._raise_pending_write_error()
            self._queue.put(snapshot)
            return None
        entry = self._write(snapshot)
        self._apply_prune()
        return entry

    def _write(self, snapshot: Dict[str, object]) -> CheckpointEntry:
        started = _perf_counter()
        checkpoint_id = int(self._manifest["next_id"])
        self._manifest["next_id"] = checkpoint_id + 1
        chain: List[Dict[str, object]] = self._manifest["chain"]
        index = {
            name: _index_executor(state)
            for name, state in snapshot["executors"].items()
        }
        if self._last_index is None or len(chain) >= self.compact_every:
            entry = self._write_base(checkpoint_id, snapshot, chain)
        else:
            entry = self._write_delta(checkpoint_id, snapshot, index, chain)
        self._write_manifest()
        self._last_index = index
        self.entries.append(entry)
        if self._write_timers is not None:
            self._write_timers[entry.kind].observe(_perf_counter() - started)
            self._byte_counters[entry.kind].inc(entry.bytes_written)
        return entry

    def _write_base(
        self, checkpoint_id: int, snapshot: Dict[str, object], chain: List
    ) -> CheckpointEntry:
        name = f"base-{checkpoint_id:08d}.json"
        payload = json.dumps(
            {
                "store_version": STORE_VERSION,
                "kind": "base",
                "id": checkpoint_id,
                "snapshot": snapshot,
            },
            sort_keys=True,
        )
        (self.directory / name).write_text(payload)
        previous = list(chain)
        chain.clear()
        chain.append({"id": checkpoint_id, "kind": "base", "file": name})
        # the new base subsumes the old chain; prune after the manifest no
        # longer references the files (_write writes it before returning,
        # so defer deletion until then via the entry bookkeeping)
        self._prune = [self.directory / item["file"] for item in previous]
        return CheckpointEntry(
            checkpoint_id, "base", self.directory / name, len(payload)
        )

    def _write_delta(
        self,
        checkpoint_id: int,
        snapshot: Dict[str, object],
        index: Dict[str, Dict[Tuple, str]],
        chain: List,
    ) -> CheckpointEntry:
        executors: Dict[str, Dict[str, object]] = {}
        for name, state in snapshot["executors"].items():
            previous = self._last_index.get(name, {})
            current = index[name]
            # one key serialization per entry (the index already paid one);
            # the diff runs on every periodic checkpoint, so this is hot
            changed = []
            for entry in state["aggregators"]:
                key = (int(entry[0]), json.dumps(entry[1]))
                if previous.get(key) != current[key]:
                    changed.append(entry)
            removed = [
                [window_id, json.loads(key)]
                for (window_id, key) in previous
                if (window_id, key) not in current
            ]
            executors[name] = {
                "events_seen": state["events_seen"],
                "last_time": state["last_time"],
                "changed": changed,
                "removed": removed,
            }
        delta: Dict[str, object] = {
            "store_version": STORE_VERSION,
            "kind": "delta",
            "id": checkpoint_id,
            "parent": chain[-1]["id"],
            "executors": executors,
            "extra": {
                key: value
                for key, value in snapshot.items()
                if key not in _DELTA_FULL_KEYS and key != "executors"
            },
        }
        for key in _DELTA_FULL_KEYS:
            delta[key] = snapshot[key]
        name = f"delta-{checkpoint_id:08d}.json"
        payload = json.dumps(delta, sort_keys=True)
        (self.directory / name).write_text(payload)
        chain.append({"id": checkpoint_id, "kind": "delta", "file": name})
        self._prune = []
        return CheckpointEntry(
            checkpoint_id, "delta", self.directory / name, len(payload)
        )

    def _apply_prune(self) -> None:
        for path in self._prune:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - already gone
                pass
        self._prune = []

    # -- reading ---------------------------------------------------------------

    def load_latest(self) -> Optional[Dict[str, object]]:
        """Reconstruct the newest checkpoint, or ``None`` for an empty store.

        Replays the chain: the base snapshot, then every delta in order --
        changed aggregator entries replace or extend the set, removed ones
        (windows emitted and evicted between checkpoints) are dropped, and
        the small whole-value sections (ingest, metrics, ...) are taken
        from the newest delta.

        Reading works on a closed store too -- closing only stops writes.
        """
        started = _perf_counter()
        if self._queue is not None and not self._closed:
            self.flush()
        manifest = self._read_manifest()
        chain: List[Dict[str, object]] = manifest["chain"]
        if not chain:
            return None
        if chain[0].get("kind") != "base":
            raise CheckpointError(
                f"checkpoint store at {self.directory} has a chain that does "
                f"not start with a base snapshot; the store is corrupt"
            )
        snapshot = self._read_file(chain[0])["snapshot"]
        self._validate_snapshot_shape(snapshot, chain[0])
        previous_id = int(chain[0]["id"])
        for link in chain[1:]:
            delta = self._read_file(link)
            if delta.get("kind") != "delta":
                raise CheckpointError(
                    f"checkpoint {link.get('file')} should be a delta but "
                    f"records kind {delta.get('kind')!r}; the store is corrupt"
                )
            if delta.get("parent") != previous_id:
                raise CheckpointError(
                    f"checkpoint {link.get('file')} continues checkpoint "
                    f"{delta.get('parent')!r} but the chain is at "
                    f"{previous_id}; the store is corrupt"
                )
            snapshot = self._apply_delta(snapshot, delta, link)
            previous_id = int(delta["id"])
        if self._restore_timer is not None:
            self._restore_timer.observe(_perf_counter() - started)
        return snapshot

    def _read_file(self, link: Dict[str, object]) -> Dict[str, object]:
        path = self.directory / str(link["file"])
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"checkpoint file {path} is missing, truncated or corrupt "
                f"({exc}); the newest usable state is an earlier chain -- "
                f"restore from a different store or restart the job"
            ) from exc
        version = payload.get("store_version")
        if version != STORE_VERSION:
            raise CheckpointError(
                f"checkpoint file {path} has layout version {version!r} but "
                f"this build reads {STORE_VERSION}"
            )
        return payload

    @staticmethod
    def _validate_snapshot_shape(snapshot, link) -> None:
        if not isinstance(snapshot, dict) or "executors" not in snapshot:
            raise CheckpointError(
                f"checkpoint {link.get('file')} does not hold a runtime "
                f"snapshot; the store is corrupt"
            )

    @staticmethod
    def _apply_delta(
        snapshot: Dict[str, object], delta: Dict[str, object], link
    ) -> Dict[str, object]:
        try:
            executors: Dict[str, Dict[str, object]] = {}
            for name, change in delta["executors"].items():
                state = snapshot["executors"][name]
                entries = {
                    (int(entry[0]), json.dumps(entry[1])): entry
                    for entry in state["aggregators"]
                }
                for entry in change["changed"]:
                    entries[(int(entry[0]), json.dumps(entry[1]))] = entry
                for window_id, key in change["removed"]:
                    entries.pop((int(window_id), json.dumps(key)), None)
                executors[name] = {
                    "query": state["query"],
                    "granularity": state["granularity"],
                    "events_seen": change["events_seen"],
                    "last_time": change["last_time"],
                    "aggregators": [
                        entries[key] for key in sorted(entries, key=repr)
                    ],
                }
            rebuilt: Dict[str, object] = {"executors": executors}
            for key in _DELTA_FULL_KEYS:
                rebuilt[key] = delta[key]
            rebuilt.update(delta.get("extra", {}))
            return rebuilt
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint delta {link.get('file')} cannot be applied "
                f"({exc}); the store is corrupt"
            ) from exc

    # -- lifecycle -------------------------------------------------------------

    def flush(self) -> None:
        """Wait until every queued background write reached disk."""
        self._check_open()
        if self._queue is not None:
            self._queue.join()
        self._raise_pending_write_error()

    def close(self) -> None:
        """Flush outstanding writes and stop the writer thread (idempotent)."""
        if self._closed:
            return
        if self._queue is not None:
            self._queue.join()
            self._queue.put(None)
            self._writer.join()
        self._closed = True
        self._raise_pending_write_error()

    def _check_open(self) -> None:
        if self._closed:
            raise CheckpointError("this checkpoint store was closed")

    def _raise_pending_write_error(self) -> None:
        if self._write_error is not None:
            error, self._write_error = self._write_error, None
            raise CheckpointError(
                f"a background checkpoint write failed: {error}"
            ) from error

    def _writer_loop(self) -> None:
        while True:
            snapshot = self._queue.get()
            if snapshot is None:
                self._queue.task_done()
                return
            try:
                self._write(snapshot)
                self._apply_prune()
            except BaseException as exc:  # surfaced on the caller's thread
                self._write_error = exc
            finally:
                self._queue.task_done()

    def __enter__(self) -> "CheckpointStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- introspection ---------------------------------------------------------

    @property
    def checkpoint_count(self) -> int:
        """Checkpoints written by this store instance."""
        return len(self.entries)

    def latest_id(self) -> Optional[int]:
        """Id of the newest checkpoint on disk, or ``None`` when empty."""
        chain = self._read_manifest()["chain"]
        return int(chain[-1]["id"]) if chain else None

    def __repr__(self) -> str:
        return (
            f"CheckpointStore({str(self.directory)!r}, "
            f"compact_every={self.compact_every}, "
            f"background={self._queue is not None})"
        )
