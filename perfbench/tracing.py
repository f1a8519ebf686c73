"""Outside-in layer tracing: wrappers around each layer's public entry points.

Nothing under ``src/`` changes.  :func:`install` replaces the entry points
listed in :data:`ENTRY_POINTS` -- class attributes, plus the two ``jsonl``
functions ``repro.streaming.sources`` calls by module global -- with
wrappers *before* the job is built, and :meth:`Tracer.uninstall` puts every
original back.

Two modes, one per traced repetition, because exact counting and honest
timing pull in opposite directions:

``time``
    ``perf_counter`` wrappers with a shared stack.  A span's self time is
    its duration minus the durations of the spans it directly encloses, so
    the self times of all spans plus the root (the driver loop between
    :meth:`Tracer.begin` and :meth:`Tracer.end`) sum to the wall time
    exactly.  Spans are coalesced per ``(slice, name)`` -- a slice is one
    source pull and everything it triggers -- because the hot entry points
    run once per event or per (window, group): see ``COLUMNS.md``.

``count``
    No clocks.  Wrappers count calls and the events handed to each call,
    ``TrendAccumulator`` constructions are counted, and
    :meth:`Tracer.sample` records executor state peaks between slices.
    These repeat exactly from run to run.

The layers are the repository's modules: ``jsonl``, ``sources``, ``ingest``,
``runtime``, ``executor``, ``aggregators``, ``checkpoint``, ``sharded``.
The wrapped entry points are only ever called on the job's driving thread;
worker processes forked by ``ShardedRuntime`` drop the wrappers at once
(an ``os.register_at_fork`` hook), so they run untraced.
"""

from __future__ import annotations

import importlib
import json
import os
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = (
    "jsonl",
    "sources",
    "ingest",
    "runtime",
    "executor",
    "aggregators",
    "checkpoint",
    "sharded",
)

ROOT = "runtime.driver"

CALL, GENERATOR = "call", "generator"

#: ``(module, class or None, attribute, span name, kind, batch argument?)``.
#: ``batch argument`` says how many events one call carries, for the count
#: mode: ``None`` = not an event-carrying call, ``0`` = exactly one event,
#: ``1`` = ``len()`` of the first positional argument after ``self``.
ENTRY_POINTS: Tuple[tuple, ...] = (
    ("repro.streaming.sources", None, "read_jsonl_event_batches", "jsonl.decode", GENERATOR, None),
    ("repro.streaming.sources", None, "record_to_json_line", "jsonl.encode", CALL, None),
    ("repro.streaming.sources", "JsonlFileSource", "batches", "sources.pull", GENERATOR, None),
    ("repro.streaming.sources", "JsonlFileSink", "emit", "sources.sink_emit", CALL, None),
    ("repro.streaming.sources", "JsonlFileSink", "close", "sources.sink_close", CALL, None),
    ("repro.streaming.ingest", "OutOfOrderIngestor", "push", "ingest.push", CALL, 0),
    ("repro.streaming.ingest", "OutOfOrderIngestor", "drain", "ingest.drain", CALL, None),
    ("repro.streaming.runtime", "StreamingRuntime", "process_batch", "runtime.process_batch", CALL, 1),
    ("repro.streaming.runtime", "StreamingRuntime", "flush", "runtime.flush", CALL, None),
    ("repro.streaming.runtime", "StreamingRuntime", "checkpoint", "checkpoint.snapshot", CALL, None),
    ("repro.core.executor", "QueryExecutor", "process", "executor.fold", CALL, 0),
    ("repro.core.executor", "QueryExecutor", "process_batch", "executor.fold", CALL, 1),
    ("repro.core.executor", "QueryExecutor", "advance_time", "executor.advance", CALL, None),
    ("repro.core.executor", "QueryExecutor", "flush", "executor.advance", CALL, None),
    ("repro.streaming.checkpoint", "CheckpointStore", "save", "checkpoint.save", CALL, None),
    ("repro.streaming.checkpoint", "CheckpointStore", "close", "checkpoint.save", CALL, None),
    ("repro.streaming.sharded", "ShardedRuntime", "process_batch", "sharded.process_batch", CALL, 1),
    ("repro.streaming.sharded", "ShardedRuntime", "drain_pending", "sharded.drain_pending", CALL, None),
    ("repro.streaming.sharded", "ShardedRuntime", "flush", "sharded.flush", CALL, None),
    ("repro.streaming.sharded", "ShardedRuntime", "checkpoint", "checkpoint.snapshot", CALL, None),
)

#: the span whose every start opens a new slice
SLICE_SPAN = "sources.pull"

_EXHAUSTED = object()


def _aggregator_entry_points() -> List[tuple]:
    """``process``/``process_run`` of every ``SubstreamAggregator`` subclass."""
    importlib.import_module("repro.extensions.negation")  # registers its subclasses
    base = importlib.import_module("repro.core.base").SubstreamAggregator
    found: List[tuple] = []
    pending = list(base.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "process" in cls.__dict__:
            found.append((cls, "process", "aggregators.process", CALL, 0))
        if "process_run" in cls.__dict__:
            found.append((cls, "process_run", "aggregators.process_run", CALL, 1))
    return found


class Tracer:
    """Installed wrappers plus what they recorded; see the module docstring."""

    def __init__(self, mode: str):
        if mode not in ("time", "count"):
            raise ValueError(f"trace mode must be 'time' or 'count', got {mode!r}")
        self.mode = mode
        #: span name -> [calls, busy seconds, self seconds, first start,
        #: last end, parent of the first call] for the slice in progress
        self._open: Dict[str, list] = {}
        #: finished ``(slice, name, ...)`` rows, in order
        self.rows: List[dict] = []
        #: span name -> [calls, events]; count mode
        self.counts: Dict[str, List[int]] = {}
        self.state_allocs = 0
        self.peaks: Dict[str, int] = {
            "open_windows": 0,
            "storage_units": 0,
            "stored_events": 0,
        }
        self.slice_id = -1
        #: alternating span names and child-time sums, innermost last
        self._stack: list = [ROOT, 0.0]
        self._began = 0.0
        self.wall_s = 0.0
        self._patched: List[Tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every entry point; returns self."""
        targets: List[tuple] = []
        for module_name, class_name, attribute, name, kind, batch in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            targets.append((owner, attribute, name, kind, batch))
        targets.extend(_aggregator_entry_points())
        for owner, attribute, name, kind, batch in targets:
            original = owner.__dict__[attribute]
            if self.mode == "count":
                wrapper = self._counting(original, name, batch)
            elif kind == GENERATOR:
                wrapper = self._timed_generator(original, name)
            else:
                wrapper = self._timed_call(original, name)
            self._patch(owner, attribute, original, wrapper)
        if self.mode == "count":
            accumulator = importlib.import_module(
                "repro.core.aggregate_state"
            ).TrendAccumulator
            original = accumulator.__dict__["__init__"]

            def counting_init(instance, targets, _original=original):
                self.state_allocs += 1
                _original(instance, targets)

            self._patch(accumulator, "__init__", original, counting_init)
        # forked shard workers inherit the patched classes; un-patch there
        os.register_at_fork(after_in_child=self.uninstall)
        return self

    def _patch(self, owner, attribute: str, original, wrapper) -> None:
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped attribute (idempotent)."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # -- the measured section --------------------------------------------------

    def begin(self) -> None:
        """Open the root span: the driver loop starts now."""
        self._stack[:] = [ROOT, 0.0]
        self._began = perf_counter()

    def end(self) -> None:
        """Close the root span and the last slice."""
        ended = perf_counter()
        self.wall_s = ended - self._began
        self._close_slice()
        children = self._stack[1]
        self.rows.append(
            {
                "slice": None,
                "name": ROOT,
                "parent": None,
                "start": self._began,
                "end": ended,
                "calls": 1,
                "busy_s": self.wall_s,
                "self_s": self.wall_s - children,
            }
        )

    def _close_slice(self) -> None:
        for name, cell in self._open.items():
            if cell[0]:
                self.rows.append(
                    {
                        "slice": self.slice_id,
                        "name": name,
                        "parent": cell[5],
                        "start": cell[3],
                        "end": cell[4],
                        "calls": cell[0],
                        "busy_s": cell[1],
                        "self_s": cell[2],
                    }
                )
                cell[0] = 0
                cell[1] = cell[2] = 0.0

    def _cell(self, name: str) -> list:
        return self._open.setdefault(name, [0, 0.0, 0.0, 0.0, 0.0, None])

    def _timed_call(self, original: Callable, name: str) -> Callable:
        cell = self._cell(name)
        stack = self._stack

        def traced(*args, **kwargs):
            parent = stack[-2]
            stack.append(name)
            stack.append(0.0)
            started = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                ended = perf_counter()
                children = stack.pop()
                stack.pop()
                busy = ended - started
                stack[-1] += busy
                if not cell[0] or started < cell[3]:
                    cell[3] = started
                    cell[5] = parent
                cell[0] += 1
                cell[1] += busy
                cell[2] += busy - children
                cell[4] = ended

        return traced

    def _timed_generator(self, original: Callable, name: str) -> Callable:
        """Time every resumption of the generator ``original`` returns."""
        opens_slice = name == SLICE_SPAN

        def traced(*args, **kwargs):
            iterator = original(*args, **kwargs)
            resume = self._timed_call(lambda: next(iterator, _EXHAUSTED), name)

            def resumptions():
                while True:
                    if opens_slice:
                        self._close_slice()
                        self.slice_id += 1
                    item = resume()
                    if item is _EXHAUSTED:
                        return
                    yield item

            return resumptions()

        return traced

    def _counting(self, original: Callable, name: str, batch: Optional[int]) -> Callable:
        count = self.counts.setdefault(name, [0, 0])
        if batch == 1:

            def counted(instance, events, *args, **kwargs):
                count[0] += 1
                count[1] += len(events)
                return original(instance, events, *args, **kwargs)

        else:
            carried = 1 if batch == 0 else 0

            def counted(*args, **kwargs):
                count[0] += 1
                count[1] += carried
                return original(*args, **kwargs)

        return counted

    def sample(self, runtime) -> None:
        """Record executor state peaks (count mode; called between slices).

        Uses only public accessors; a sharded runtime keeps its executors in
        the workers, so its parent reports zeros.
        """
        engine_of = getattr(runtime, "engine", None)
        if engine_of is None:
            return
        windows = units = stored = 0
        for name in runtime.query_names:
            executor = engine_of(name).executor
            windows += executor.open_window_count()
            units += executor.storage_units()
            stored += executor.stored_event_count()
        peaks = self.peaks
        peaks["open_windows"] = max(peaks["open_windows"], windows)
        peaks["storage_units"] = max(peaks["storage_units"], units)
        peaks["stored_events"] = max(peaks["stored_events"], stored)

    # -- results ---------------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """Totals per span name (calls, busy, self) plus counts and peaks."""
        spans: Dict[str, Dict[str, float]] = {}
        for row in self.rows:
            total = spans.setdefault(
                row["name"], {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
            )
            total["calls"] += row["calls"]
            total["busy_s"] += row["busy_s"]
            total["self_s"] += row["self_s"]
        return {
            "mode": self.mode,
            "wall_s": self.wall_s,
            "slices": self.slice_id + 1,
            "spans": spans,
            "counts": {name: list(value) for name, value in self.counts.items()},
            "state_allocs": self.state_allocs,
            "peaks": dict(self.peaks),
        }

    def write(self, path) -> None:
        """Write the coalesced spans as ``trace.jsonl`` (one row per line)."""
        with open(path, "w", encoding="utf-8") as handle:
            for row in self.rows:
                handle.write(json.dumps(row) + "\n")


def layer_self_seconds(spans: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Sum span self times per layer (the prefix of the span name)."""
    totals = {layer: 0.0 for layer in LAYERS}
    for name, total in spans.items():
        totals[name.split(".", 1)[0]] += total["self_s"]
    return totals
