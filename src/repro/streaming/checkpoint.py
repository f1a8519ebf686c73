"""Checkpointing: snapshot/restore of runtime state and the on-disk store.

A checkpoint captures everything an executor accumulated mid-stream -- per
(window, group) aggregators, their :class:`~repro.core.aggregate_state.
TrendAccumulator` cells, stored events, and the executor's clock -- as a
tree of JSON-serialisable primitives.  Restoring the snapshot into a fresh
runtime configured with the *same queries* continues the computation as if
it had never stopped: the final results are identical, which the test suite
asserts window by window.

The snapshot format is structural: every aggregator class
registers an (extract, apply) handler pair below, so checkpoints are
inspectable, diffable, and independent of Python object layout.  Unknown
aggregator classes raise :class:`~repro.errors.CheckpointError` instead of
silently writing an incomplete snapshot.

On top of the snapshot codec, :class:`CheckpointStore` persists the
newest checkpoint to a directory as one full snapshot, replacing the
previous one.  The store writes in the caller's thread: a checkpoint is on
disk when :meth:`save` returns.

Each snapshot entry ``[window_id, key, state]`` is encoded once, where its
aggregator lives: the bytes the entry has inside ``json.dumps(snapshot,
sort_keys=True)``, which a type-grained plan's generated encoder
(:func:`entry_encoder`) writes straight from the live aggregator and the
reference (:func:`reference_entry_text`) writes otherwise.  Both runtimes
cut entries in that form (:class:`EncodedEntry`), so a sharded parent
neither rebuilds nor re-encodes the state its workers ship.  Files join those texts into
their envelope member by member, so every file is byte for byte a plain
``json.dumps(payload, sort_keys=True)`` and no state is encoded twice.
"""

from __future__ import annotations

import json
import os
from json.encoder import encode_basestring_ascii as _encode_string
from pathlib import Path
from time import perf_counter as _perf_counter
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

from repro.analyzer.codegen import Constants, compile_generated
from repro.core.aggregate_state import WIDTH, TrendAccumulator
from repro.core.base import aggregator_class, create_aggregator
from repro.core.executor import QueryExecutor
from repro.core.partitioner import shard_index
from repro.core.type_grained import TypeGrainedAggregator
from repro.errors import CheckpointError, StateQuotaError
from repro.events.event import Event
from repro.streaming.jsonl import event_from_json, event_to_json

#: bump when the snapshot layout changes incompatibly
CHECKPOINT_VERSION = 1

#: the one encoder of checkpoint JSON: ``json.dumps(value, sort_keys=True)``
#: without the cycle check, which a tree of fresh primitives never needs
_encode = json.JSONEncoder(sort_keys=True, check_circular=False).encode


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
    # one table holds both kinds of cell: the variables' by name, the
    # compatible ones by (component index, variable)
    cells = aggregator._cells.items()
    return {
        "full": {
            key: snapshot_accumulator(cell)
            for key, cell in cells
            if isinstance(key, str)
        },
        "compatible": [
            [*key, snapshot_accumulator(cell)]
            for key, cell in cells
            if not isinstance(key, str)
        ],
    }


def _apply_negation_type(aggregator, state) -> None:
    _apply_type(aggregator, {"cells": state["full"]})
    aggregator._cells.update(
        ((int(index), variable), restore_accumulator(cell))
        for index, variable, cell in state["compatible"]
    )


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


# ---------------------------------------------------------------------------
# the generated entry encoder
# ---------------------------------------------------------------------------
#
# A type-grained plan generates, on its first cut, ``render(window_id, key,
# aggregator)``: the entry's text in exactly the bytes of
# :func:`reference_entry_text`, written straight from the live aggregator.
# The layout the plan fixes -- class name, sorted variable names, the
# targets' JSON, the slot layout -- is bound constants; ints, finite floats,
# ``None`` and str key parts are rendered inline.  On any other value (a
# bool, a subclass, a non-finite float) ``render`` returns ``None`` and the
# entry is written by the reference, the way the generated groupers fall
# back to ``plan.bind``.  Every other class's encoder is :func:`_declined`:
# the reference writes all its entries, as no measured workload checkpoints
# them.


def _number(name: str) -> str:
    """Source: ``name`` is an int or a finite float, whose ``str`` is its JSON."""
    finite = f"{name} - {name} == 0.0"
    return f"({name}.__class__ is int or {name}.__class__ is float and {finite})"


def _optional(name: str) -> str:
    """Source: ``name`` is ``None`` or :func:`_number`."""
    return f"({name} is None or {_number(name)})"


def _literal(text: str) -> str:
    """``text`` inside a generated f-string."""
    return text.replace("{", "{{").replace("}", "}}")


def _field(expression: str) -> str:
    """The value of ``expression`` inside a generated f-string."""
    return "{" + expression + "}"


class _EntrySource:
    """The body of one plan's generated ``render``, emitted line by line."""

    def __init__(self, plan):
        self.constants = Constants(
            cls=TypeGrainedAggregator,
            targets=plan.targets,
            targets_text=_encode([list(target) for target in plan.targets]),
            string=_encode_string,
        )
        #: slots of one accumulator: :data:`WIDTH` a target
        self.width = WIDTH * len(plan.targets)
        self.lines: List[str] = []

    def emit(self, line: str) -> None:
        self.lines.append("        " + line)

    def refuse_unless(self, *conditions: str) -> None:
        """Lines returning ``None`` (the reference writes the entry) unless all hold."""
        self.emit(f"if not ({' and '.join(conditions)}):")
        self.emit("    return None")

    def text(self, value: str) -> str:
        """A bound piece of JSON text, as an f-string field."""
        return _field(self.constants("text", value))


def _accumulator(source: _EntrySource, cell: str, expression: str) -> str:
    """Lines reading the accumulator at ``expression``; the source of its text.

    The text is :func:`snapshot_accumulator`'s, ``cell`` names its locals.
    """
    count = f"{cell}_count"
    slots = [f"{cell}_{index}" for index in range(source.width)]
    source.emit(f"{cell} = {expression}")
    source.refuse_unless(f"{cell}.targets is targets or {cell}.targets == targets")
    source.emit(f"{count} = {cell}.trend_count")
    source.emit(f"[{', '.join(slots)}] = {cell}.slots")
    # occurrence count and sum are numbers, min and max also None
    plain = [index % WIDTH < 2 for index in range(len(slots))]
    source.refuse_unless(
        _number(count),
        *(_number(s) if p else _optional(s) for s, p in zip(slots, plain)),
    )
    fields = [
        _field(s) if p else _field(f'"null" if {s} is None else {s}')
        for s, p in zip(slots, plain)
    ]
    states = ", ".join(
        "[" + ", ".join(fields[base : base + WIDTH]) + "]"
        for base in range(0, len(fields), WIDTH)
    )
    return (
        _literal('{"states": [')
        + states
        + _literal('], "targets": ')
        + _field("targets_text")
        + _literal(', "trend_count": ')
        + _field(count)
        + _literal("}")
    )


def _type_state(source: _EntrySource, plan) -> str:
    """Lines reading a type-grained ``aggregator``; the source of its state's text.

    The text is :func:`_extract_type`'s.
    """
    variables = sorted(TypeGrainedAggregator(plan)._cells)
    source.emit("cells = aggregator._cells")
    source.refuse_unless(f"len(cells) == {len(variables)}")
    members = []
    for index, variable in enumerate(variables):
        name = source.constants("variable", variable)
        text = _accumulator(source, f"cell{index}", f"cells[{name}]")
        members.append(source.text(_encode(variable) + ": ") + text)
    return _literal('{"cells": {') + ", ".join(members) + _literal("}}")


#: aggregator class name -> (extract, apply) state handlers
_HANDLERS: Dict[str, Tuple[Callable, Callable]] = {
    "PatternGrainedAggregator": (_extract_pattern, _apply_pattern),
    "TypeGrainedAggregator": (_extract_type, _apply_type),
    "MixedGrainedAggregator": (_extract_mixed, _apply_mixed),
    "EventGrainedAggregator": (_extract_event, _apply_event),
    # negation-aware variants (repro.extensions.negation); their immutable
    # configuration (components, crossing edges) is rebuilt by the plan,
    # only the mutable state travels through the checkpoint
    "NegationPatternGrainedAggregator": (_extract_pattern, _apply_pattern),
    "NegationTypeGrainedAggregator": (_extract_negation_type, _apply_negation_type),
    "NegationEventGrainedAggregator": (_extract_negation_event, _apply_negation_event),
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


def _class_mismatch(recorded: str, built: str) -> CheckpointError:
    return CheckpointError(
        f"checkpoint holds a {recorded!r} aggregator but the plan "
        f"builds {built!r}; was the query or granularity changed?"
    )


def restore_aggregator_state(aggregator, snapshot: Dict[str, object]) -> None:
    """Apply a snapshot to a freshly constructed aggregator of the same class."""
    class_name = type(aggregator).__name__
    if snapshot["class"] != class_name:
        raise _class_mismatch(snapshot["class"], class_name)
    _, apply = _HANDLERS[class_name]
    aggregator.events_processed = int(snapshot["events_processed"])
    apply(aggregator, snapshot["state"])


def reference_entry_text(window_id: int, key, aggregator) -> str:
    """The reference text of one ``[window_id, key, state]`` entry.

    The tree of primitives (:func:`snapshot_aggregator`) encoded: what
    every generated encoder writes byte for byte, and what
    :func:`encode_entry` writes for an entry the encoder declines.
    """
    return _encode([window_id, list(key), snapshot_aggregator(aggregator)])


def _declined(window_id: int, key, aggregator) -> None:
    """The encoder of a plan that is not type-grained: the reference writes."""
    return None


def _generate_encoder(plan) -> Callable:
    """Compile ``plan``'s ``render(window_id, key, aggregator)`` (see above)."""
    if aggregator_class(plan) is not TypeGrainedAggregator:
        return _declined
    source = _EntrySource(plan)
    source.refuse_unless("aggregator.__class__ is cls", "window_id.__class__ is int")
    parts = [f"part{index}" for index in range(len(plan.partition_attributes))]
    source.emit(f"[{', '.join(parts)}] = key")
    for part in parts:
        source.emit(f"if {part}.__class__ is str:")
        source.emit(f"    {part} = string({part})")
        source.emit(f"elif {part} is None:")
        source.emit(f'    {part} = "null"')
        source.emit(f"elif not {_number(part)}:")
        source.emit("    return None")
    source.emit("processed = aggregator.events_processed")
    source.refuse_unless(_number("processed"))
    state = _type_state(source, plan)
    entry = (
        "["
        + _field("window_id")
        + ", ["
        + ", ".join(_field(part) for part in parts)
        + "], "
        + source.text('{"class": "TypeGrainedAggregator", "events_processed": ')
        + _field("processed")
        + _literal(', "state": ')
        + state
        + _literal("}")
        + "]"
    )
    source.emit(f"return f'{entry}'")
    text = "\n".join(
        [
            f"def build({', '.join(source.constants.names)}):",
            "    def render(window_id, key, aggregator):",
            *source.lines,
            "",
            "    return render",
            "",
        ]
    )
    return compile_generated(
        f"<checkpoint {plan.query.name}>", text, *source.constants.values
    )


def entry_encoder(plan) -> Callable:
    """``plan``'s generated ``render(window_id, key, aggregator)``.

    Returns the entry's :func:`reference_entry_text`, or ``None`` for a
    value it does not render inline (for every entry of a plan that is not
    type-grained); a count past the int-to-str digit limit raises
    ``ValueError`` as the reference does.  Generated on the plan's first
    cut and kept on the plan.
    """
    render = plan.checkpoint_encoder
    if render is None:
        render = plan.checkpoint_encoder = _generate_encoder(plan)
    return render


def encode_entry(render: Callable, window_id: int, key, aggregator):
    """One open aggregator as an :class:`EncodedEntry` through ``render``.

    Where ``render`` declines, the reference writes the entry; an entry the
    reference refuses too (an integer past the digit limit, a value JSON
    cannot hold) stays a ``[window_id, key, state]`` list: it still
    migrates between workers and restores, and saving it raises in the
    store exactly as before it was encoded.
    """
    try:
        text = render(window_id, key, aggregator)
    except (KeyError, TypeError, ValueError):
        # a state the plan's layout does not describe, or a value its
        # inline rendering refuses: the reference decides
        text = None
    if text is None:
        entry = [window_id, list(key), snapshot_aggregator(aggregator)]
        try:
            text = _encode(entry)
        except (TypeError, ValueError):
            return entry
    return EncodedEntry(window_id, list(key), text)


# ---------------------------------------------------------------------------
# executors
# ---------------------------------------------------------------------------


def _entry_order(entry) -> Tuple[int, str]:
    """Canonical position of a ``[window_id, key, state]`` snapshot entry.

    The entries are a set keyed by ``(window_id, key)`` -- restore, merge
    and split all treat them so; one order makes snapshots of equal state
    equal and diffable.
    """
    return (entry[0], repr(entry[1]))


class EncodedEntry(NamedTuple):
    """A snapshot entry carried as its :func:`entry_text`.

    The form of every entry in a sharded cut: the worker holding the
    aggregator encodes it, merge, split and re-homing read only
    ``window_id`` and ``key``, the store writes ``text`` as it is, and
    :func:`decode_entry` rebuilds the ``[window_id, key, state]`` list.
    """

    window_id: int
    key: list
    text: str


def entry_text(entry) -> str:
    """The canonical JSON text of a ``[window_id, key, state]`` entry.

    Byte for byte the entry inside ``json.dumps(snapshot, sort_keys=True)``.
    An integer past CPython's int-to-str digit limit raises ``ValueError``.
    """
    if type(entry) is EncodedEntry:
        return entry.text
    return _encode(entry)


def decode_entry(entry) -> list:
    """The ``[window_id, key, state]`` list of an entry in either form."""
    if type(entry) is EncodedEntry:
        return json.loads(entry.text)
    return entry


def decoded_snapshot(snapshot: Dict[str, object]) -> Dict[str, object]:
    """``snapshot`` with every entry decoded: the public form of a cut."""
    executors = {
        name: {**state, "aggregators": [decode_entry(e) for e in state["aggregators"]]}
        for name, state in snapshot["executors"].items()
    }
    return {**snapshot, "executors": executors}


def snapshot_executor(executor: QueryExecutor) -> Dict[str, object]:
    """One executor's runtime state, each entry encoded where it lives.

    Every entry is what :func:`encode_entry` makes of it with the plan's
    generated encoder: an :class:`EncodedEntry`, or the list the reference
    refuses to encode.  :func:`decoded_snapshot` gives the tree form.
    """
    render = entry_encoder(executor.plan)
    aggregators = [
        encode_entry(render, window_id, key, aggregator)
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


def check_aggregator_classes(plan, state: Dict[str, object]) -> None:
    """Raise unless ``plan`` builds the class of every aggregator in ``state``.

    :func:`restore_executor` fails on the first mismatching entry anyway;
    the sharded parent calls this before any worker restores, so the
    mismatch surfaces as the same :class:`~repro.errors.CheckpointError`.
    """
    built = aggregator_class(plan).__name__
    for entry in state["aggregators"]:
        recorded = decode_entry(entry)[2]["class"]
        if recorded != built:
            raise _class_mismatch(recorded, built)


def restore_executor(executor: QueryExecutor, state: Dict[str, object]) -> None:
    """Restore a snapshot into an executor built from the same plan.

    The executor's existing runtime state is discarded; its plan (and hence
    its aggregator classes) must match the checkpointed one, which is
    validated via the recorded granularity and per-aggregator class names.
    """
    granularity = executor.plan.granularity.value
    if state["granularity"] != granularity:
        raise CheckpointError(
            f"checkpoint was taken at granularity {state['granularity']!r} but "
            f"the plan selects {granularity!r}"
        )
    plan = executor.plan
    restored = []
    for entry in state["aggregators"]:
        window_id, key_values, aggregator_state = decode_entry(entry)
        aggregator = create_aggregator(plan)
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


def _unwritable(culprit: str) -> CheckpointError:
    """The error of a snapshot holding an integer JSON cannot write.

    Trend counts grow exponentially, and CPython refuses to write an int
    of more than ``sys.get_int_max_str_digits()`` digits (4,300 by
    default).
    """
    return CheckpointError(
        f"cannot write the checkpoint: {culprit} holds an integer past "
        f"Python's int-to-str digit limit; raise the limit with "
        f"sys.set_int_max_str_digits() before the job starts"
    )


def _object(value: Dict[str, object], encoded: Dict[str, str]) -> str:
    """``json.dumps({**value, **encoded}, sort_keys=True)``, ``encoded`` as JSON text.

    How a file holds entry texts as they are: the object is joined member
    by member, with no placeholder spliced into a finished encoding.
    """
    members = {key: _encode(item) for key, item in value.items() if key not in encoded}
    members.update(encoded)
    joined = ", ".join(f"{_encode(key)}: {members[key]}" for key in sorted(members))
    return "{" + joined + "}"


def _executors_json(executors: Dict[str, Dict]) -> str:
    """The ``executors`` section of a snapshot, each entry joined as its text.

    An entry past the int-to-str digit limit raises, naming its query.
    """
    members = {}
    for name, state in executors.items():
        try:
            texts = [entry_text(entry) for entry in state["aggregators"]]
        except ValueError as exc:
            raise _unwritable(f"query {name!r}") from exc
        members[name] = _object(state, {"aggregators": "[" + ", ".join(texts) + "]"})
    return _object({}, members)


def _joined(value: Dict[str, object], encoded: Dict[str, str]) -> str:
    """:func:`_object` for a file's envelope; a digit-limit error names the snapshot."""
    try:
        return _object(value, encoded)
    except ValueError as exc:
        raise _unwritable("the snapshot") from exc


def _write_text(path: Path, text: str) -> None:
    """Write one checkpoint file: every file this module writes goes through here."""
    path.write_text(text)


def save_checkpoint(state: Dict[str, object], path) -> Path:
    """Write a snapshot (e.g. ``StreamingRuntime.checkpoint()``) as JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    executors_json = _executors_json(state["executors"])
    _write_text(path, _joined(state, {"executors": executors_json}))
    return path


def load_checkpoint(path) -> Dict[str, object]:
    """Read a snapshot previously written by :func:`save_checkpoint`."""
    path = Path(path)
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot load checkpoint {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# the checkpoint store
# ---------------------------------------------------------------------------

#: bump when the store's file/manifest layout changes incompatibly
STORE_VERSION = 1

_MANIFEST_NAME = "MANIFEST.json"


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


class CheckpointStore:
    """A directory holding the newest full checkpoint.

    Layout: ``MANIFEST.json`` names the current *base* file, which holds a
    full snapshot; every :meth:`save` writes a new base, points the
    manifest at it and deletes the one it replaces.  :meth:`load_latest`
    reads it back as a snapshot that restores into any runtime the
    snapshot schema allows (single-process or sharded, any worker count).

    Parameters
    ----------
    directory:
        Where the checkpoint lives.  Created if missing; an existing
        checkpoint is picked up and replaced by the first :meth:`save`.
    registry:
        Optional
        :class:`~repro.streaming.observability.MetricsRegistry` recording
        write durations and bytes (labelled ``kind="base"``) and
        :meth:`load_latest` durations.
    max_state_bytes:
        Optional cap on the serialized size of a snapshot's aggregator
        state (the ``executors`` section).  :meth:`save` raises
        :class:`~repro.errors.StateQuotaError` when a snapshot exceeds it
        -- checkpoint time is when a job's state is serialized anyway, so
        it is the natural (and cheap) enforcement point for the job
        server's per-tenant state quotas.
    tenant:
        Optional tenant name carried into the quota error, for the job
        server's per-tenant accounting.

    A save encodes each entry at most once: a sharded cut arrives with its
    entries already encoded (:class:`EncodedEntry`), a single-process one
    is encoded entry by entry.  The file and the quota count join the same
    texts, so every file is byte for byte ``json.dumps(payload,
    sort_keys=True)``.  An integer past CPython's int-to-str digit limit
    raises :class:`~repro.errors.CheckpointError` naming its query.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        registry=None,
        max_state_bytes: Optional[int] = None,
        tenant: Optional[str] = None,
    ):
        if max_state_bytes is not None and max_state_bytes < 1:
            raise ValueError(
                f"max_state_bytes must be a positive byte count, "
                f"got {max_state_bytes}"
            )
        self.max_state_bytes = max_state_bytes
        self.tenant = tenant
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._write_timer = None
        self._byte_counter = None
        self._restore_timer = None
        if registry is not None:
            self._write_timer = registry.histogram(
                "cogra_checkpoint_write_seconds",
                "disk write duration of one checkpoint file",
                ("kind",),
            ).labels("base")
            self._byte_counter = registry.counter(
                "cogra_checkpoint_bytes_total",
                "serialized checkpoint bytes written to the store",
                ("kind",),
            ).labels("base")
            self._restore_timer = registry.histogram(
                "cogra_checkpoint_restore_seconds",
                "duration of reconstructing the newest checkpoint chain",
            ).labels()
        #: metadata of every checkpoint written by THIS store instance
        self.entries: List[CheckpointEntry] = []
        self._manifest = self._read_manifest()
        self._closed = False

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
        _write_text(temporary, json.dumps(self._manifest, sort_keys=True))
        os.replace(temporary, path)

    # -- writing ---------------------------------------------------------------

    def save(self, snapshot: Dict[str, object]) -> CheckpointEntry:
        """Persist a runtime snapshot (a cut or its decoded form); return the entry."""
        self._check_open()
        if snapshot.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"snapshot version {snapshot.get('version')!r} does not match "
                f"this build's checkpoint version {CHECKPOINT_VERSION}; was it "
                f"produced by runtime.checkpoint()?"
            )
        return self._write(snapshot)

    def _write(self, snapshot: Dict[str, object]) -> CheckpointEntry:
        """Encode and quota-check ``snapshot``, then write it as the new base."""
        started = _perf_counter()
        executors_json = _executors_json(snapshot["executors"])
        if self.max_state_bytes is not None:
            # JSON escapes every non-ASCII character: one byte a character
            state_bytes = len(executors_json)
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
        checkpoint_id = int(self._manifest["next_id"])
        payload = _joined(
            {"store_version": STORE_VERSION, "kind": "base", "id": checkpoint_id},
            {"snapshot": _joined(snapshot, {"executors": executors_json})},
        )
        name = f"base-{checkpoint_id:08d}.json"
        path = self.directory / name
        _write_text(path, payload)
        # the new base replaces the old one, whose file is deleted once the
        # manifest no longer names it
        superseded = [self.directory / link["file"] for link in self._manifest["chain"]]
        self._manifest["next_id"] = checkpoint_id + 1
        self._manifest["chain"] = [{"id": checkpoint_id, "kind": "base", "file": name}]
        self._write_manifest()
        entry = CheckpointEntry(checkpoint_id, "base", path, len(payload))
        self.entries.append(entry)
        if self._write_timer is not None:
            self._write_timer.observe(_perf_counter() - started)
            self._byte_counter.inc(entry.bytes_written)
        for stale in superseded:
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - already gone
                pass
        return entry

    # -- reading ---------------------------------------------------------------

    def load_latest(self) -> Optional[Dict[str, object]]:
        """The newest checkpoint's snapshot, or ``None`` for an empty store.

        Reading works on a closed store too -- closing only stops writes.
        """
        started = _perf_counter()
        chain: List[Dict[str, object]] = self._read_manifest()["chain"]
        if not chain:
            return None
        if len(chain) > 1:
            raise CheckpointError(
                f"checkpoint store manifest {self.directory / _MANIFEST_NAME} "
                f"chains {len(chain)} files: a base followed by incremental "
                f"deltas, which this build no longer reads; recover with the "
                f"build that wrote it or start a fresh directory"
            )
        path = self.directory / str(chain[0]["file"])
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(
                f"checkpoint file {path} is missing, truncated or corrupt "
                f"({exc}); restore from a different store or restart the job"
            ) from exc
        version = payload.get("store_version")
        if version != STORE_VERSION:
            raise CheckpointError(
                f"checkpoint file {path} has layout version {version!r} but "
                f"this build reads {STORE_VERSION}"
            )
        snapshot = payload.get("snapshot")
        if not isinstance(snapshot, dict) or "executors" not in snapshot:
            raise CheckpointError(
                f"checkpoint {path} does not hold a runtime snapshot; the "
                f"store is corrupt"
            )
        if self._restore_timer is not None:
            self._restore_timer.observe(_perf_counter() - started)
        return snapshot

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Stop accepting writes (idempotent); reads keep working."""
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise CheckpointError("this checkpoint store was closed")

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
        return f"CheckpointStore({str(self.directory)!r})"
