"""Stream partitioning helpers (Section 7 of the paper).

Sliding windows, GROUP-BY attributes and stream-partitioning equivalence
predicates ``[attr]`` split the input stream into independent sub-streams.
The COGRA executor partitions lazily, event by event; the two-step baselines
and the correctness oracle partition eagerly with the helpers of this
module so that every approach agrees on what a sub-stream is.
:func:`shard_index` maps a partition key to the worker process owning it
in the sharded streaming runtime.
"""

from __future__ import annotations

import zlib
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.events.event import Event
from repro.query.query import Query
from repro.query.windows import WindowSpec

#: A sub-stream is identified by its window id and its group key.
SubstreamKey = Tuple[int, Tuple]

#: key components whose ``repr`` differs from that of an equal ``int``
_NUMERIC = (bool, float)


def _equality_class(value):
    """``int`` for a bool or an integral float, otherwise ``value`` itself."""
    if isinstance(value, float):
        return int(value) if value.is_integer() else value
    if isinstance(value, bool):
        return int(value)
    return value


def shard_index(key: Tuple, shard_count: int) -> int:
    """Deterministic owner shard of a partition key.

    Both the sharded streaming runtime's router and its checkpoint
    splitter map keys to workers through this function, so a checkpoint
    taken under one worker count restores correctly under another.  The
    hash is CRC-32 of the key's ``repr`` rather than the builtin ``hash``:
    per-process ``PYTHONHASHSEED`` randomisation would make workers and
    parent disagree about key ownership.  The executor groups keys by
    ``==``, so ``1``, ``1.0`` and ``True`` are one sub-stream; bool and
    integral float components are hashed as the equal ``int`` so that they
    stay on one shard.  Keys of ``str``, ``int`` and ``None`` hash as their
    plain ``repr``.
    """
    if shard_count <= 1:
        return 0
    for value in key:
        if isinstance(value, _NUMERIC):
            key = tuple(map(_equality_class, key))
            break
    return zlib.crc32(repr(key).encode("utf-8")) % shard_count


def single_shard_reason(
    queries: Mapping[str, Tuple[Tuple[str, ...], bool]],
) -> Optional[str]:
    """Why these queries cannot split a stream across shards, or ``None``.

    ``queries`` maps each query name to its partition attributes and
    whether it uses a count-based window.  The sharded runtime falls back
    to one shard, and a job config warns that it will, for the reason this
    returns: a count window (its event ordinals are global to the stream),
    a query without partition attributes, or queries partitioning on
    different attributes.
    """
    count_windowed = sorted(name for name, (_, count) in queries.items() if count)
    if count_windowed:
        return (
            f"queries {count_windowed} use count-based windows, whose event "
            "ordinals are global to the stream and cannot be split across "
            "shards; running a single shard"
        )
    unpartitioned = sorted(name for name, (keys, _) in queries.items() if not keys)
    if unpartitioned:
        return (
            f"queries {unpartitioned} have no partition attributes (no GROUP-BY "
            "or equivalence predicate), so the stream cannot be split; running "
            "a single shard"
        )
    signatures = sorted({attributes for attributes, _ in queries.values()})
    if len(signatures) > 1:
        return (
            f"registered queries partition on different attributes {signatures}; "
            "one event would belong to different shards for different queries; "
            "running a single shard"
        )
    return None


def group_key(event: Event, attributes: Sequence[str]) -> Tuple:
    """Grouping key of ``event`` for the given partition attributes."""
    return tuple(event.get(attribute) for attribute in attributes)


def partition_by_group(
    events: Iterable[Event], attributes: Sequence[str]
) -> Dict[Tuple, List[Event]]:
    """Split ``events`` into per-group lists, preserving arrival order."""
    groups: Dict[Tuple, List[Event]] = {}
    for event in events:
        groups.setdefault(group_key(event, attributes), []).append(event)
    return groups


def windows_of(event: Event, window: Optional[WindowSpec]) -> List[int]:
    """Window identifiers containing ``event`` (``[0]`` without a window)."""
    if window is None:
        return [0]
    return window.windows_of(event.time)


def window_bounds(window: Optional[WindowSpec], window_id: int) -> Tuple[Optional[float], Optional[float]]:
    """``(start, end)`` of the window or ``(None, None)`` without a window."""
    if window is None:
        return (None, None)
    return window.window_interval(window_id)


def substreams(
    query: Query, events: Iterable[Event]
) -> Iterator[Tuple[SubstreamKey, List[Event]]]:
    """Yield ``((window_id, group_key), events)`` sub-streams of ``query``.

    Events are replicated into every window that contains them, exactly as
    the runtime executor does.  The order of events inside a sub-stream is
    the arrival order, and sub-streams are yielded ordered by window id and
    then by first appearance of the group.
    """
    attributes = query.partition_attributes
    window = query.window
    collected: Dict[SubstreamKey, List[Event]] = {}
    for event in events:
        key = group_key(event, attributes)
        for window_id in windows_of(event, window):
            collected.setdefault((window_id, key), []).append(event)
    for substream_key in sorted(collected, key=lambda item: (item[0], repr(item[1]))):
        yield substream_key, collected[substream_key]


def filter_local_predicates(query: Query, events: Iterable[Event]) -> List[Event]:
    """Drop events of pattern types that fail the query's local predicates.

    Events of types that do not occur in the pattern are kept: they are
    invisible to skip-till-any/next-match but break contiguity under the
    contiguous semantics (like ``c5`` in the paper's running example).
    """
    variable_types = query.pattern.variable_types()
    types_of_pattern = set(variable_types.values())
    local = query.local_predicates
    if not local:
        return list(events)

    def passes(event: Event) -> bool:
        if event.event_type not in types_of_pattern:
            return True
        relevant_variables = [
            variable
            for variable, event_type in variable_types.items()
            if event_type == event.event_type
        ]
        for variable in relevant_variables:
            ok = True
            for predicate in local:
                if predicate.variable in (None, variable) and not predicate.evaluate(event):
                    ok = False
                    break
            if ok:
                return True
        return False

    return [event for event in events if passes(event)]
