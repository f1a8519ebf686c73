"""Stream statistics used to characterise workloads.

The paper's evaluation varies three workload knobs: the number of events
per window, the selectivity of the predicates on adjacent events, and the
number of trend groups.  This module measures those knobs on an arbitrary
stream, so the benchmark harness can report what it actually fed to each
approach and the tests can verify that the synthetic generators deliver the
properties their docstrings claim (e.g. that
``StockConfig.decrease_probability`` really is the selectivity of
``A.price > NEXT(A).price``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.events.event import Event
from repro.query.predicates import OPERATORS


@dataclass
class AttributeSummary:
    """Minimum, maximum and mean of a numeric attribute."""

    attribute: str
    count: int = 0
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    mean: float = 0.0

    def observe(self, value: float) -> None:
        """Fold one observation into the summary."""
        self.count += 1
        self.minimum = value if self.minimum is None else min(self.minimum, value)
        self.maximum = value if self.maximum is None else max(self.maximum, value)
        self.mean += (value - self.mean) / self.count


@dataclass
class StreamStatistics:
    """Workload-relevant statistics of one event stream."""

    name: str
    event_count: int
    duration_seconds: float
    events_per_second: float
    type_counts: Dict[str, int] = field(default_factory=dict)
    group_attribute: Optional[str] = None
    group_count: int = 0
    attribute_summaries: Dict[str, AttributeSummary] = field(default_factory=dict)

    def describe(self) -> str:
        """Readable multi-line rendering (used by the CLI and the reports)."""
        lines = [
            f"stream            : {self.name}",
            f"events            : {self.event_count:,}",
            f"duration (s)      : {self.duration_seconds:,.1f}",
            f"events per second : {self.events_per_second:,.1f}",
        ]
        if self.type_counts:
            mixture = ", ".join(
                f"{event_type}={count}" for event_type, count in sorted(self.type_counts.items())
            )
            lines.append(f"type mixture      : {mixture}")
        if self.group_attribute is not None:
            lines.append(f"trend groups      : {self.group_count} (by {self.group_attribute})")
        for summary in self.attribute_summaries.values():
            lines.append(
                f"{summary.attribute:<18}: min={summary.minimum} max={summary.maximum} "
                f"mean={summary.mean:.3f} ({summary.count} values)"
            )
        return "\n".join(lines)


def describe_stream(
    events: Iterable[Event],
    name: str = "stream",
    group_attribute: Optional[str] = None,
    numeric_attributes: Iterable[str] = (),
) -> StreamStatistics:
    """Compute :class:`StreamStatistics` over ``events`` in one pass."""
    numeric_attributes = tuple(numeric_attributes)
    type_counts: Dict[str, int] = {}
    summaries = {attribute: AttributeSummary(attribute) for attribute in numeric_attributes}
    groups = set()
    count = 0
    first_time: Optional[float] = None
    last_time: Optional[float] = None

    for event in events:
        count += 1
        first_time = event.time if first_time is None else first_time
        last_time = event.time
        type_counts[event.event_type] = type_counts.get(event.event_type, 0) + 1
        if group_attribute is not None and event.has(group_attribute):
            groups.add(event.get(group_attribute))
        for attribute in numeric_attributes:
            value = event.get(attribute)
            if isinstance(value, (int, float)):
                summaries[attribute].observe(float(value))

    duration = (last_time - first_time) if count and last_time is not None else 0.0
    rate = count / duration if duration > 0 else float(count)
    return StreamStatistics(
        name=name,
        event_count=count,
        duration_seconds=duration,
        events_per_second=rate,
        type_counts=type_counts,
        group_attribute=group_attribute,
        group_count=len(groups),
        attribute_summaries=summaries,
    )


def type_mixture(events: Iterable[Event]) -> Dict[str, float]:
    """Fraction of the stream contributed by each event type."""
    counts: Dict[str, int] = {}
    total = 0
    for event in events:
        counts[event.event_type] = counts.get(event.event_type, 0) + 1
        total += 1
    if total == 0:
        return {}
    return {event_type: count / total for event_type, count in counts.items()}


def adjacent_selectivity(
    events: Iterable[Event],
    attribute: str,
    op: str = ">",
    partition_attribute: Optional[str] = None,
    event_type: Optional[str] = None,
) -> float:
    """Fraction of consecutive event pairs satisfying ``left.attr op right.attr``.

    This is the empirical selectivity of an adjacent predicate such as
    ``A.price > NEXT(A).price`` (Figure 9 of the paper).  Pairs are formed
    between consecutive events of the same partition (e.g. the same
    company) when ``partition_attribute`` is given, and optionally
    restricted to one event type.  Returns 0.0 when no pair qualifies.
    """
    compare = OPERATORS[op]
    last_value: Dict[object, float] = {}
    satisfied = 0
    pairs = 0
    for event in events:
        if event_type is not None and event.event_type != event_type:
            continue
        value = event.get(attribute)
        if not isinstance(value, (int, float)):
            continue
        key = event.get(partition_attribute) if partition_attribute else None
        previous = last_value.get(key)
        if previous is not None:
            pairs += 1
            if compare(previous, value):
                satisfied += 1
        last_value[key] = value
    return satisfied / pairs if pairs else 0.0


def events_per_group(
    events: Iterable[Event], group_attribute: str
) -> Dict[object, int]:
    """Number of events carried by each value of ``group_attribute``."""
    counts: Dict[object, int] = {}
    for event in events:
        if event.has(group_attribute):
            key = event.get(group_attribute)
            counts[key] = counts.get(key, 0) + 1
    return counts


def load_imbalance(events: Iterable[Event], group_attribute: str) -> float:
    """Ratio of the largest to the average group size (1.0 = perfectly even).

    Used to sanity-check the parallel-execution benchmarks: a heavily skewed
    stream bounds the speed-up attainable by partition parallelism.
    """
    counts = events_per_group(events, group_attribute)
    if not counts:
        return 0.0
    average = sum(counts.values()) / len(counts)
    return max(counts.values()) / average if average else 0.0


def window_event_counts(
    events: Iterable[Event], window
) -> List[Tuple[int, int]]:
    """Number of events falling into every window of a window specification.

    Returns ``(window id, event count)`` pairs sorted by window id; useful
    to report the "events per window" axis the paper's figures sweep.
    """
    counts: Dict[int, int] = {}
    for event in events:
        for window_id in window.windows_of(event.time):
            counts[window_id] = counts.get(window_id, 0) + 1
    return sorted(counts.items())
