"""Incremental aggregate cells (Table 8 of the paper).

A :class:`TrendAccumulator` summarises a *multiset of (partial) trends*.
Every COGRA granularity attaches accumulators to different anchors --
a whole pattern, an event type, or a single matched event -- but all of
them manipulate the accumulators through the same three operations:

``merge``
    Combine the summaries of two disjoint trend multisets (used to collect
    the trends ending at all predecessor types/events of a new event).

``extended``
    Derive the summary of the trends obtained by appending a new event to
    every trend of the multiset.  The trend count is unchanged; per-variable
    targets gain one occurrence of the new event per trend.

``singleton``
    The summary of the one-event trend ``(e)`` -- used when the new event is
    bound to a start type of the pattern and therefore begins a new trend.

From a final accumulator (the summary of all finished trends of a group)
:meth:`TrendAccumulator.result_value` extracts the value of any RETURN
clause aggregate; :func:`result_columns` resolves where each one lives
once per query, and :func:`read_columns` reads every closed window's rows
off that.

The aggregators' hot paths do not chain those operations -- every link is a
throw-away accumulator -- but apply what the chain computes in place, through
the two module-level kernels :func:`fold_into` and :func:`extend_in_place`,
to an event already resolved by :meth:`repro.analyzer.plan.CograPlan.bind`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.errors import InvalidQueryError
from repro.events.event import Event
from repro.query.aggregates import AggregateFunction, AggregateSpec

#: A target is a (variable, attribute) pair; attribute is None for COUNT(E).
Target = Tuple[str, Optional[str]]

# offsets of one target's four slots inside the flat slot list
_COUNT, _SUM, _MIN, _MAX = 0, 1, 2, 3
#: slots per target; target ``i`` of ``targets`` starts at offset ``i * WIDTH``
WIDTH = 4


class TrendAccumulator:
    """Summary of a multiset of (partial) event trends.

    Parameters
    ----------
    targets:
        The ``(variable, attribute)`` pairs the accumulator must track in
        addition to the trend count (derived from the RETURN clause by the
        planner).
    """

    __slots__ = ("targets", "trend_count", "slots")

    def __init__(self, targets: Tuple[Target, ...]):
        self.targets = targets
        self.trend_count = 0
        #: one flat list, ``[occurrence count, sum, min, max]`` per target in
        #: the order of ``targets`` (which the plan fixes once per query)
        self.slots: list = [0, 0, None, None] * len(targets)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, targets: Tuple[Target, ...]) -> "TrendAccumulator":
        """The summary of the empty trend multiset."""
        return cls(targets)

    @classmethod
    def singleton(
        cls, event: Event, variable: str, targets: Tuple[Target, ...]
    ) -> "TrendAccumulator":
        """The summary of the single trend ``(event)`` with ``event`` bound to ``variable``."""
        accumulator = cls(targets)
        accumulator.trend_count = 1
        accumulator._apply_event(event, variable, 1)
        return accumulator

    def copy(self) -> "TrendAccumulator":
        """An independent copy of this accumulator."""
        duplicate = TrendAccumulator(self.targets)
        duplicate.trend_count = self.trend_count
        duplicate.slots = list(self.slots)
        return duplicate

    # -- predicates ----------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """True when the accumulator summarises no trend at all."""
        return self.trend_count == 0

    # -- the three incremental operations -------------------------------------

    def merge(self, other: "TrendAccumulator") -> None:
        """Add the trends summarised by ``other`` to this accumulator."""
        if other.trend_count == 0:
            return
        self.trend_count += other.trend_count
        slots = self.slots
        other_slots = other.slots
        for base in range(0, len(slots), WIDTH):
            slots[base] += other_slots[base]
            slots[base + 1] += other_slots[base + 1]
            low = other_slots[base + 2]
            if low is None:
                continue  # min and max are set together
            current = slots[base + 2]
            if current is None or not current <= low:
                slots[base + 2] = low
            high = other_slots[base + 3]
            current = slots[base + 3]
            if current is None or not current >= high:
                slots[base + 3] = high

    def merged(self, other: "TrendAccumulator") -> "TrendAccumulator":
        """Non-destructive :meth:`merge`."""
        result = self.copy()
        result.merge(other)
        return result

    def extended(self, event: Event, variable: str) -> "TrendAccumulator":
        """Summary of the trends obtained by appending ``event`` to every trend.

        The trend count is preserved; targets on ``variable`` gain one
        occurrence of the event per extended trend.  Extending an empty
        accumulator yields an empty accumulator (there is nothing to extend).
        """
        result = self.copy()
        if result.trend_count == 0:
            return result
        result._apply_event(event, variable, result.trend_count)
        return result

    def _apply_event(self, event: Event, variable: str, multiplicity: int) -> None:
        """Account for ``event`` occurring once in ``multiplicity`` trends."""
        slots = self.slots
        base = -WIDTH
        for target_variable, attribute in self.targets:
            base += WIDTH
            if target_variable != variable:
                continue
            slots[base] += multiplicity
            if attribute is None:
                continue
            value = event.get(attribute)
            if value is None:
                continue
            try:
                slots[base + 1] += value * multiplicity
            except OverflowError:
                # Under skip-till-any-match the trend count is exponential in
                # the number of events, so SUM/AVG over enormous windows can
                # exceed the float range; saturate instead of failing.
                slots[base + 1] = float("inf") if value >= 0 else float("-inf")
            current = slots[base + 2]
            if current is None or not current <= value:
                slots[base + 2] = value
            current = slots[base + 3]
            if current is None or not current >= value:
                slots[base + 3] = value

    # -- result extraction ------------------------------------------------------

    def occurrence_count(self, variable: str, attribute: Optional[str] = None) -> int:
        """Total occurrences of ``variable`` over all summarised trends."""
        return self.slots[target_base(self.targets, variable, attribute) + _COUNT]

    def result_value(self, spec: AggregateSpec):
        """Value of the RETURN-clause aggregate ``spec`` for this accumulator.

        MIN/MAX/AVG return ``None`` when no event contributes (for instance
        when the group matched no trend).
        """
        if spec.is_count_star:
            return self.trend_count
        function = spec.function
        slots = self.slots
        if function is AggregateFunction.COUNT:
            return slots[target_base(self.targets, spec.variable, None) + _COUNT]
        base = target_base(self.targets, spec.variable, spec.attribute)
        if function is AggregateFunction.SUM:
            return slots[base + _SUM]
        if function is AggregateFunction.MIN:
            return slots[base + _MIN]
        if function is AggregateFunction.MAX:
            return slots[base + _MAX]
        if function is AggregateFunction.AVG:
            if slots[base + _COUNT] == 0:
                return None
            return slots[base + _SUM] / slots[base + _COUNT]
        raise InvalidQueryError(f"unsupported aggregation function {function}")  # pragma: no cover

    def results(self, specs: Iterable[AggregateSpec]) -> Dict[str, object]:
        """Mapping from column name to value for all requested aggregates."""
        return {spec.name: self.result_value(spec) for spec in specs}

    # -- memory accounting ---------------------------------------------------------

    @property
    def storage_units(self) -> int:
        """Number of scalar values held by the accumulator.

        The benchmark harness sums these to reproduce the paper's
        "number of maintained aggregates" memory metric.
        """
        return 1 + len(self.slots)

    def __repr__(self) -> str:
        parts = [f"trends={self.trend_count}"]
        for index, (variable, attribute) in enumerate(self.targets):
            label = variable if attribute is None else f"{variable}.{attribute}"
            count, total, low, high = self.slots[index * WIDTH:(index + 1) * WIDTH]
            parts.append(f"{label}: count={count} sum={total} min={low} max={high}")
        return f"TrendAccumulator({', '.join(parts)})"


def target_base(
    targets: Tuple[Target, ...], variable: Optional[str], attribute: Optional[str]
) -> int:
    """Offset of the first slot of target ``(variable, attribute)`` in ``targets``."""
    key = (variable, attribute)
    if key in targets:
        return targets.index(key) * WIDTH
    # COUNT(E) may be requested while only (E, attr) targets are tracked;
    # occurrence counts agree across attributes of the same variable.
    for index, (target_variable, _) in enumerate(targets):
        if target_variable == variable:
            return index * WIDTH
    raise InvalidQueryError(
        f"aggregate over {variable}.{attribute} was not planned for this query"
    )


#: one RETURN column: its name, the slot it reads (``None``: the trend
#: count) and, for AVG, the slot of the count it divides by
Column = Tuple[str, Optional[int], Optional[int]]


def result_columns(
    specs: Iterable[AggregateSpec], targets: Tuple[Target, ...]
) -> Tuple[Column, ...]:
    """:meth:`TrendAccumulator.result_value` for each of ``specs``, resolved once.

    :func:`read_columns` reads them off a final accumulator.
    """
    columns = []
    for spec in specs:
        if spec.is_count_star:
            columns.append((spec.name, None, None))
            continue
        function = spec.function
        if function is AggregateFunction.COUNT:
            base = target_base(targets, spec.variable, None)
            columns.append((spec.name, base + _COUNT, None))
            continue
        base = target_base(targets, spec.variable, spec.attribute)
        if function is AggregateFunction.SUM:
            columns.append((spec.name, base + _SUM, None))
        elif function is AggregateFunction.MIN:
            columns.append((spec.name, base + _MIN, None))
        elif function is AggregateFunction.MAX:
            columns.append((spec.name, base + _MAX, None))
        elif function is AggregateFunction.AVG:
            columns.append((spec.name, base + _SUM, base + _COUNT))
        else:  # pragma: no cover
            raise InvalidQueryError(f"unsupported aggregation function {function}")
    return tuple(columns)


def read_columns(
    columns: Tuple[Column, ...], accumulator: TrendAccumulator
) -> Dict[str, object]:
    """``accumulator.results(specs)`` for the ``columns`` resolved from ``specs``.

    Column ``(name, slot, count)`` is the trend count when ``slot`` is
    ``None``; ``slots[slot]`` when ``count`` is ``None``; otherwise the
    average ``slots[slot] / slots[count]``, or ``None`` at a zero count.
    """
    slots = accumulator.slots
    values: Dict[str, object] = {}
    for name, slot, count in columns:
        if slot is None:
            values[name] = accumulator.trend_count
        elif count is None:
            values[name] = slots[slot]
        elif slots[count] == 0:
            values[name] = None
        else:
            values[name] = slots[slot] / slots[count]
    return values


# -- in-place kernels of the aggregators' hot paths -------------------------------


def fold_into(
    cells: Sequence[TrendAccumulator],
    sources: Sequence[TrendAccumulator],
    starts: int,
    own: Tuple[bool, ...],
    values: Tuple,
) -> None:
    """Add to each of ``cells`` the trends of ``sources`` extended by one event.

    The event is given as :meth:`~repro.analyzer.plan.CograPlan.bind`
    resolved it: ``starts`` is 1 when it also begins a trend of its own,
    ``own`` marks the targets on its variable and ``values`` holds what they
    read off it.  What ``zero`` -> ``merge(source)``... -> ``extended`` ->
    ``merge(singleton)`` would build in three accumulators is summed per
    target in the same order of additions (float sums depend on it) and
    added to ``cells`` -- a fresh cell for an event that is stored, the
    cell of the event's variable where it is not.  A cell may be among its
    own ``sources`` (a Kleene self-loop): every slot, and every source's
    trend count, is read before any cell is written.
    """
    extended = 0
    for source in sources:
        extended += source.trend_count
    multiplicity = extended + starts
    if not multiplicity:
        return  # nothing to extend and no trend to start
    for cell in cells:
        cell.trend_count += multiplicity
    # target ``index`` lives at ``slots[base:base + WIDTH]``
    index = -1
    base = -WIDTH
    for is_own in own:
        index += 1
        base += WIDTH
        count = total = 0
        low = high = None
        for source in sources:
            theirs = source.slots
            count += theirs[base]
            total += theirs[base + 1]
            other = theirs[base + 2]
            if other is not None:
                if low is None or not low <= other:
                    low = other
                other = theirs[base + 3]
                if high is None or not high >= other:
                    high = other
        if is_own:
            count += multiplicity
            value = values[index]
            if value is not None:
                if extended:
                    try:
                        total += value * extended
                    except OverflowError:
                        # the trend count is exponential in the number of
                        # events; saturate SUM/AVG
                        total = float("inf") if value >= 0 else float("-inf")
                if starts:
                    total += value
                if low is None or not low <= value:
                    low = value
                if high is None or not high >= value:
                    high = value
        for cell in cells:
            slots = cell.slots
            slots[base] += count
            slots[base + 1] += total
            if low is not None:
                current = slots[base + 2]
                if current is None or not current <= low:
                    slots[base + 2] = low
                current = slots[base + 3]
                if current is None or not current >= high:
                    slots[base + 3] = high


def extend_in_place(
    cell: TrendAccumulator, starts: int, own: Tuple[bool, ...], values: Tuple
) -> None:
    """Turn ``cell`` into ``cell.extended(event)``, plus the event's own trend.

    :func:`fold_into` for the one case where the source is the cell written
    and is not kept (the pattern-grained last cell): the trends of ``cell``
    each gain the event, and ``starts`` one-event trends join them.
    """
    extended = cell.trend_count
    multiplicity = extended + starts
    if not multiplicity:
        return
    cell.trend_count = multiplicity
    slots = cell.slots
    index = -1
    base = -WIDTH
    for is_own in own:
        index += 1
        base += WIDTH
        if not is_own:
            continue
        slots[base] += multiplicity
        value = values[index]
        if value is None:
            continue
        if extended:
            try:
                slots[base + 1] += value * extended
            except OverflowError:
                slots[base + 1] = float("inf") if value >= 0 else float("-inf")
        if starts:
            slots[base + 1] += value
        current = slots[base + 2]
        if current is None or not current <= value:
            slots[base + 2] = value
        current = slots[base + 3]
        if current is None or not current >= value:
            slots[base + 3] = value
