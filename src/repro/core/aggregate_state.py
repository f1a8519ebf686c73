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
clause aggregate.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

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

    def extend_batch(
        self, events: Iterable[Event], variable: str
    ) -> "TrendAccumulator":
        """Summary after appending each of ``events`` (in order) to every trend.

        Equivalent to folding :meth:`extended` over ``events`` but with a
        single copy up front: the sum/count/min/max recurrences are applied
        in one Python frame instead of re-copying the per-target state per
        event.  The trend count is a loop invariant (``extended`` never
        changes it), so every event applies at the same multiplicity, and
        the per-event application order is preserved -- including the
        OverflowError saturation behaviour of repeated ``extended`` calls.
        """
        result = self.copy()
        trend_count = result.trend_count
        if trend_count == 0:
            return result
        apply_event = result._apply_event
        for event in events:
            apply_event(event, variable, trend_count)
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
        return self.slots[self._base(variable, attribute) + _COUNT]

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
            return slots[self._base(spec.variable, None) + _COUNT]
        base = self._base(spec.variable, spec.attribute)
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

    def _base(self, variable: Optional[str], attribute: Optional[str]) -> int:
        """Offset of the first slot of target ``(variable, attribute)``."""
        targets = self.targets
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

