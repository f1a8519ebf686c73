"""Pattern-grained aggregator: Algorithm 3 of the paper (Section 6).

Applicable to queries under the skip-till-next-match and contiguous
semantics.  Under these semantics an event has at most one predecessor
event in any trend (Theorem 6.1), so it suffices to keep

* the last matched event together with the accumulator of the (partial)
  trends ending at it, and
* the accumulator of all finished trends.

Time complexity is ``O(n)`` and space ``O(1)`` (Theorems 6.3 and 6.4).

Behavioural notes (faithful to Algorithm 3):

* Under skip-till-next-match an event that cannot extend the last matched
  event and is not of a start type is simply skipped.
* Under the contiguous semantics such an event -- as well as any event of a
  type that does not occur in the pattern -- invalidates the partial trends
  ending at the last matched event: the last event is reset to ``null``.
* An event bound to a start type always begins a new trend; it also becomes
  the new last matched event.

The last cell is the only summary of the running trends and nothing else
refers to it, so an adjacent event extends it in place: the hot path builds
no accumulator (a trend that starts afresh, or a reset, replaces the cell).
The negation-aware subclass (:mod:`repro.extensions.negation`) hooks into
:meth:`PatternGrainedAggregator._unbound`, the one place an event that binds
to nothing is looked at.
"""

from __future__ import annotations

from typing import Optional

from repro.analyzer.plan import CograPlan
from repro.core.aggregate_state import TrendAccumulator, extend_in_place
from repro.core.base import SubstreamAggregator
from repro.events.event import Event
from repro.query.semantics import Semantics


class PatternGrainedAggregator(SubstreamAggregator):
    """Keeps only the last matched event and the final accumulator."""

    __slots__ = ("_last_event", "_last_variable", "_last_cell", "_final")

    def __init__(self, plan: CograPlan):
        super().__init__(plan)
        targets = plan.targets
        self._last_event: Optional[Event] = None
        self._last_variable: Optional[str] = None
        self._last_cell = TrendAccumulator.zero(targets)
        self._final = TrendAccumulator.zero(targets)

    # -- hot path -----------------------------------------------------------------

    def process_run(self, run, also=()) -> None:
        """Algorithm 3, lines 2-9 (generalised to all Table 8 aggregates).

        Events outer, the aggregators of ``self`` and ``also`` inner: the
        state is one last event per window, so the windows share the
        unpacked binding and nothing else.
        """
        plan = self.plan
        conditions = plan.adjacent_conditions
        ends = plan.automaton.end_variables
        contiguous = plan.semantics is Semantics.CONTIGUOUS
        windows = (self, *also)
        for event, binding in run:
            if not binding:
                for aggregator in windows:
                    aggregator._unbound(event)
                continue
            (variable, _predecessors, starts, own, _attributes), values = binding[0]
            time = event.time
            sequence = event.sequence
            for aggregator in windows:
                aggregator.events_processed += 1
                last = aggregator._last_event
                adjacent = False
                if last is not None:
                    # Definition 7, conditions 1-3; no entry: not a predecessor type
                    pair = conditions.get((aggregator._last_variable, variable))
                    last_time = last.time
                    if pair is not None and (
                        last_time < time or (last_time == time and last.sequence < sequence)
                    ):
                        for condition in pair:
                            if not condition(last, event):
                                break
                        else:
                            adjacent = True
                if not adjacent:
                    if not starts:
                        if contiguous:
                            aggregator._reset_last()
                        continue
                    aggregator._reset_last()  # the event starts afresh
                cell = aggregator._last_cell
                extend_in_place(cell, starts, own, values)
                if variable in ends:
                    aggregator._final.merge(cell)
                aggregator._last_event = event
                aggregator._last_variable = variable

    def _unbound(self, event: Event) -> None:
        """An event that binds to no variable arrived.

        It cannot be matched at all.  Under the contiguous semantics it
        still invalidates the running partial trends.
        """
        if self.plan.semantics is Semantics.CONTIGUOUS:
            self._reset_last()

    def _reset_last(self) -> None:
        """Invalidate the partial trends ending at the last matched event."""
        if self._last_event is not None:  # else the last cell is empty already
            self._last_event = None
            self._last_variable = None
            self._last_cell = TrendAccumulator.zero(self.plan.targets)

    # -- results -------------------------------------------------------------------

    def final_accumulator(self) -> TrendAccumulator:
        return self._final.copy()

    @property
    def last_event(self) -> Optional[Event]:
        """The last matched event (for inspection in tests)."""
        return self._last_event

    @property
    def last_cell(self) -> TrendAccumulator:
        """Accumulator of the partial trends ending at the last matched event."""
        return self._last_cell

    # -- memory accounting -------------------------------------------------------------

    def storage_units(self) -> int:
        units = self._final.storage_units + self._last_cell.storage_units
        if self._last_event is not None:
            units += 1
        return units

    def stored_event_count(self) -> int:
        return 1 if self._last_event is not None else 0
