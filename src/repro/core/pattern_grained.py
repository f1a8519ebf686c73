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
"""

from __future__ import annotations

from typing import Optional

from repro.analyzer.plan import CograPlan
from repro.core.aggregate_state import TrendAccumulator
from repro.core.base import SubstreamAggregator
from repro.events.event import Event
from repro.query.semantics import Semantics


class PatternGrainedAggregator(SubstreamAggregator):
    """Keeps only the last matched event and the final accumulator."""

    def __init__(self, plan: CograPlan):
        super().__init__(plan)
        targets = plan.targets
        self._last_event: Optional[Event] = None
        self._last_variable: Optional[str] = None
        self._last_cell = TrendAccumulator.zero(targets)
        self._final = TrendAccumulator.zero(targets)

    # -- hot path -----------------------------------------------------------------

    def process(self, event: Event) -> None:
        """Algorithm 3, lines 2-9 (generalised to all Table 8 aggregates)."""
        plan = self.plan
        variables = plan.candidate_variables(event)
        if not variables:
            # The event cannot be matched at all.  Under the contiguous
            # semantics it still invalidates the running partial trends.
            if plan.semantics is Semantics.CONTIGUOUS:
                self._reset_last()
            return

        variable = variables[0]
        self.events_processed += 1

        adjacent = (
            self._last_event is not None
            and self._last_variable is not None
            and plan.adjacency_satisfied(
                self._last_event, self._last_variable, event, variable
            )
        )
        matched = adjacent or plan.is_start(variable)

        if not matched:
            if plan.semantics is Semantics.CONTIGUOUS:
                self._reset_last()
            return

        if adjacent:
            cell = self._last_cell.extended(event, variable)
        else:
            cell = TrendAccumulator.zero(plan.targets)
        if plan.is_start(variable):
            cell.merge(TrendAccumulator.singleton(event, variable, plan.targets))
        if plan.is_end(variable):
            self._final.merge(cell)

        self._last_event = event
        self._last_variable = variable
        self._last_cell = cell

    def process_run(self, run, also=()) -> None:
        """Process an ordered run of bound events; ≡ sequential :meth:`process` calls.

        Maximal sub-runs of adjacent middle-of-pattern events (same
        variable, neither start nor end) are folded through
        :meth:`TrendAccumulator.extend_batch`: one accumulator copy per
        sub-run instead of one per event.  Every other event -- start/end
        bindings, unmatched events, contiguity breakers -- takes the
        per-event path, so the resulting state is identical.  The state
        is one last event per window, so nothing is shared across windows:
        the aggregators of ``also`` fold the run themselves.
        """
        plan = self.plan
        adjacency_satisfied = plan.adjacency_satisfied
        index = 0
        count = len(run)
        while index < count:
            event, binding = run[index]
            if not binding:
                self.process(event)
                index += 1
                continue
            step = binding[0][0]
            variable = step.variable
            if step.starts or plan.is_end(variable):
                self.process(event)
                index += 1
                continue
            last_event = self._last_event
            last_variable = self._last_variable
            if (
                last_event is None
                or last_variable is None
                or not adjacency_satisfied(last_event, last_variable, event, variable)
            ):
                self.process(event)
                index += 1
                continue
            # collect the maximal adjacent run of the same (middle) variable
            middle = [event]
            last_event = event
            stop = index + 1
            while stop < count:
                candidate, next_binding = run[stop]
                if (
                    not next_binding
                    or next_binding[0][0] is not step
                    or not adjacency_satisfied(last_event, variable, candidate, variable)
                ):
                    break
                middle.append(candidate)
                last_event = candidate
                stop += 1
            self.events_processed += len(middle)
            self._last_cell = self._last_cell.extend_batch(middle, variable)
            self._last_event = last_event
            self._last_variable = variable
            index = stop
        for other in also:
            other.process_run(run)

    def _reset_last(self) -> None:
        """Invalidate the partial trends ending at the last matched event."""
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
