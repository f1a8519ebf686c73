"""Type-grained aggregator: Algorithm 1 of the paper (Section 4).

Applicable to queries under skip-till-any-match without predicates on
adjacent events.  One accumulator is maintained per pattern variable; every
matched event updates the accumulator of its variable and is discarded
immediately.  Time complexity is ``O(n * l)`` and space ``Θ(l)`` for ``n``
events per window and pattern length ``l`` -- both optimal (Theorems 4.2
and 4.3).

For the running example ``(SEQ(A+, B))+`` over the stream
``a1 b2 a3 a4 c5 b6 a7 b8`` the maintained counts evolve exactly as in
Table 5 of the paper and the final count is 43.
"""

from __future__ import annotations

from typing import Dict

from repro.analyzer.plan import CograPlan
from repro.core.aggregate_state import WIDTH, TrendAccumulator
from repro.core.base import SubstreamAggregator


class TypeGrainedAggregator(SubstreamAggregator):
    """Maintains one trend accumulator per pattern variable."""

    __slots__ = ("_cells",)

    def __init__(self, plan: CograPlan):
        super().__init__(plan)
        targets = plan.targets
        #: variable -> accumulator of all (partial) trends ending at that variable
        self._cells: Dict[str, TrendAccumulator] = {
            variable: TrendAccumulator.zero(targets)
            for variable in plan.automaton.variables
        }

    # -- hot path -----------------------------------------------------------------

    def process_run(self, run, also=()) -> None:
        """Algorithm 1, lines 3-8, over an ordered run of bound events.

        The run is folded into ``self`` and into each aggregator of
        ``also`` (the same group in the run's other windows) in one pass,
        events outer and windows inner: what an event does to a window's
        cells depends on the window only through the cells it reads, so
        the event's binding is unpacked once and applied window by window.

        Binding an event to ``variable`` adds to that variable's cell the
        trends of every predecessor cell, each extended by the event, plus
        the one-event trend if ``variable`` is a start type.  The literal
        recurrence builds that summary in three fresh accumulators and then
        merges it; here it is added slot by slot straight into the cell, in
        the literal recurrence's order of additions (float sums depend on
        it), so no accumulator is built per event.  A Kleene self-loop reads
        its own cell as a predecessor, which works because every slot is
        read before it is written.
        """
        targets = (self, *also) if also else (self,)
        processed = 0
        for _event, binding in run:
            if not binding:
                continue
            processed += 1
            before = None
            if len(binding) > 1:
                # an event bound to several variables (repeated types,
                # Section 8) is never its own predecessor: every binding
                # reads the window's cells as they were before the event
                before = {}
                for aggregator in targets:
                    cells = aggregator._cells
                    source = dict(cells)
                    for step, _values in binding:
                        source[step.variable] = cells[step.variable].copy()
                    before[aggregator] = source
            for (variable, predecessors, starts, own, _attributes), values in binding:
                for aggregator in targets:
                    source = cells = aggregator._cells
                    if before is not None:
                        source = before[aggregator]
                    extended = 0
                    for name in predecessors:
                        extended += source[name].trend_count
                    multiplicity = extended + starts
                    if not multiplicity:
                        continue  # nothing to extend and no trend to start
                    cell = cells[variable]
                    cell.trend_count += multiplicity
                    slots = cell.slots
                    # target ``index`` lives at ``slots[base:base + WIDTH]``
                    index = -1
                    base = -WIDTH
                    for is_own in own:
                        index += 1
                        base += WIDTH
                        count = total = 0
                        low = high = None
                        for name in predecessors:
                            theirs = source[name].slots
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
                                        # the trend count is exponential in
                                        # the number of events; saturate
                                        # SUM/AVG
                                        total = float("inf") if value >= 0 else float("-inf")
                                if starts:
                                    total += value
                                if low is None or not low <= value:
                                    low = value
                                if high is None or not high >= value:
                                    high = value
                        slots[base] += count
                        slots[base + 1] += total
                        if low is not None:
                            current = slots[base + 2]
                            if current is None or not current <= low:
                                slots[base + 2] = low
                            current = slots[base + 3]
                            if current is None or not current >= high:
                                slots[base + 3] = high
        for aggregator in targets:
            aggregator.events_processed += processed

    # -- results -------------------------------------------------------------------

    def final_accumulator(self) -> TrendAccumulator:
        """Merge of the accumulators of all end variables."""
        final = TrendAccumulator.zero(self.plan.targets)
        for variable in self.plan.automaton.end_variables:
            final.merge(self._cells[variable])
        return final

    def cell(self, variable: str) -> TrendAccumulator:
        """Accumulator currently maintained for ``variable`` (for inspection)."""
        return self._cells[variable]

    # -- memory accounting -------------------------------------------------------------

    def storage_units(self) -> int:
        return sum(cell.storage_units for cell in self._cells.values())

