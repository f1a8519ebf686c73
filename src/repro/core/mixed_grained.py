"""Mixed-grained aggregator: Algorithm 2 of the paper (Section 5).

Applicable to queries under skip-till-any-match *with* predicates on
adjacent events.  The pattern variables are split into

* ``Tt`` -- variables whose events never need to be re-examined: a single
  type-grained accumulator suffices, and
* ``Te`` -- variables that appear on the predecessor side of an adjacent
  predicate: their events must be kept (together with an event-grained
  accumulator each) so the predicate can be evaluated against future events.

In the extreme case ``Tt = ∅`` the aggregator degenerates to event-grained
(GRETA-like) aggregation, which is exactly what the granularity selector
reports as :class:`~repro.analyzer.granularity.Granularity.EVENT`.

Time complexity is ``O(n * (t + n_e))`` and space ``Θ(t + n_e)`` where ``t``
is the number of type-grained variables and ``n_e`` the number of stored
events (Theorems 5.2 and 5.3).

The hot path is the type-grained fold for an event of a ``Tt`` variable (its
cell is added to in place, nothing is built) and the event-grained one for
an event of a ``Te`` variable (one cell, for the node that is stored); both
collect the cells of their ``Te`` predecessors through the plan's generated
scan of the edge (:func:`~repro.analyzer.plan.edge_scan`).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analyzer.plan import CograPlan
from repro.core.aggregate_state import TrendAccumulator, fold_into
from repro.core.base import SubstreamAggregator
from repro.events.event import Event


class MixedGrainedAggregator(SubstreamAggregator):
    """Maintains type-grained cells for ``Tt`` and per-event cells for ``Te``."""

    __slots__ = ("_type_cells", "_event_cells", "_final")

    def __init__(self, plan: CograPlan):
        super().__init__(plan)
        targets = plan.targets
        #: Tt variable -> accumulator of all (partial) trends ending at it
        self._type_cells: Dict[str, TrendAccumulator] = {
            variable: TrendAccumulator.zero(targets)
            for variable in plan.automaton.variables
            if variable in plan.type_grained
        }
        #: Te variable -> list of (event, accumulator of trends ending at event)
        self._event_cells: Dict[str, List[Tuple[Event, TrendAccumulator]]] = {
            variable: []
            for variable in plan.automaton.variables
            if variable in plan.event_grained
        }
        #: accumulator of finished trends that end at an event of a Te variable
        self._final = TrendAccumulator.zero(targets)

    # -- hot path -----------------------------------------------------------------

    def process_run(self, run, also=()) -> None:
        """Algorithm 2, lines 5-14 (generalised to all Table 8 aggregates).

        Events outer, the aggregators of ``self`` and ``also`` inner.  A
        binding collects, in the order of the variable's predecessor types,
        the cells of its ``Tt`` predecessors and of the adjacent stored
        events of its ``Te`` predecessors, and folds them into the cell it
        ends in.
        """
        plan = self.plan
        targets = plan.targets
        scans = plan.scans
        ends = plan.automaton.end_variables
        windows = (self, *also)
        processed = 0
        for event, binding in run:
            if not binding:
                continue  # irrelevant events are skipped under skip-till-any-match
            processed += 1
            time = event.time
            sequence = event.sequence
            before = None
            if len(binding) > 1:
                # an event bound to several variables (repeated types,
                # Section 8) is never its own predecessor: every binding
                # reads the Tt cells as they were before the event (a stored
                # node it just appended fails the scan's order check)
                before = {}
                for aggregator in windows:
                    cells = aggregator._type_cells
                    source = dict(cells)
                    for step, _values in binding:
                        if step.variable in cells:
                            source[step.variable] = cells[step.variable].copy()
                    before[aggregator] = source
            for step, values in binding:
                variable, _predecessors, starts, own, _attributes, _kernel = step
                edges = scans[variable]
                is_end = variable in ends
                for aggregator in windows:
                    type_cells = aggregator._type_cells
                    readable = type_cells if before is None else before[aggregator]
                    event_cells = aggregator._event_cells
                    sources = []
                    for name, scan in edges:
                        if scan is None:
                            sources.append(readable[name])
                        else:
                            scan(event_cells[name], event, time, sequence, sources)
                    cell = type_cells.get(variable)
                    stored = cell is None
                    if stored:
                        cell = TrendAccumulator(targets)
                    fold_into((cell,), sources, starts, own, values)
                    if stored:
                        event_cells[variable].append((event, cell))
                        if is_end:
                            aggregator._final.merge(cell)
        for aggregator in windows:
            aggregator.events_processed += processed

    # -- results -------------------------------------------------------------------

    def final_accumulator(self) -> TrendAccumulator:
        """Finished-trend summary: Te end events plus Tt end variables."""
        final = self._final.copy()
        for variable in self.plan.automaton.end_variables:
            if variable in self._type_cells:
                final.merge(self._type_cells[variable])
        return final

    def cell(self, variable: str) -> TrendAccumulator:
        """Type-grained accumulator of ``variable`` (must be in ``Tt``)."""
        return self._type_cells[variable]

    def stored_events(self, variable: str) -> List[Tuple[Event, TrendAccumulator]]:
        """Stored (event, accumulator) pairs of a ``Te`` variable."""
        return list(self._event_cells[variable])

    # -- memory accounting -------------------------------------------------------------

    def storage_units(self) -> int:
        units = self._final.storage_units
        units += sum(cell.storage_units for cell in self._type_cells.values())
        for entries in self._event_cells.values():
            for _, cell in entries:
                # the stored event itself counts as one unit besides its cell
                units += 1 + cell.storage_units
        return units

    def stored_event_count(self) -> int:
        return sum(len(entries) for entries in self._event_cells.values())
