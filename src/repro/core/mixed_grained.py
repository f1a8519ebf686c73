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
reports as :class:`~repro.analyzer.granularity.Granularity.EVENT`:
:class:`~repro.core.event_grained.EventGrainedAggregator` is this class
under another name, and the negation-aware event-grained aggregator
(Section 8) folds through :func:`fold_mixed` too, with its cut-offs.

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


def fold_mixed(windows, run, negations=None) -> None:
    """Algorithm 2, lines 5-14 (generalised to all Table 8 aggregates).

    Events outer, the aggregators of ``windows`` -- one class, one plan --
    inner.  A binding collects, in the order of the variable's predecessor
    types, the cells of its ``Tt`` predecessors and of the adjacent stored
    events of its ``Te`` predecessors, and folds them into the cell it ends
    in.  With ``negations`` (the :class:`~repro.extensions.negation.
    NegationTables` of aggregators that keep ``_cutoffs``) an unbound event
    of a negated type blocks the ``Tp`` events stored so far from the
    ``Tf`` variables (Section 8); stored events are appended in arrival
    order, so one cut-off index per (component, ``Tp`` variable) says which.
    """
    plan = windows[0].plan
    targets = plan.targets
    scans = plan.scans
    ends = plan.automaton.end_variables
    type_grained = plan.type_grained
    negated = cutoff_keys = None
    if negations is not None:
        negated, cutoff_keys = negations.by_type, negations.cell_keys
    processed = 0
    for event, binding in run:
        if not binding:
            # irrelevant events are skipped under skip-till-any-match
            if negated and event.event_type in negated:
                for component in negated[event.event_type]:
                    for variable in component.predecessor_variables:
                        key = (component.index, variable)
                        for aggregator in windows:
                            aggregator._cutoffs[key] = len(
                                aggregator._event_cells[variable]
                            )
            continue
        processed += 1
        time = event.time
        sequence = event.sequence
        before = None
        if len(binding) > 1 and type_grained:
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
            stores = variable not in type_grained
            is_end = variable in ends
            for aggregator in windows:
                readable = (
                    aggregator._type_cells if before is None else before[aggregator]
                )
                event_cells = aggregator._event_cells
                sources = []
                for name, scan in edges:
                    if scan is None:
                        sources.append(readable[name])
                        continue
                    nodes = event_cells[name]
                    if cutoff_keys:
                        key = cutoff_keys.get((name, variable))
                        if key is not None:
                            nodes = nodes[aggregator._cutoffs[key]:]
                    scan(nodes, event, time, sequence, sources)
                if stores:
                    cell = TrendAccumulator(targets)
                    fold_into((cell,), sources, starts, own, values)
                    event_cells[variable].append((event, cell))
                    if is_end:
                        aggregator._final.merge(cell)
                else:
                    cell = aggregator._type_cells[variable]
                    fold_into((cell,), sources, starts, own, values)
    for aggregator in windows:
        aggregator.events_processed += processed


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
        """Fold the run into ``self`` and ``also`` (:func:`fold_mixed`)."""
        fold_mixed((self, *also), run)

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

    #: GRETA's name for the stored events: the nodes of its graph
    stored_nodes = stored_events

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
