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

The plan compiles one step per variable (:func:`mixed_step`, emitted from
the template of :mod:`repro.core.type_grained`): the cells of its ``Tt``
predecessors unrolled, and the scan of each ``Te`` edge fused into the fold
(:func:`~repro.analyzer.plan.edge_scan`), so a stored cell that qualifies
is added to the sums where the scan finds it.  A binding of a ``Tt``
variable adds them to its cell in place; a binding of a ``Te`` variable
builds one cell, for the node that is stored.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.analyzer.codegen import Constants
from repro.analyzer.plan import CograPlan, FoldStep, edge_scan
from repro.core.aggregate_state import TrendAccumulator
from repro.core.base import SubstreamAggregator
from repro.core.type_grained import (
    Recurrence,
    cell_names,
    compile_fold,
    fixed_predecessors,
)
from repro.events.event import Event


def fold_mixed(windows, run) -> None:
    """Algorithm 2, lines 5-14 (generalised to all Table 8 aggregates).

    Events outer, the aggregators of ``windows`` -- one class, one plan --
    inner: each binding is one call of the step the aggregators' own plan
    compiled for its variable (:func:`mixed_step`).  For a negated query
    (``plan.negations``, whose aggregators keep ``_cutoffs``) an unbound
    event of a negated type blocks the ``Tp`` events stored so far from
    the ``Tf`` variables (Section 8); stored events are appended in arrival
    order, so one cut-off index per (component, ``Tp`` variable) says
    which, and each step reads past the cut-offs of its edges (``cut``).
    """
    plan = windows[0].plan
    folds = plan.folds
    type_grained = plan.type_grained
    negations = plan.negations
    negated = crossed = None
    if negations is not None:
        negated, crossed = negations.by_type, negations.crossed
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
            variable = step.variable
            folds[variable](
                windows,
                event,
                values,
                before,
                None if crossed is None else crossed.get(variable),
            )
    for aggregator in windows:
        aggregator.events_processed += processed


def mixed_step(label: str, step: FoldStep, plan: CograPlan) -> Callable:
    """Compile Algorithm 2's step for an event bound to ``step.variable``.

    Returns ``step(windows, event, values, before, cut)``: for each mixed-
    or event-grained aggregator of ``windows``, sum the trends of the
    variable's predecessors in pattern order -- a ``Tt`` predecessor's cell
    (read from ``before`` when it is given, as the type kernel does), every
    stored node of a ``Te`` predecessor adjacent to ``event`` -- extend them
    by the event and add them to the variable's ``Tt`` cell, or store them
    in a fresh cell with the event and, for an end variable, merge that
    cell into ``_final``.  ``cut`` is ``None``, or the cut-off keys of the
    negation boundaries the variable's edges cross (Section 8): a ``Te``
    predecessor's scan then starts at the aggregator's cut-off.

    A ``Tt`` variable without ``Te`` predecessors folds exactly as
    Algorithm 1's kernel (:func:`~repro.core.type_grained.fold_kernel`).
    """
    variable, predecessors, starts, own = step[:4]
    type_grained = plan.type_grained
    stores = variable not in type_grained
    scanned = [name for name in predecessors if name not in type_grained]
    names = cell_names(variable, predecessors)
    constants = Constants(
        **{f"name_{number}": name for number, name in enumerate(names)},
        targets=plan.targets,
        TrendAccumulator=TrendAccumulator,
    )
    header = "step(windows, event, values, before, cut)"
    template = Recurrence(own, starts)
    emit = template.emit
    template.values(0)
    if not stores and not scanned:
        if predecessors == (variable,):
            emit("for window in windows:", 0)
            emit("cell = window._type_cells[name_0]", 1)
            template.self_loop("cell", 1)
        elif predecessors or starts:
            emit("for window in windows:", 0)
            fixed_predecessors(template, names, predecessors, "window._type_cells", 1)
        return compile_fold(label, constants, header, template.lines)
    scans = {}
    if scanned:
        emit("time = event.time", 0)
        emit("sequence = event.sequence", 0)
        hoisted: List[str] = []
        for name in scanned:
            number = names.index(name)
            reads, loop, depth = edge_scan(
                plan.adjacent_predicates_between(name, variable), constants, number
            )
            hoisted += reads
            scans[name] = (number, loop, depth)
        if hoisted:
            emit("attributes = event.attributes", 0)
            for line in hoisted:
                emit(line, 0)
        for number, _loop, _depth in scans.values():
            emit(f"key_{number} = None if cut is None else cut.get(name_{number})", 0)
    emit("for window in windows:", 0)
    if any(name in type_grained and name != variable for name in predecessors):
        emit("source = window._type_cells if before is None else before[window]", 1)
    if not stores:
        emit("cell = window._type_cells[name_0]", 1)
    emit("event_cells = window._event_cells", 1)
    if not predecessors:
        template.extend_cells([], 1)
    else:
        if predecessors[0] in scans:
            template.empty(1)
        for position, name in enumerate(predecessors):
            if name in scans:
                number, loop, depth = scans[name]
                emit(f"nodes = event_cells[name_{number}]", 1)
                emit(f"if key_{number} is not None:", 1)
                emit(f"nodes = nodes[window._cutoffs[key_{number}]:]", 2)
                for line in loop:
                    emit(line, 1)
                template.add("node", 1 + depth)
                continue
            reader = "cell"
            if name != variable:
                reader = f"cell_{names.index(name)}"
                emit(f"{reader} = source[name_{names.index(name)}]", 1)
            if position == 0:
                template.first(reader, 1)
            else:
                template.add(reader, 1)
        template.multiplicity(1)
        if not stores and not starts:
            emit("if not multiplicity:", 1)
            emit("continue", 2)
        template.event(1)
    if not stores:
        template.write("cell", 1)
        return compile_fold(label, constants, header, template.lines)
    emit("cell = TrendAccumulator(targets)", 1)
    emit("event_cells[name_0].append((event, cell))", 1)
    depth = 1
    if not starts:
        # the event is stored even when it extends no trend
        emit("if multiplicity:", 1)
        depth = 2
    template.fill("cell", depth)
    if variable in plan.automaton.end_variables:
        emit("final = window._final", depth)
        template.write("final", depth)
    return compile_fold(label, constants, header, template.lines)


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
