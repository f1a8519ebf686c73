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
The plan compiles what binding an event to a variable does into one step
(:func:`pattern_step`, emitted from the template of
:mod:`repro.core.type_grained`).  The negation-aware subclass
(:mod:`repro.extensions.negation`) hooks into
:meth:`PatternGrainedAggregator._unbound`, the one place an event that binds
to nothing is looked at.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.analyzer.codegen import Constants
from repro.analyzer.plan import CograPlan, FoldStep, adjacency_checks
from repro.core.aggregate_state import TrendAccumulator
from repro.core.base import SubstreamAggregator
from repro.core.type_grained import Recurrence, compile_fold
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
        unpacked binding, and each bound event is one call of the step the
        plan compiled for its variable (:func:`pattern_step`).
        """
        folds = self.plan.folds
        windows = (self, *also)
        processed = 0
        for event, binding in run:
            if not binding:
                for aggregator in windows:
                    aggregator._unbound(event)
                continue
            step, values = binding[0]
            folds[step.variable](windows, event, values)
            processed += 1
        for aggregator in windows:
            aggregator.events_processed += processed

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


def pattern_step(label: str, step: FoldStep, plan: CograPlan) -> Callable:
    """Compile Algorithm 3's step for an event bound to ``step.variable``.

    Returns ``step(windows, event, values)``: for each pattern-grained
    aggregator of ``windows``, extend the last cell in place when the last
    matched event is adjacent to ``event`` (Definition 7, conditions 1-3:
    a predecessor variable of the step, strictly earlier, every adjacent
    predicate of the edge satisfied -- compared as the event-grained scans
    compare them, :func:`~repro.analyzer.plan.adjacency_checks`).  Else the
    event starts afresh on an empty cell if its variable is a start type,
    and is skipped otherwise -- under the contiguous semantics after the
    running trends are invalidated.  An extended cell of an end variable
    is merged into ``_final``, and ``event`` becomes the last event.

    The caller counts the event as processed.  A cell that an adjacent
    event extends has trends: the last event is set only with a cell that
    has, and cleared with the cell.
    """
    variable, predecessors, starts, own = step[:4]
    constants = Constants(
        name_0=variable, targets=plan.targets, TrendAccumulator=TrendAccumulator
    )
    template = Recurrence(own, starts)
    emit = template.emit
    template.values(0)
    reset: List[str] = [
        "window._last_event = None",
        "window._last_variable = None",
        "window._last_cell = TrendAccumulator(targets)",
    ]
    depth = 1
    if predecessors:
        edges = []
        hoisted: List[str] = []
        for number, name in enumerate(predecessors, 1):
            reads, checks, nesting = adjacency_checks(
                plan.adjacent_predicates_between(name, variable), constants, number, "last"
            )
            hoisted += reads
            edges.append(
                ("name_0" if name == variable else constants("name", name), checks, nesting)
            )
        emit("time = event.time", 0)
        emit("sequence = event.sequence", 0)
        if hoisted:
            emit("attributes = event.attributes", 0)
            for line in hoisted:
                emit(line, 0)
    emit("for window in windows:", 0)
    emit("last = window._last_event", 1)
    if predecessors:
        emit("adjacent = False", 1)
        emit("if last is not None:", 1)
        emit("last_time = last.time", 2)
        emit(
            "if last_time < time or (last_time == time and last.sequence < sequence):", 2
        )
        emit("previous = window._last_variable", 3)
        for position, (name, checks, nesting) in enumerate(edges):
            emit(f"{'elif' if position else 'if'} previous == {name}:", 3)
            for line in checks:
                emit(line, 4)
            emit("adjacent = True", 4 + nesting)
        emit("if not adjacent:", 1)
        depth = 2
    if not starts:
        if plan.semantics is Semantics.CONTIGUOUS:
            emit("if last is not None:", depth)
            for line in reset:
                emit(line, depth + 1)
        emit("continue", depth)
    else:
        # the event starts afresh
        emit("if last is not None:", depth)
        for line in reset:
            emit(line, depth + 1)
    emit("cell = window._last_cell", 1)
    template.extend("cell", 1)
    if variable in plan.automaton.end_variables:
        emit("final = window._final", 1)
        template.merge("final", "cell", "multiplicity", 1)
    emit("window._last_event = event", 1)
    emit("window._last_variable = name_0", 1)
    return compile_fold(label, constants, "step(windows, event, values)", template.lines)
