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

What binding an event to a variable does to the cells depends on nothing
but the variable's :class:`~repro.analyzer.plan.FoldStep`, which never
changes after planning.  So the plan compiles each step into a straight-line
kernel (:func:`fold_kernel`): predecessors unrolled, slot offsets integer
constants, the Kleene self-loop read from the cell being written.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.analyzer.codegen import compile_generated
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
        events outer and windows inner: each ``(step, values)`` of an
        event's binding is one call of the step's compiled kernel, which
        applies it window by window (:func:`fold_kernel`).
        """
        windows = (self, *also) if also else (self,)
        processed = 0
        for _event, binding in run:
            if len(binding) == 1:
                step, values = binding[0]
                step.kernel(windows, values, None)
            elif binding:
                # an event bound to several variables (repeated types,
                # Section 8) is never its own predecessor: every binding
                # reads the window's cells as they were before the event
                before = {}
                for aggregator in windows:
                    cells = aggregator._cells
                    source = dict(cells)
                    for step, _values in binding:
                        source[step.variable] = cells[step.variable].copy()
                    before[aggregator] = source
                for step, values in binding:
                    step.kernel(windows, values, before)
            else:
                continue
            processed += 1
        for aggregator in windows:
            aggregator.events_processed += processed

    # -- results -------------------------------------------------------------------

    def final_accumulator(self) -> TrendAccumulator:
        """Merge of the accumulators of all end variables, in a fresh one."""
        ends = self.plan.automaton.end_variables
        if len(ends) == 1:
            # zero + merge(cell) is a copy: a cell with no trend holds zero
            # slots, and adding a slot to the integer 0 keeps its value (a
            # sum slot starts at 0 and so never holds -0.0)
            (variable,) = ends
            return self._cells[variable].copy()
        final = TrendAccumulator.zero(self.plan.targets)
        for variable in ends:
            final.merge(self._cells[variable])
        return final

    def cell(self, variable: str) -> TrendAccumulator:
        """Accumulator currently maintained for ``variable`` (for inspection)."""
        return self._cells[variable]

    # -- memory accounting -------------------------------------------------------------

    def storage_units(self) -> int:
        return sum(cell.storage_units for cell in self._cells.values())


# -- the compiled fold --------------------------------------------------------------


def fold_kernel(
    label: str,
    variable: str,
    predecessors: Tuple[str, ...],
    starts: int,
    own: Tuple[bool, ...],
) -> Callable:
    """Compile what binding an event to ``variable`` does to the cells.

    Returns ``kernel(windows, values, before)``: for each type-grained
    aggregator of ``windows``, add to the cell of ``variable`` the trends of
    every predecessor cell, each extended by the event, plus the one-event
    trend if ``starts``.  ``values`` holds what the event's targets read
    off it, aligned with the plan's targets; ``before`` is ``None``, or per
    aggregator the cells as they were before an event bound to several
    variables, to read the other predecessors from.

    The literal recurrence builds that summary in three fresh accumulators
    and then merges it; the kernel adds it slot by slot straight into the
    cell, in the literal recurrence's order and form of additions and
    comparisons (float sums, ``-0.0`` and the saturation of SUM/AVG depend
    on them), which ``tests/test_type_grained_fold.py`` checks against the
    recurrence kept in ``tests/helpers.py``.  A Kleene self-loop reads its
    predecessor from the cell being written: each slot is read before it is
    written, and no other binding of the event writes that cell.

    The source holds only integers and names made here; variable names are
    bound constants.  It is compiled and registered under ``label`` by
    :func:`~repro.analyzer.codegen.compile_generated`.
    """
    # constant ``name_k`` is the variable of cell ``k``; cell 0 is written
    names: List[str] = [variable]
    for name in predecessors:
        if name not in names:
            names.append(name)
    body: List[str] = []
    for index, is_own in enumerate(own):
        if is_own:
            body.append(f"value_{index} = values[{index}]")
    if predecessors or starts:
        body.append("for window in windows:")
        numbers = [names.index(name) for name in predecessors]
        body.extend(f"    {line}" for line in _window_body(numbers, starts, own))
    else:
        body.append("pass")  # nothing to extend and no trend to start
    parameters = ", ".join(f"name_{number}" for number in range(len(names)))
    source = "\n".join(
        [
            f"def build({parameters}, inf):",
            "    def kernel(windows, values, before):",
            *(f"        {line}" for line in body),
            "    return kernel",
            "",
        ]
    )
    return compile_generated(label, source, *names, float("inf"))


def _window_body(predecessors: List[int], starts: int, own) -> List[str]:
    """What :func:`fold_kernel` does to one window, predecessors by cell number."""
    lines: List[str] = []

    def emit(line: str, depth: int = 0) -> None:
        lines.append("    " * depth + line)

    def cell(number: int) -> str:
        return "cell" if number == 0 else f"cell_{number}"

    def slots(number: int) -> str:
        return "slots" if number == 0 else f"slots_{number}"

    others = [number for number in predecessors if number]
    emit("cells = window._cells")
    if others:
        emit("source = cells if before is None else before[window]")
    emit("cell = cells[name_0]")
    for number in others:
        emit(f"cell_{number} = source[name_{number}]")
    if predecessors:
        counts = " + ".join(f"{cell(number)}.trend_count" for number in predecessors)
        emit(f"extended = {counts}")
        if starts:
            emit("multiplicity = extended + 1")
        else:
            emit("multiplicity = extended")
            emit("if not multiplicity:")
            emit("continue", 1)
    else:
        emit("multiplicity = 1")
    emit("cell.trend_count += multiplicity")
    emit("slots = cell.slots")
    for number in others:
        emit(f"slots_{number} = cell_{number}.slots")
    for index, is_own in enumerate(own):
        base = index * WIDTH
        emit("count = total = 0")
        if not predecessors:
            emit("low = high = None")
        for position, number in enumerate(predecessors):
            theirs = slots(number)
            emit(f"count += {theirs}[{base}]")
            emit(f"total += {theirs}[{base + 1}]")
            if position == 0:
                # low and high are still None: the first extrema are taken
                emit(f"low = {theirs}[{base + 2}]")
                emit(f"high = None if low is None else {theirs}[{base + 3}]")
                continue
            emit(f"other = {theirs}[{base + 2}]")
            emit("if other is not None:")
            emit("if low is None or not low <= other:", 1)
            emit("low = other", 2)
            emit(f"other = {theirs}[{base + 3}]", 1)
            emit("if high is None or not high >= other:", 1)
            emit("high = other", 2)
        if is_own:
            value = f"value_{index}"
            emit("count += multiplicity")
            emit(f"if {value} is not None:")
            if predecessors:
                emit("if extended:", 1)
                emit("try:", 2)
                emit(f"total += {value} * extended", 3)
                emit("except OverflowError:", 2)
                emit(f"total = inf if {value} >= 0 else -inf", 3)
            if starts:
                emit(f"total += {value}", 1)
            emit(f"if low is None or not low <= {value}:", 1)
            emit(f"low = {value}", 2)
            emit(f"if high is None or not high >= {value}:", 1)
            emit(f"high = {value}", 2)
        emit(f"slots[{base}] += count")
        emit(f"slots[{base + 1}] += total")
        emit("if low is not None:")
        emit(f"current = slots[{base + 2}]", 1)
        emit("if current is None or not current <= low:", 1)
        emit(f"slots[{base + 2}] = low", 2)
        emit(f"current = slots[{base + 3}]", 1)
        emit("if current is None or not current >= high:", 1)
        emit(f"slots[{base + 3}] = high", 2)
    return lines
