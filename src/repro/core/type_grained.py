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
constants, and a Kleene self-loop -- a step whose one predecessor is its
own cell -- reading and writing each slot once.

Negated sub-patterns (Section 8) under skip-till-any-match are cells too:
"mark ``Tp`` invalid for ``Tf``" keeps one *compatible* cell per (negated
component, ``Tp`` variable), keyed ``(component.index, variable)`` in the
same table as the variable cells
(:class:`~repro.extensions.negation.NegationTypeGrainedAggregator`).  A
``Tf`` step's kernel reads a crossing edge's predecessor from that key, a
``Tp`` step's kernel also writes the keys it feeds (``FoldStep.writes``),
and :meth:`TypeGrainedAggregator.process_run` resets them where an event
of the negated type falls (``plan.negations``).

This module also holds :class:`Recurrence`, the one template of the
recurrence's per-target arithmetic: Algorithm 1's kernel, Algorithm 2's step
(:func:`~repro.core.mixed_grained.mixed_step`) and Algorithm 3's
(:func:`~repro.core.pattern_grained.pattern_step`) are all emitted from it.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Sequence, Tuple

from repro.analyzer.codegen import Constants, compile_generated
from repro.analyzer.plan import CograPlan
from repro.core.aggregate_state import WIDTH, TrendAccumulator
from repro.core.base import SubstreamAggregator


class TypeGrainedAggregator(SubstreamAggregator):
    """Maintains one trend accumulator per pattern variable."""

    __slots__ = ("_cells",)

    def __init__(self, plan: CograPlan):
        super().__init__(plan)
        targets = plan.targets
        #: variable -> accumulator of all (partial) trends ending at that
        #: variable; a negated query adds its compatible cells
        self._cells: Dict[Hashable, TrendAccumulator] = {
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
        applies it window by window (:func:`fold_kernel`).  An unbound
        event of a negated type (``plan.negations``, Section 8) empties
        the compatible cells of its components.
        """
        windows = (self, *also) if also else (self,)
        negations = self.plan.negations
        negated = None if negations is None else negations.by_type
        processed = 0
        for event, binding in run:
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
                        for key in step.writes:
                            source[key] = cells[key].copy()
                    before[aggregator] = source
                for step, values in binding:
                    step.kernel(windows, values, before)
            else:
                if negated and event.event_type in negated:
                    targets = self.plan.targets
                    for component in negated[event.event_type]:
                        for variable in component.predecessor_variables:
                            key = (component.index, variable)
                            for aggregator in windows:
                                if aggregator._cells[key].trend_count:
                                    aggregator._cells[key] = TrendAccumulator(targets)
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
            # sum slot never holds -0.0, see :class:`Recurrence`)
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


# -- the template of the generated folds ------------------------------------------


class Recurrence:
    """Table 8's per-target arithmetic for one step, emitted as source lines.

    Every generated fold is built from these fragments, each appended to
    :attr:`lines` at a given indentation ``depth`` (four spaces a level):

    * the *sums* -- per target ``k`` the temporaries ``count_k``,
      ``total_k``, ``low_k`` and ``high_k``, plus ``extended`` (the trend
      count) -- start as a first predecessor cell's slots (:meth:`first`)
      or empty (:meth:`empty`), gain every other predecessor cell
      (:meth:`add`) and the event (:meth:`event`), and are then added to a
      cell (:meth:`write`) or become a fresh one (:meth:`fill`);
    * a Kleene self-loop adds the cell's trends, each extended, to the cell
      itself (:meth:`self_loop`), and the pattern-grained last cell
      replaces its trends by their extensions (:meth:`extend`); both read
      and write each slot once;
    * :meth:`merge` adds one cell to another, unrolled.

    Every addition and comparison keeps the order and form of the literal
    recurrence -- ``zero`` -> ``merge`` each predecessor -> ``extended``
    -> ``merge(singleton)`` -> ``merge`` into the cell -- which
    ``tests/helpers.py`` keeps as the oracle: float sums, ``-0.0`` and the
    saturation of SUM/AVG depend on it.  Two steps of that chain are left
    out because they cannot change a value: adding a slot to the zero
    accumulator's integer ``0`` (a sum slot never holds ``-0.0``: it
    starts at the integer ``0``, and a sum is ``-0.0`` only when both of
    its terms are), and merging a cell's extrema into themselves.

    ``own`` marks the targets on the step's variable, whose values the
    fold reads as ``value_k``; ``starts`` is 1 when the event begins a
    trend of its own.
    """

    def __init__(self, own: Sequence[bool], starts: int):
        self.own = tuple(own)
        self.starts = starts
        #: the emitted source, one line per entry
        self.lines: List[str] = []
        #: the targets whose sums the source holds
        self.summed: Sequence[int] = range(len(self.own))

    def emit(self, line: str, depth: int) -> None:
        self.lines.append("    " * depth + line)

    def values(self, depth: int) -> None:
        """Read what the event's targets read off it, once per call."""
        for index, is_own in enumerate(self.own):
            if is_own:
                self.emit(f"value_{index} = values[{index}]", depth)

    # -- the sums --------------------------------------------------------------

    def first(self, cell: str, depth: int, counted: bool = False) -> None:
        """The sums start as the trends of ``cell``.

        ``counted``: ``extended`` is summed up already.
        """
        emit = self.emit
        if not counted:
            emit(f"extended = {cell}.trend_count", depth)
        self.summed = range(len(self.own))
        if self.own:
            emit(f"theirs = {cell}.slots", depth)
        for index in self.summed:
            base = index * WIDTH
            emit(f"count_{index} = theirs[{base}]", depth)
            emit(f"total_{index} = theirs[{base + 1}]", depth)
            emit(f"low_{index} = theirs[{base + 2}]", depth)
            emit(
                f"high_{index} = None if low_{index} is None else theirs[{base + 3}]",
                depth,
            )

    def empty(self, depth: int, targets: Sequence[int] = None) -> None:
        """The sums start empty: all of them and ``extended``, or the sums
        of ``targets`` only (a step without predecessors)."""
        emit = self.emit
        if targets is None:
            emit("extended = 0", depth)
            targets = range(len(self.own))
        self.summed = targets
        for index in targets:
            emit(f"count_{index} = total_{index} = 0", depth)
            emit(f"low_{index} = high_{index} = None", depth)

    def add(self, cell: str, depth: int, counted: bool = False) -> None:
        """Add the trends of ``cell`` to the sums (``counted``: to all but
        ``extended``)."""
        emit = self.emit
        if not counted:
            emit(f"extended += {cell}.trend_count", depth)
        if self.own:
            emit(f"theirs = {cell}.slots", depth)
        for index in range(len(self.own)):
            base = index * WIDTH
            low, high = f"low_{index}", f"high_{index}"
            emit(f"count_{index} += theirs[{base}]", depth)
            emit(f"total_{index} += theirs[{base + 1}]", depth)
            emit(f"other = theirs[{base + 2}]", depth)
            emit("if other is not None:", depth)
            emit(f"if {low} is None or not {low} <= other:", depth + 1)
            emit(f"{low} = other", depth + 2)
            emit(f"other = theirs[{base + 3}]", depth + 1)
            emit(f"if {high} is None or not {high} >= other:", depth + 1)
            emit(f"{high} = other", depth + 2)

    def extend_cells(self, cells: Sequence[str], depth: int) -> None:
        """The sums of the trends of ``cells``, each extended by the event,
        plus the event's own trend when the step starts one.

        ``cells`` are local names, in pattern order.  A step that starts
        no trend skips a window whose cells hold none (the caller's loop
        must be a ``for``).
        """
        emit = self.emit
        if not cells:
            self.empty(depth, [index for index, own in enumerate(self.own) if own])
            emit("multiplicity = 1", depth)
            self.event(depth, extends=False)
            return
        counts = " + ".join(f"{cell}.trend_count" for cell in cells)
        emit(f"extended = {counts}", depth)
        if not self.starts:
            emit("if not extended:", depth)
            emit("continue", depth + 1)
        self.first(cells[0], depth, counted=True)
        for cell in cells[1:]:
            self.add(cell, depth, counted=True)
        self.multiplicity(depth)
        self.event(depth)

    def multiplicity(self, depth: int) -> None:
        """``multiplicity``: the extended trends plus the event's own."""
        if self.starts:
            self.emit("multiplicity = extended + 1", depth)
        else:
            self.emit("multiplicity = extended", depth)

    def event(self, depth: int, extends: bool = True) -> None:
        """Add the event to the sums: once per trend of ``multiplicity``.

        ``extends`` is false for a step without predecessors, whose only
        trend is the event's own.
        """
        for index, is_own in enumerate(self.own):
            if is_own:
                self.emit(f"count_{index} += multiplicity", depth)
                sums = (f"total_{index}", f"low_{index}", f"high_{index}")
                self._value(index, sums, depth, extends)

    def _value(self, index, sums, depth, extends=True) -> None:
        """What the event's value adds to one target's sum and extrema.

        ``sums`` names the target's sum, minimum and maximum: names or
        slots; a slot is read into ``current`` before it is compared.
        """
        emit = self.emit
        total, low, high = sums
        value = f"value_{index}"
        emit(f"if {value} is not None:", depth)
        if extends:
            emit("if extended:", depth + 1)
            emit("try:", depth + 2)
            emit(f"{total} += {value} * extended", depth + 3)
            emit("except OverflowError:", depth + 2)
            # the trend count is exponential in the number of events;
            # saturate SUM/AVG
            emit(f"{total} = inf if {value} >= 0 else -inf", depth + 3)
        if self.starts:
            emit(f"{total} += {value}", depth + 1)
        for extremum, op in ((low, "<="), (high, ">=")):
            current = extremum
            if extremum.endswith("]"):
                current = "current"
                emit(f"current = {extremum}", depth + 1)
            emit(f"if {current} is None or not {current} {op} {value}:", depth + 1)
            emit(f"{extremum} = {value}", depth + 2)

    # -- into a cell -------------------------------------------------------------

    def write(self, cell: str, depth: int) -> None:
        """Add the sums to ``cell``."""
        self.emit(f"{cell}.trend_count += multiplicity", depth)
        if self.summed:
            self.emit(f"slots = {cell}.slots", depth)
        for index in self.summed:
            sums = (f"count_{index}", f"total_{index}", f"low_{index}", f"high_{index}")
            self._add_target("slots", index, sums, depth)

    def fill(self, cell: str, depth: int) -> None:
        """Make the fresh (zero) ``cell`` hold the sums.

        Adding them to its zero slots would leave each as it is.
        """
        self.emit(f"{cell}.trend_count = multiplicity", depth)
        if not self.own:
            return
        slots = ", ".join(
            f"count_{index}, total_{index}, low_{index}, high_{index}"
            if index in self.summed
            else "0, 0, None, None"
            for index in range(len(self.own))
        )
        self.emit(f"{cell}.slots = [{slots}]", depth)

    def merge(self, into: str, cell: str, count: str, depth: int) -> None:
        """:meth:`TrendAccumulator.merge` of a cell with ``count`` trends
        (not 0), unrolled; ``into`` and ``cell`` are local names."""
        self.emit(f"{into}.trend_count += {count}", depth)
        if self.own:
            self.emit(f"into = {into}.slots", depth)
            self.emit(f"theirs = {cell}.slots", depth)
        for index in range(len(self.own)):
            base = index * WIDTH
            sums = tuple(f"theirs[{base + offset}]" for offset in range(WIDTH))
            self._add_target("into", index, sums, depth)

    def _add_target(self, slots, index, sums, depth) -> None:
        """Add ``sums`` -- one target's count, sum, minimum and maximum,
        names or slots -- to target ``index`` of ``slots``.

        A minimum and a maximum are set together, so ``high`` is read only
        when ``low`` is not ``None``.
        """
        emit = self.emit
        count, total, low, high = sums
        base = index * WIDTH
        emit(f"{slots}[{base}] += {count}", depth)
        emit(f"{slots}[{base + 1}] += {total}", depth)
        if low.endswith("]"):
            emit(f"low = {low}", depth)
            low = "low"
        emit(f"if {low} is not None:", depth)
        emit(f"current = {slots}[{base + 2}]", depth + 1)
        emit(f"if current is None or not current <= {low}:", depth + 1)
        emit(f"{slots}[{base + 2}] = {low}", depth + 2)
        if high.endswith("]"):
            emit(f"high = {high}", depth + 1)
            high = "high"
        emit(f"current = {slots}[{base + 3}]", depth + 1)
        emit(f"if current is None or not current >= {high}:", depth + 1)
        emit(f"{slots}[{base + 3}] = {high}", depth + 2)

    def self_loop(self, cell: str, depth: int) -> None:
        """Add the trends of ``cell``, each extended by the event, to ``cell``.

        The literal recurrence merges the cell into a copy of itself:
        ``count`` becomes ``count + (count + multiplicity)`` on the
        variable's targets and ``count + count`` on the others, a sum
        ``sum + (sum + value * extended + value)`` or ``sum + sum``, and an
        extremum moves to the event's value where the value beats it.  A
        step that starts no trend skips an empty cell (the caller's loop
        must be a ``for``).
        """
        emit = self.emit
        emit(f"extended = {cell}.trend_count", depth)
        if not self.starts:
            emit("if not extended:", depth)
            emit("continue", depth + 1)
        self.multiplicity(depth)
        emit(f"{cell}.trend_count = extended + multiplicity", depth)
        if self.own:
            emit(f"slots = {cell}.slots", depth)
        for index, is_own in enumerate(self.own):
            base = index * WIDTH
            emit(f"count = slots[{base}]", depth)
            if is_own:
                emit(f"slots[{base}] = count + (count + multiplicity)", depth)
                emit(f"stored = total = slots[{base + 1}]", depth)
                sums = ("total", f"slots[{base + 2}]", f"slots[{base + 3}]")
                self._value(index, sums, depth)
                emit(f"slots[{base + 1}] = stored + total", depth)
            else:
                emit(f"slots[{base}] = count + count", depth)
                emit(f"total = slots[{base + 1}]", depth)
                emit(f"slots[{base + 1}] = total + total", depth)

    def extend(self, cell: str, depth: int) -> None:
        """Replace the trends of ``cell`` by their extensions, plus the
        event's own trend when the step starts one.

        ``TrendAccumulator.extended`` on the cell itself, then
        ``merge(singleton)``.  The cell has trends, or the step starts one.
        """
        emit = self.emit
        emit(f"extended = {cell}.trend_count", depth)
        self.multiplicity(depth)
        emit(f"{cell}.trend_count = multiplicity", depth)
        if any(self.own):
            emit(f"slots = {cell}.slots", depth)
        for index, is_own in enumerate(self.own):
            if is_own:
                base = index * WIDTH
                emit(f"slots[{base}] += multiplicity", depth)
                sums = tuple(f"slots[{base + offset}]" for offset in (1, 2, 3))
                self._value(index, sums, depth)


def compile_fold(label: str, constants: Constants, header: str, body: List[str]):
    """Compile ``def {header}:`` with ``body`` under ``label``.

    ``constants`` are the names the body refers to besides its parameters
    and ``inf`` -- variable names and everything else a query may spell --
    bound by :func:`~repro.analyzer.codegen.compile_generated`.
    """
    function = header.split("(", 1)[0]
    source = "\n".join(
        [
            f"def build({', '.join([*constants.names, 'inf'])}):",
            f"    def {header}:",
            *(f"        {line}" for line in body or ["pass"]),
            f"    return {function}",
            "",
        ]
    )
    return compile_generated(label, source, *constants.values, float("inf"))


# -- the compiled fold --------------------------------------------------------------


def fold_kernel(
    label: str,
    writes: Tuple[Hashable, ...],
    reads: Tuple[Hashable, ...],
    starts: int,
    own: Tuple[bool, ...],
) -> Callable:
    """Compile what binding an event to a variable does to the cells.

    Returns ``kernel(windows, values, before)``: for each type-grained
    aggregator of ``windows``, add to every cell of ``writes`` the trends
    of every cell of ``reads``, each extended by the event, plus the
    one-event trend if ``starts``.  ``writes`` is the variable's cell, then
    the compatible cells the variable feeds; ``reads`` are its
    predecessors in pattern order, a predecessor whose edge crosses a
    negation boundary (Section 8) by the key of its compatible cell.
    ``values`` holds what the event's targets read off it, aligned with
    the plan's targets; ``before`` is ``None``, or per aggregator the cells
    as they were before an event bound to several variables, to read the
    other predecessors from.

    The literal recurrence builds that summary in three fresh accumulators
    and then merges it; the kernel adds it slot by slot straight into the
    cells (:class:`Recurrence`), which ``tests/test_type_grained_fold.py``
    checks against the recurrence kept in ``tests/helpers.py``.  A Kleene
    self-loop that writes no other cell reads its predecessor from the
    cell being written: every slot is read before it is written, and no
    other binding of the event writes that cell.

    The source holds only integers and names made here; variable names and
    cell keys are bound constants.
    """
    variable = writes[0]
    names = cell_names(variable, (*reads, *writes[1:]))
    template = Recurrence(own, starts)
    template.values(0)
    if reads == writes == (variable,):
        template.emit("for window in windows:", 0)
        template.emit("cell = window._cells[name_0]", 1)
        template.self_loop("cell", 1)
    elif reads or starts:
        template.emit("for window in windows:", 0)
        fixed_predecessors(template, names, reads, "window._cells", 1)
        for key in writes[1:]:
            template.emit(f"cell = cells[name_{names.index(key)}]", 1)
            template.write("cell", 1)
    constants = Constants(
        **{f"name_{number}": name for number, name in enumerate(names)}
    )
    return compile_fold(
        label, constants, "kernel(windows, values, before)", template.lines
    )


def cell_names(variable: str, predecessors: Tuple[Hashable, ...]) -> List[Hashable]:
    """The cells a step's source calls ``name_k``: its own is ``name_0``,
    the written cell, then each other of ``predecessors`` once."""
    names = [variable]
    for name in predecessors:
        if name not in names:
            names.append(name)
    return names


def fixed_predecessors(template, names, predecessors, cells, depth) -> None:
    """One window of a step whose predecessor cells are known at plan build.

    ``cells`` is the expression of the window's cells by variable, from
    which ``name_0``'s is written and the others are read (from ``before``
    when it is given).
    """
    emit = template.emit
    numbers = [names.index(name) for name in predecessors]
    emit(f"cells = {cells}", depth)
    if any(numbers):
        emit("source = cells if before is None else before[window]", depth)
    emit("cell = cells[name_0]", depth)
    for number in numbers:
        if number:
            emit(f"cell_{number} = source[name_{number}]", depth)
    template.extend_cells(
        ["cell" if number == 0 else f"cell_{number}" for number in numbers], depth
    )
    template.write("cell", depth)
