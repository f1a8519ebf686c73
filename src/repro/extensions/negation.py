"""Negated sub-patterns (Section 8 of the paper).

The paper sketches negation support as follows: *split the pattern into
positive and negative sub-patterns and maintain aggregates for each
sub-pattern separately.  Whenever a negative sub-pattern N finds a match,*

* *per event:* all previously matched events of predecessor types ``Tp`` of
  N are marked as incompatible with all future events of following types
  ``Tf`` of N,
* *per type:* the aggregates of all predecessor types ``Tp`` are marked as
  invalid to contribute to aggregates of the following types ``Tf``,
* *per pattern:* the last matched event of the sub-pattern preceding N is
  set to null.

This module implements exactly that for negated *event type atoms* placed
between two positive parts of a sequence, e.g. ``SEQ(A+, NOT C, B)`` or the
ridesharing pattern ``SEQ(Accept, NOT Cancel, Finish)``:

* :func:`analyze_negations` splits a pattern into its positive part and a
  list of :class:`NegatedComponent` descriptors (``Tp`` / ``Tf`` per
  negation), compiled into :class:`NegationTables`;
* :func:`~repro.analyzer.plan.plan_query` plans every query: a negated one
  for its positive part, with the tables as ``plan.negations``, and
* :func:`~repro.core.base.create_aggregator` builds the negation-aware
  counterpart of the plan's granularity from the plan alone.

Enforced semantics
------------------
The relation a counted trend satisfies is the one the rule of its matching
semantics maintains:

* *skip-till-any-match* (per type, per event): a trend is counted when, for
  every negated component, no event of the negated type occurs between two
  *adjacent* trend events that cross the negation boundary (an event bound
  to a ``Tp`` variable followed by an event bound to a ``Tf`` variable);
* *skip-till-next-match* and *contiguous* (per pattern): a trend is counted
  when no event of a negated type occurs between two adjacent trend events
  whose left one is bound to a variable of the positive part preceding that
  negation -- such an event sets the last matched event to null, so no
  trend continues from it.  Over ``a1 a2 c3 a4 b5``, ``SEQ(A+, NOT C, B)``
  keeps ``(a1, a2, a4, b5)`` under skip-till-any-match (``a2 -> a4`` does
  not cross into ``B``) and drops it under skip-till-next-match (``c3``
  follows ``a2``, an ``A``).

:func:`trend_respects_negations` states both relations explicitly; the
enumeration oracle (:class:`~repro.baselines.trend_enumeration.TrendOracle`)
filters its positive trends with it.

Scope and simplifications:

* A negated sub-pattern must be a single event type atom that appears as a
  direct element of a sequence with at least one positive part before and
  after it.
* The negated event type must not also occur positively in the pattern.
* Under skip-till-any-match an adjacency edge may cross one negation
  boundary only (``SEQ(A, NOT C, NOT D, B)`` is rejected when it is planned,
  before any event); the per-pattern rule resets on either type.
* Queries with predicates on adjacent events are evaluated at event
  granularity (the mixed-grained dual bookkeeping is not implemented).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence as Seq, Tuple

from repro.analyzer.automaton import PatternAutomaton
from repro.analyzer.codegen import Constants
from repro.analyzer.plan import CograPlan, FoldStep
from repro.core.aggregate_state import TrendAccumulator
from repro.core.base import SubstreamAggregator
from repro.core.event_grained import EventGrainedAggregator
from repro.core.mixed_grained import fold_mixed
from repro.core.pattern_grained import PatternGrainedAggregator
from repro.core.type_grained import Recurrence, compile_fold
from repro.errors import InvalidPatternError
from repro.events.event import Event
from repro.query.ast import EventTypePattern, Negation, Pattern, Sequence
from repro.query.query import Query
from repro.query.semantics import Semantics


@dataclass(frozen=True)
class NegatedComponent:
    """One negated event type atom of a pattern and its boundary variables.

    Attributes
    ----------
    index:
        Position of the component in document order (used as a stable key).
    event_type:
        Event type whose occurrence invalidates crossing the boundary.
    predecessor_variables:
        ``Tp`` -- variables that may immediately precede the negation (the
        end variables of the positive part before it).
    follower_variables:
        ``Tf`` -- variables that may immediately follow the negation (the
        start variables of the positive part after it).
    prefix_variables:
        All variables of the positive part before the negation; used by the
        pattern-grained invalidation rule.
    """

    index: int
    event_type: str
    predecessor_variables: FrozenSet[str]
    follower_variables: FrozenSet[str]
    prefix_variables: FrozenSet[str]

    def describe(self) -> str:
        """Readable rendering used in plan explanations."""
        return (
            f"NOT {self.event_type} between {sorted(self.predecessor_variables)} "
            f"and {sorted(self.follower_variables)}"
        )


@dataclass(frozen=True)
class NegationAnalysis:
    """Result of splitting a pattern into positive and negative parts."""

    positive_pattern: Pattern
    components: Tuple[NegatedComponent, ...]
    #: the components compiled for the aggregators' hot paths
    tables: "NegationTables" = field(compare=False, repr=False)

    @property
    def has_negations(self) -> bool:
        """True when the original pattern contained at least one negation."""
        return bool(self.components)


# ---------------------------------------------------------------------------
# static analysis
# ---------------------------------------------------------------------------


def strip_negations(pattern: Pattern) -> Pattern:
    """Return ``pattern`` with every negated sub-pattern removed.

    Negations may only appear as direct elements of a sequence; anywhere
    else (inside a Kleene operator, as a whole pattern, ...) the incremental
    invalidation rules of Section 8 do not apply and the function raises
    :class:`InvalidPatternError`.
    """
    if isinstance(pattern, Negation):
        raise InvalidPatternError(
            "a negated sub-pattern must appear inside a sequence with positive "
            "parts before and after it"
        )
    if isinstance(pattern, EventTypePattern):
        return pattern
    if isinstance(pattern, Sequence):
        parts = [strip_negations(part) for part in pattern.parts if not isinstance(part, Negation)]
        if not parts:
            raise InvalidPatternError("a sequence may not consist of negated parts only")
        if len(parts) == 1:
            return parts[0]
        return Sequence(parts)
    rebuilt = [strip_negations(child) for child in pattern.children()]
    if not rebuilt:
        return pattern
    clone = type(pattern).__new__(type(pattern))
    clone.__dict__.update(pattern.__dict__)
    # rebuild the children attribute used by the concrete node type
    if hasattr(pattern, "inner"):
        clone.inner = rebuilt[0]
    elif hasattr(pattern, "parts"):
        clone.parts = tuple(rebuilt)
    elif hasattr(pattern, "alternatives"):
        clone.alternatives = tuple(rebuilt)
    return clone


def analyze_negations(pattern: Pattern) -> NegationAnalysis:
    """Split ``pattern`` into its positive part and its negated components."""
    components: List[NegatedComponent] = []
    _collect_components(pattern, components)
    positive = strip_negations(pattern) if components else pattern
    positive.validate()

    positive_types = frozenset(leaf.event_type for leaf in positive.leaves())
    for component in components:
        if component.event_type in positive_types:
            raise InvalidPatternError(
                f"event type {component.event_type!r} occurs both positively and "
                "under a negation, which the negation extension does not support"
            )
    return NegationAnalysis(
        positive_pattern=positive,
        components=tuple(components),
        tables=NegationTables(components),
    )


def _collect_components(pattern: Pattern, components: List[NegatedComponent]) -> None:
    """Find negated atoms in every sequence of ``pattern`` (pre-order)."""
    if isinstance(pattern, Sequence):
        for position, part in enumerate(pattern.parts):
            if isinstance(part, Negation):
                components.append(_component_for(pattern.parts, position, len(components)))
            else:
                _collect_components(part, components)
        return
    if isinstance(pattern, Negation):
        raise InvalidPatternError(
            "a negated sub-pattern must appear inside a sequence with positive "
            "parts before and after it"
        )
    for child in pattern.children():
        _collect_components(child, components)


def _component_for(parts: Seq[Pattern], position: int, index: int) -> NegatedComponent:
    """Build the :class:`NegatedComponent` for ``parts[position]``."""
    negation = parts[position]
    inner = negation.inner
    if not isinstance(inner, EventTypePattern):
        raise InvalidPatternError(
            f"only negated event type atoms are supported, got NOT({inner!r})"
        )
    prefix_parts = [part for part in parts[:position] if not isinstance(part, Negation)]
    suffix_parts = [part for part in parts[position + 1:] if not isinstance(part, Negation)]
    if not prefix_parts or not suffix_parts:
        raise InvalidPatternError(
            f"the negated type {inner.event_type!r} needs a positive sub-pattern "
            "both before and after it"
        )
    prefix = strip_negations(prefix_parts[0] if len(prefix_parts) == 1 else Sequence(prefix_parts))
    suffix = strip_negations(suffix_parts[0] if len(suffix_parts) == 1 else Sequence(suffix_parts))
    prefix_automaton = PatternAutomaton(prefix)
    suffix_automaton = PatternAutomaton(suffix)
    return NegatedComponent(
        index=index,
        event_type=inner.event_type,
        predecessor_variables=frozenset(prefix_automaton.end_variables),
        follower_variables=frozenset(suffix_automaton.start_variables),
        prefix_variables=frozenset(prefix_automaton.variables),
    )


def positive_query(query: Query, analysis: Optional[NegationAnalysis] = None) -> Query:
    """Return ``query`` with negated sub-patterns removed from its pattern."""
    analysis = analysis or analyze_negations(query.pattern)
    if not analysis.has_negations:
        return query
    return Query(
        pattern=analysis.positive_pattern,
        semantics=query.semantics,
        aggregates=query.aggregates,
        predicates=query.predicates,
        group_by=query.group_by,
        window=query.window,
        return_attributes=query.return_attributes,
        min_trend_length=query.min_trend_length,
        name=query.name,
    )


# ---------------------------------------------------------------------------
# negation-aware aggregators
# ---------------------------------------------------------------------------


def _crossing_edges(
    components: Seq[NegatedComponent],
) -> Dict[Tuple[str, str], NegatedComponent]:
    """Map adjacency edges ``(Tp variable, Tf variable)`` to the boundary they cross.

    The per-type and per-event rules (and the reference relation below) keep
    one state per edge, so an edge may cross one boundary only.
    """
    crossing: Dict[Tuple[str, str], NegatedComponent] = {}
    for component in components:
        for predecessor in component.predecessor_variables:
            for follower in component.follower_variables:
                if (predecessor, follower) in crossing:
                    raise InvalidPatternError(
                        f"the adjacency edge {(predecessor, follower)} crosses more "
                        "than one negation boundary; at most one negated type may "
                        "separate two positive parts"
                    )
                crossing[(predecessor, follower)] = component
    return crossing


class NegationTables:
    """What the negation-aware aggregators look up per event, compiled once.

    One instance serves every aggregator of a plan (``plan.negations``,
    :attr:`NegationAnalysis.tables`): the tables are keyed by variable names
    and derive from the negated components alone.
    """

    __slots__ = ("components", "by_type", "feeds", "cell_keys", "crossed", "folds")

    def __init__(self, components: Seq[NegatedComponent]):
        self.components = tuple(components)
        #: negated event type -> the components it invalidates
        self.by_type: Dict[str, Tuple[NegatedComponent, ...]] = {}
        #: ``Tp`` variable -> keys of the compatible cells its events also end in
        self.feeds: Dict[str, Tuple[Tuple[int, str], ...]] = {}
        for component in self.components:
            self.by_type[component.event_type] = (
                *self.by_type.get(component.event_type, ()),
                component,
            )
            for variable in component.predecessor_variables:
                self.feeds[variable] = (
                    *self.feeds.get(variable, ()),
                    (component.index, variable),
                )
        #: edge crossing a negation boundary -> key of the ``Tp`` variable's
        #: per-component state (compatible cell, cut-off index)
        self.cell_keys: Optional[Dict[Tuple[str, str], Tuple[int, str]]] = None
        #: ``Tf`` variable -> {``Tp`` predecessor: key of its compatible cell}
        self.crossed: Optional[Dict[str, Dict[str, Tuple[int, str]]]] = None
        #: variable -> the type-grained cells fold of an event bound to it
        #: (:func:`cells_fold`)
        self.folds: Optional[Dict[str, object]] = None

    def with_crossings(self) -> "NegationTables":
        """These tables with :attr:`cell_keys` and :attr:`crossed` compiled.

        Only the per-type and per-event rules need them -- the per-pattern
        rule resets on any negated type -- so a pattern they cannot enforce
        (:class:`InvalidPatternError`) is rejected where one of them is
        planned: in :class:`~repro.analyzer.plan.CograPlan`, before any event.
        """
        if self.cell_keys is None:
            cell_keys = {
                (predecessor, follower): (component.index, predecessor)
                for (predecessor, follower), component in _crossing_edges(
                    self.components
                ).items()
            }
            self.crossed = {}
            for (predecessor, follower), key in cell_keys.items():
                self.crossed.setdefault(follower, {})[predecessor] = key
            self.cell_keys = cell_keys
        return self

    def with_folds(self, plan: CograPlan) -> "NegationTables":
        """These tables with :attr:`folds` compiled from ``plan``'s fold steps.

        What a step does to the full and compatible cells depends on the
        query alone, so the folds of one plan also serve the aggregators a
        plan of another granularity adopted after a live migration;
        :class:`~repro.analyzer.plan.CograPlan` compiles them once per plan
        when the query may be type-grained.
        """
        if self.folds is None:
            crossed = self.with_crossings().crossed
            self.folds = {
                variable: cells_fold(
                    f"<negation fold {plan.query.name}:{variable}>",
                    step,
                    crossed.get(variable, {}),
                    self.feeds.get(variable, ()),
                )
                for variable, step in plan.fold_steps.items()
            }
        return self

    def state_keys(self) -> List[Tuple[int, str]]:
        """Keys of the per-(component, ``Tp`` variable) state, in document order."""
        return [
            (component.index, variable)
            for component in self.components
            for variable in component.predecessor_variables
        ]


class NegationPatternGrainedAggregator(PatternGrainedAggregator):
    """Pattern-grained aggregation with negated sub-patterns (NEXT / CONT).

    Whenever an event of a negated type arrives and the last matched event
    belongs to the positive part preceding that negation, the partial trends
    ending at the last matched event are invalidated (Section 8).
    """

    __slots__ = ("_tables",)

    def __init__(self, plan: CograPlan):
        super().__init__(plan)
        self._tables = plan.negations

    def _unbound(self, event: Event) -> None:
        for component in self._tables.by_type.get(event.event_type, ()):
            if self._last_variable in component.prefix_variables:
                self._reset_last()
        # a negated event also breaks contiguity like any other event
        super()._unbound(event)


class NegationTypeGrainedAggregator(SubstreamAggregator):
    """Type-grained aggregation with negated sub-patterns (ANY semantics).

    Besides the per-variable accumulator of Algorithm 1 the aggregator keeps
    one *compatible* accumulator per (negated component, ``Tp`` variable).
    Events of ``Tf`` variables draw their predecessor trends from the
    compatible accumulator, which is reset whenever the negated type
    matches -- exactly the "mark ``Tp`` invalid for ``Tf``" rule of
    Section 8.
    """

    __slots__ = ("_tables", "_full", "_compatible")

    def __init__(self, plan: CograPlan):
        super().__init__(plan)
        self._tables = tables = plan.negations
        targets = plan.targets
        self._full: Dict[str, TrendAccumulator] = {
            variable: TrendAccumulator.zero(targets)
            for variable in plan.automaton.variables
        }
        self._compatible: Dict[Tuple[int, str], TrendAccumulator] = {
            key: TrendAccumulator.zero(targets) for key in tables.state_keys()
        }

    # -- hot path -----------------------------------------------------------------

    def process_run(self, run, also=()) -> None:
        """The type-grained fold with two cells to read from and to write to.

        An event's trends are added in place to its variable's full cell and
        to the compatible cells the variable feeds, all at once, by the
        variable's compiled fold (:func:`cells_fold`): they may be among the
        cells the event reads.
        """
        tables = self._tables
        negated = tables.by_type
        folds = tables.folds
        windows = (self, *also)
        targets = self.plan.targets
        processed = 0
        for event, binding in run:
            if not binding:
                for component in negated.get(event.event_type, ()):
                    for variable in component.predecessor_variables:
                        key = (component.index, variable)
                        for aggregator in windows:
                            if aggregator._compatible[key].trend_count:
                                aggregator._compatible[key] = TrendAccumulator(targets)
                continue
            processed += 1
            before = None
            if len(binding) > 1:
                # an event bound to several variables (repeated types,
                # Section 8) is never its own predecessor: every binding
                # reads the cells as they were before the event
                before = {}
                for aggregator in windows:
                    full = dict(aggregator._full)
                    compatible = dict(aggregator._compatible)
                    for step, _values in binding:
                        full[step.variable] = full[step.variable].copy()
                        for key in tables.feeds.get(step.variable, ()):
                            compatible[key] = compatible[key].copy()
                    before[aggregator] = (full, compatible)
            for step, values in binding:
                folds[step.variable](windows, values, before)
        for aggregator in windows:
            aggregator.events_processed += processed

    # -- results -------------------------------------------------------------------

    def final_accumulator(self) -> TrendAccumulator:
        final = TrendAccumulator.zero(self.plan.targets)
        for variable in self.plan.automaton.end_variables:
            final.merge(self._full[variable])
        return final

    def cell(self, variable: str) -> TrendAccumulator:
        """Full accumulator of ``variable`` (for inspection)."""
        return self._full[variable]

    # -- memory accounting -------------------------------------------------------------

    def storage_units(self) -> int:
        units = sum(cell.storage_units for cell in self._full.values())
        units += sum(cell.storage_units for cell in self._compatible.values())
        return units


def cells_fold(
    label: str,
    step: FoldStep,
    crossed: Dict[str, Tuple[int, str]],
    feeds: Tuple[Tuple[int, str], ...],
):
    """Compile the negation type-grained fold of an event bound to ``step.variable``.

    Returns ``fold(windows, values, before)``: for each
    :class:`NegationTypeGrainedAggregator` of ``windows``, sum the trends
    of the variable's predecessors in pattern order -- a predecessor whose
    edge crosses a negation boundary from its compatible cell (``crossed``:
    predecessor -> cell key), any other from its full cell -- extend them by
    the event, and add them to the variable's full cell and to the
    compatible cells of ``feeds``.  ``before`` is ``None``, or per
    aggregator the ``(full, compatible)`` cells as they were before an event
    bound to several variables; the step's own full cell is read where it
    is written, as Algorithm 1's kernel reads it.
    """
    variable, predecessors, starts, own = step[:4]
    constants = Constants(name_0=variable)
    template = Recurrence(own, starts)
    emit = template.emit
    template.values(0)
    if not predecessors and not starts:
        return compile_fold(label, constants, "fold(windows, values, before)", [])
    readers = []
    for name in predecessors:
        if name in crossed:
            readers.append(f"read_compatible[{constants('key', crossed[name])}]")
        elif name == variable:
            readers.append("cell")
        else:
            readers.append(f"read_full[{constants('name', name)}]")
    fed = [constants("key", key) for key in feeds]
    emit("for window in windows:", 0)
    emit("full = window._full", 1)
    if fed or crossed:
        emit("compatible = window._compatible", 1)
    if any(reader != "cell" for reader in readers):
        emit(
            "read_full, read_compatible = "
            "(full, compatible) if before is None else before[window]"
            if crossed
            else "read_full = full if before is None else before[window][0]",
            1,
        )
    emit("cell = full[name_0]", 1)
    cells = []
    for number, reader in enumerate(readers):
        if reader != "cell":
            emit(f"cell_{number} = {reader}", 1)
            reader = f"cell_{number}"
        cells.append(reader)
    template.extend_cells(cells, 1)
    template.write("cell", 1)
    for key in fed:
        emit(f"cell = compatible[{key}]", 1)
        template.write("cell", 1)
    return compile_fold(label, constants, "fold(windows, values, before)", template.lines)


class NegationEventGrainedAggregator(EventGrainedAggregator):
    """Event-grained aggregation with negated sub-patterns (ANY semantics).

    Every stored event of a ``Tp`` variable that arrived before the most
    recent match of the negated type is blocked from contributing to events
    of the corresponding ``Tf`` variables.  Because stored events are
    appended in arrival order a single cut-off index per (component, ``Tp``
    variable) encodes the blocked set.  The fold is Algorithm 2's
    (:func:`~repro.core.mixed_grained.fold_mixed`), which moves the cut-offs
    where a negated event falls and reads past them.
    """

    __slots__ = ("_tables", "_cutoffs")

    def __init__(self, plan: CograPlan):
        super().__init__(plan)
        self._tables = tables = plan.negations
        self._cutoffs: Dict[Tuple[int, str], int] = dict.fromkeys(tables.state_keys(), 0)

    def process_run(self, run, also=()) -> None:
        fold_mixed((self, *also), run, self._tables)


# ---------------------------------------------------------------------------
# reference semantics (used as the correctness oracle)
# ---------------------------------------------------------------------------


def trend_respects_negations(
    components: Seq[NegatedComponent],
    events: Seq[Event],
    trend: Seq[Tuple[int, str]],
    semantics: Semantics = Semantics.SKIP_TILL_ANY_MATCH,
) -> bool:
    """Check the negation constraint for one explicitly constructed trend.

    ``trend`` is a tuple of ``(event index, variable)`` bindings into
    ``events`` (the representation used by the trend enumeration oracle).
    Under skip-till-any-match the constraint holds when no event of a
    negated type occurs between two adjacent trend events that cross the
    corresponding negation boundary; under skip-till-next-match and
    contiguous, when no event of a negated type occurs between two adjacent
    trend events whose left one is bound to one of that negation's
    ``prefix_variables`` (see "Enforced semantics" above).
    """
    if not components:
        return True
    crossing = None
    if semantics is Semantics.SKIP_TILL_ANY_MATCH:
        crossing = _crossing_edges(components)
    for (left_index, left_variable), (right_index, right_variable) in zip(trend, trend[1:]):
        if crossing is not None:
            component = crossing.get((left_variable, right_variable))
            blocking = () if component is None else (component.event_type,)
        else:
            blocking = [
                component.event_type
                for component in components
                if left_variable in component.prefix_variables
            ]
        if not blocking:
            continue
        left_key = events[left_index].order_key
        right_key = events[right_index].order_key
        for event in events:
            if event.event_type in blocking and left_key < event.order_key < right_key:
                return False
    return True


def filter_trends_with_negations(
    components: Seq[NegatedComponent],
    events: Seq[Event],
    trends: Seq[Seq[Tuple[int, str]]],
    semantics: Semantics = Semantics.SKIP_TILL_ANY_MATCH,
) -> List[Tuple[Tuple[int, str], ...]]:
    """Drop enumerated trends that violate a negation constraint."""
    return [
        tuple(trend)
        for trend in trends
        if trend_respects_negations(components, events, trend, semantics)
    ]
