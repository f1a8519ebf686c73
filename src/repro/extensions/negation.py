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
  negation),
* :func:`create_negation_aggregator` builds the negation-aware counterpart
  of the granularity the planner selected for the positive part, and
* :class:`~repro.core.engine.CograEngine` routes queries with negated
  patterns through this module automatically.

Enforced semantics
------------------
A trend is counted when, for every negated component, no event of the
negated type occurs between two *adjacent* trend events that cross the
negation boundary (an event bound to a ``Tp`` variable followed by an event
bound to a ``Tf`` variable).  This is the relation the incremental
invalidation rules above maintain; :func:`trend_respects_negations` states
it explicitly and doubles as the correctness oracle of the test suite.

Scope and simplifications (documented in DESIGN.md):

* A negated sub-pattern must be a single event type atom that appears as a
  direct element of a sequence with at least one positive part before and
  after it.
* The negated event type must not also occur positively in the pattern.
* Queries with predicates on adjacent events are evaluated at event
  granularity (the mixed-grained dual bookkeeping is not implemented).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence as Seq, Tuple

from repro.analyzer.automaton import PatternAutomaton
from repro.analyzer.granularity import Granularity
from repro.analyzer.plan import CograPlan, plan_query
from repro.core.aggregate_state import TrendAccumulator
from repro.core.base import SubstreamAggregator, create_aggregator
from repro.core.event_grained import EventGrainedAggregator
from repro.core.pattern_grained import PatternGrainedAggregator
from repro.errors import InvalidPatternError, PlanningError
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

    @property
    def has_negations(self) -> bool:
        """True when the original pattern contained at least one negation."""
        return bool(self.components)

    def negated_types(self) -> FrozenSet[str]:
        """Event types that occur under a negation."""
        return frozenset(component.event_type for component in self.components)


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
    return NegationAnalysis(positive_pattern=positive, components=tuple(components))


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


def plan_negated_query(
    query: Query, forced_granularity: Optional[Granularity] = None
) -> Tuple[CograPlan, NegationAnalysis]:
    """Plan a query with negated sub-patterns.

    The plan is computed for the positive part; mixed granularity is
    escalated to event granularity because the negation bookkeeping for the
    type-grained half of a mixed plan is not implemented.
    """
    analysis = analyze_negations(query.pattern)
    if (
        analysis.has_negations
        and (forced_granularity is Granularity.MIXED or forced_granularity == "mixed")
    ):
        raise PlanningError(
            "granularity 'mixed' cannot be forced on a query with negated "
            "sub-patterns (the type-grained half of the mixed bookkeeping is "
            "not implemented); force 'event' instead"
        )
    plan = plan_query(positive_query(query, analysis), forced_granularity=forced_granularity)
    if analysis.has_negations and plan.granularity is Granularity.MIXED:
        plan = plan_query(
            positive_query(query, analysis), forced_granularity=Granularity.EVENT
        )
    return plan, analysis


# ---------------------------------------------------------------------------
# negation-aware aggregators
# ---------------------------------------------------------------------------


def _crossing_edges(
    components: Seq[NegatedComponent],
) -> Dict[Tuple[str, str], List[NegatedComponent]]:
    """Map adjacency edges ``(Tp variable, Tf variable)`` to the boundaries they cross."""
    crossing: Dict[Tuple[str, str], List[NegatedComponent]] = {}
    for component in components:
        for predecessor in component.predecessor_variables:
            for follower in component.follower_variables:
                crossing.setdefault((predecessor, follower), []).append(component)
    for edge, crossed in crossing.items():
        if len(crossed) > 1:
            raise InvalidPatternError(
                f"the adjacency edge {edge} crosses {len(crossed)} negation boundaries; "
                "at most one negated type may separate two positive parts"
            )
    return crossing


def _components_by_type(
    components: Seq[NegatedComponent],
) -> Dict[str, List[NegatedComponent]]:
    by_type: Dict[str, List[NegatedComponent]] = {}
    for component in components:
        by_type.setdefault(component.event_type, []).append(component)
    return by_type


class NegationPatternGrainedAggregator(PatternGrainedAggregator):
    """Pattern-grained aggregation with negated sub-patterns (NEXT / CONT).

    Whenever an event of a negated type arrives and the last matched event
    belongs to the positive part preceding that negation, the partial trends
    ending at the last matched event are invalidated (Section 8).
    """

    def __init__(self, plan: CograPlan, components: Seq[NegatedComponent]):
        super().__init__(plan)
        self._components = tuple(components)
        self._negated_by_type = _components_by_type(self._components)

    def process(self, event: Event) -> None:
        components = self._negated_by_type.get(event.event_type)
        if components:
            for component in components:
                if self._last_variable is not None and (
                    self._last_variable in component.prefix_variables
                ):
                    self._reset_last()
            if self.plan.semantics is Semantics.CONTIGUOUS:
                # a negated event also breaks contiguity like any other event
                self._reset_last()
            return
        super().process(event)


class NegationTypeGrainedAggregator(SubstreamAggregator):
    """Type-grained aggregation with negated sub-patterns (ANY semantics).

    Besides the per-variable accumulator of Algorithm 1 the aggregator keeps
    one *compatible* accumulator per (negated component, ``Tp`` variable).
    Events of ``Tf`` variables draw their predecessor trends from the
    compatible accumulator, which is reset whenever the negated type
    matches -- exactly the "mark ``Tp`` invalid for ``Tf``" rule of
    Section 8.
    """

    def __init__(self, plan: CograPlan, components: Seq[NegatedComponent]):
        super().__init__(plan)
        self._components = tuple(components)
        self._negated_by_type = _components_by_type(self._components)
        self._crossing = _crossing_edges(self._components)
        targets = plan.targets
        self._full: Dict[str, TrendAccumulator] = {
            variable: TrendAccumulator.zero(targets)
            for variable in plan.automaton.variables
        }
        self._compatible: Dict[Tuple[int, str], TrendAccumulator] = {
            (component.index, variable): TrendAccumulator.zero(targets)
            for component in self._components
            for variable in component.predecessor_variables
        }

    # -- hot path -----------------------------------------------------------------

    def process(self, event: Event) -> None:
        plan = self.plan
        components = self._negated_by_type.get(event.event_type)
        if components:
            for component in components:
                for variable in component.predecessor_variables:
                    self._compatible[(component.index, variable)] = TrendAccumulator.zero(
                        plan.targets
                    )
            return

        variables = plan.candidate_variables(event)
        if not variables:
            return
        self.events_processed += 1

        staged: List[Tuple[str, TrendAccumulator]] = []
        for variable in variables:
            predecessor = TrendAccumulator.zero(plan.targets)
            for predecessor_variable in plan.automaton.pred_types(variable):
                crossed = self._crossing.get((predecessor_variable, variable))
                if crossed:
                    predecessor.merge(
                        self._compatible[(crossed[0].index, predecessor_variable)]
                    )
                else:
                    predecessor.merge(self._full[predecessor_variable])
            cell = predecessor.extended(event, variable)
            if plan.is_start(variable):
                cell.merge(TrendAccumulator.singleton(event, variable, plan.targets))
            staged.append((variable, cell))

        for variable, cell in staged:
            self._full[variable].merge(cell)
            for component in self._components:
                if variable in component.predecessor_variables:
                    self._compatible[(component.index, variable)].merge(cell)

    # -- results -------------------------------------------------------------------

    def final_accumulator(self) -> TrendAccumulator:
        final = TrendAccumulator.zero(self.plan.targets)
        for variable in self.plan.automaton.end_variables:
            final.merge(self._full[variable])
        return final

    def cell(self, variable: str) -> TrendAccumulator:
        """Full accumulator of ``variable`` (for inspection)."""
        return self._full[variable]

    def compatible_cell(self, component_index: int, variable: str) -> TrendAccumulator:
        """Compatible accumulator of a ``Tp`` variable (for inspection)."""
        return self._compatible[(component_index, variable)]

    # -- memory accounting -------------------------------------------------------------

    def storage_units(self) -> int:
        units = sum(cell.storage_units for cell in self._full.values())
        units += sum(cell.storage_units for cell in self._compatible.values())
        return units


class NegationEventGrainedAggregator(EventGrainedAggregator):
    """Event-grained aggregation with negated sub-patterns (ANY semantics).

    Every stored event of a ``Tp`` variable that arrived before the most
    recent match of the negated type is blocked from contributing to events
    of the corresponding ``Tf`` variables.  Because stored nodes are
    appended in arrival order a single cut-off index per (component, ``Tp``
    variable) encodes the blocked set.
    """

    def __init__(self, plan: CograPlan, components: Seq[NegatedComponent]):
        super().__init__(plan)
        self._components = tuple(components)
        self._negated_by_type = _components_by_type(self._components)
        self._crossing = _crossing_edges(self._components)
        self._cutoffs: Dict[Tuple[int, str], int] = {
            (component.index, variable): 0
            for component in self._components
            for variable in component.predecessor_variables
        }

    def process(self, event: Event) -> None:
        plan = self.plan
        components = self._negated_by_type.get(event.event_type)
        if components:
            for component in components:
                for variable in component.predecessor_variables:
                    self._cutoffs[(component.index, variable)] = len(self._nodes[variable])
            return

        variables = plan.candidate_variables(event)
        if not variables:
            return
        self.events_processed += 1

        staged: List[Tuple[str, TrendAccumulator]] = []
        for variable in variables:
            predecessor = TrendAccumulator.zero(plan.targets)
            for predecessor_variable in plan.automaton.pred_types(variable):
                crossed = self._crossing.get((predecessor_variable, variable))
                blocked_below = (
                    self._cutoffs[(crossed[0].index, predecessor_variable)] if crossed else 0
                )
                nodes = self._nodes[predecessor_variable]
                for position, (stored_event, stored_cell) in enumerate(nodes):
                    if position < blocked_below:
                        continue
                    if plan.adjacency_satisfied(
                        stored_event, predecessor_variable, event, variable
                    ):
                        predecessor.merge(stored_cell)
            cell = predecessor.extended(event, variable)
            if plan.is_start(variable):
                cell.merge(TrendAccumulator.singleton(event, variable, plan.targets))
            staged.append((variable, cell))

        for variable, cell in staged:
            self._nodes[variable].append((event, cell))
            if plan.is_end(variable):
                self._final.merge(cell)


def create_negation_aggregator(
    plan: CograPlan, components: Seq[NegatedComponent]
) -> SubstreamAggregator:
    """Build the negation-aware aggregator for the plan's granularity."""
    if not components:
        return create_aggregator(plan)
    granularity = plan.granularity
    if granularity is Granularity.PATTERN:
        return NegationPatternGrainedAggregator(plan, components)
    if granularity is Granularity.TYPE:
        return NegationTypeGrainedAggregator(plan, components)
    if granularity is Granularity.EVENT:
        return NegationEventGrainedAggregator(plan, components)
    raise InvalidPatternError(
        f"negated patterns are not supported at {granularity.value} granularity; "
        "plan them with plan_negated_query()"
    )


# ---------------------------------------------------------------------------
# reference semantics (used as the correctness oracle)
# ---------------------------------------------------------------------------


def trend_respects_negations(
    components: Seq[NegatedComponent],
    events: Seq[Event],
    trend: Seq[Tuple[int, str]],
) -> bool:
    """Check the negation constraint for one explicitly constructed trend.

    ``trend`` is a tuple of ``(event index, variable)`` bindings into
    ``events`` (the representation used by the trend enumeration oracle).
    The constraint holds when no event of a negated type occurs between two
    adjacent trend events that cross the corresponding negation boundary.
    """
    if not components:
        return True
    crossing = _crossing_edges(components)
    for (left_index, left_variable), (right_index, right_variable) in zip(trend, trend[1:]):
        crossed = crossing.get((left_variable, right_variable))
        if not crossed:
            continue
        component = crossed[0]
        left_key = events[left_index].order_key
        right_key = events[right_index].order_key
        for event in events:
            if event.event_type != component.event_type:
                continue
            if left_key < event.order_key < right_key:
                return False
    return True


def filter_trends_with_negations(
    components: Seq[NegatedComponent],
    events: Seq[Event],
    trends: Seq[Seq[Tuple[int, str]]],
) -> List[Tuple[Tuple[int, str], ...]]:
    """Drop enumerated trends that violate a negation constraint."""
    return [
        tuple(trend)
        for trend in trends
        if trend_respects_negations(components, events, trend)
    ]
