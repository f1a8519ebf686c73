"""The COGRA configuration produced by the static query analyzer (Section 3).

A :class:`CograPlan` bundles everything the runtime executor needs:

* the pattern automaton (predecessor-type relation, start/end variables),
* the predicate classification,
* the selected granularity together with the variable split ``Tt`` / ``Te``,
* the aggregation targets derived from the RETURN clause, and
* fast helpers used on the per-event hot path (variable binding, local
  predicate filtering, adjacency checks), compiled once per plan so that no
  aggregator carries a copy.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.analyzer.automaton import PatternAutomaton
from repro.analyzer.classifier import PredicateClassification, classify_predicates
from repro.analyzer.granularity import (
    Granularity,
    allowed_granularities,
    select_granularity,
    split_variables,
)
from repro.errors import PlanningError
from repro.events.event import Event
from repro.query.aggregates import AggregateSpec
from repro.query.predicates import AdjacentPredicate
from repro.query.query import Query
from repro.query.semantics import Semantics


class FoldStep(NamedTuple):
    """What binding an event to one variable does to the type-grained cells.

    Compiled once per plan (Algorithm 1 reads nothing else about the
    pattern): the cells to collect predecessor trends from, whether the
    event also starts a trend of its own, and which of the plan's targets
    the event itself occurs in.
    """

    variable: str
    #: variables whose cells hold the trends the event extends
    predecessors: Tuple[str, ...]
    #: 1 when ``variable`` is a start type (the event begins a new trend)
    starts: int
    #: per plan target, in order: is it a target on ``variable``?
    own: Tuple[bool, ...]
    #: per plan target: the attribute to read off the event, else ``None``
    attributes: Tuple[Optional[str], ...]


#: One event resolved against a plan: a ``(step, values)`` pair per variable
#: the event binds to, ``values`` aligned with the plan's targets.  Empty for
#: events of types the pattern does not mention.
Binding = Tuple[Tuple[FoldStep, Tuple], ...]


class CograPlan:
    """Static analysis result used to configure the runtime executor.

    Parameters
    ----------
    query:
        The query to analyse.
    forced_granularity:
        Optional override of the granularity the selector would pick.  Only
        *finer* (still correct) granularities are accepted -- forcing a
        skip-till-any-match query without adjacent predicates to EVENT
        granularity reproduces GRETA's strategy for ablation studies, while
        forcing a contiguous query to TYPE granularity would be incorrect
        and raises :class:`~repro.errors.PlanningError`.
    """

    def __init__(self, query: Query, forced_granularity: Optional[Granularity] = None):
        self.query = query
        try:
            self.automaton = PatternAutomaton(query.pattern)
        except Exception as exc:
            raise PlanningError(f"cannot analyse pattern {query.pattern!r}: {exc}") from exc
        self.classification: PredicateClassification = classify_predicates(query)
        self.selected_granularity: Granularity = select_granularity(
            query.semantics, self.automaton, self.classification
        )
        self.granularity = self._resolve_granularity(forced_granularity)
        self.type_grained, self.event_grained = split_variables(
            self.automaton, self.classification
        )
        if not self.granularity.keeps_events:
            # TYPE and PATTERN granularities never store per-event aggregates.
            self.type_grained = frozenset(self.automaton.variables)
            self.event_grained = frozenset()
        elif self.granularity is Granularity.EVENT:
            # EVENT granularity stores every matched event (GRETA's strategy).
            self.type_grained = frozenset()
            self.event_grained = frozenset(self.automaton.variables)
        self.targets: Tuple[Tuple[str, Optional[str]], ...] = _aggregation_targets(
            query.aggregates
        )
        self.partition_attributes: Tuple[str, ...] = self.classification.partition_attributes

        # Pre-computed per-variable tables for the hot path.
        self._local_by_variable = {
            variable: tuple(self.classification.local_for(variable))
            for variable in self.automaton.variables
        }
        self._adjacent_by_pair = {
            (pred, succ): tuple(self.classification.adjacent_between(pred, succ))
            for succ in self.automaton.variables
            for pred in self.automaton.pred_types(succ)
        }
        #: ``(predecessor variable, successor variable)`` -> the bare
        #: ``(predecessor event, successor event)`` callables of the pair's
        #: adjacent predicates, for every edge of the automaton (``()`` for an
        #: unconstrained one).  The aggregators' scans over stored events read
        #: this instead of :meth:`adjacency_satisfied`: a missing key is "not a
        #: predecessor type", and the order check is theirs to inline.
        self.adjacent_conditions: Dict[Tuple[str, str], Tuple] = {
            pair: tuple(_condition_of(predicate) for predicate in predicates)
            for pair, predicates in self._adjacent_by_pair.items()
        }
        # event types whose candidate variables are event-independent (no
        # local predicate on any variable of the type): the by far most
        # common case, answered with one dict lookup on the hot path
        self._unconditional_by_type = {}
        for event_type in set(self.automaton.variable_types.values()):
            variables = tuple(self.automaton.variables_for_type(event_type))
            if not any(self._local_by_variable.get(v) for v in variables):
                self._unconditional_by_type[event_type] = variables

        self._fold_steps: Dict[str, FoldStep] = {
            variable: FoldStep(
                variable=variable,
                predecessors=tuple(self.automaton.pred_types(variable)),
                starts=1 if self.automaton.is_start(variable) else 0,
                own=tuple(target == variable for target, _ in self.targets),
                attributes=tuple(
                    attribute if target == variable else None
                    for target, attribute in self.targets
                ),
            )
            for variable in self.automaton.variables
        }
        # bindings that do not depend on the event at all: no local predicate
        # decides the variables and no target reads an attribute
        no_values = (None,) * len(self.targets)
        self._constant_bindings: Dict[str, Binding] = {
            event_type: tuple((self._fold_steps[v], no_values) for v in variables)
            for event_type, variables in self._unconditional_by_type.items()
            if not any(any(self._fold_steps[v].attributes) for v in variables)
        }

    def _resolve_granularity(self, forced: Optional[Granularity]) -> Granularity:
        """Apply a forced granularity after checking it preserves correctness."""
        if forced is None:
            return self.selected_granularity
        if isinstance(forced, str):
            try:
                forced = Granularity(forced)
            except ValueError:
                raise PlanningError(
                    f"unknown granularity {forced!r}; valid values: "
                    f"{[g.value for g in Granularity]}"
                ) from None
        allowed = allowed_granularities(self.query.semantics, self.classification)
        if forced not in allowed:
            raise PlanningError(
                f"granularity {forced.value!r} is not correct for a "
                f"{self.query.semantics.value} query "
                f"{'with' if self.classification.has_adjacent_predicates else 'without'} "
                f"adjacent predicates; allowed: {[g.value for g in allowed]}"
            )
        return forced

    # -- event binding -----------------------------------------------------------

    def candidate_variables(self, event: Event) -> Tuple[str, ...]:
        """Variables that ``event`` can be bound to, after local predicates.

        Under the paper's core assumption every event type occurs once, so
        the result has at most one element; with the multi-occurrence
        extension (Section 8) an event may be bound to several variables.
        """
        unconditional = self._unconditional_by_type.get(event.event_type)
        if unconditional is not None:
            return unconditional
        variables = self.automaton.variables_for_type(event.event_type)
        if not variables:
            return ()
        return tuple(
            variable for variable in variables if self.passes_local(event, variable)
        )

    def bind(self, event: Event) -> Optional[Binding]:
        """Resolve ``event`` once, for every window and aggregator it reaches.

        Returns one ``(step, values)`` pair per candidate variable, ``()``
        for an event whose type the pattern does not mention (it binds to
        nothing but may still break contiguity), and ``None`` for an event
        of a pattern type that every local predicate rejects (Section 7:
        such events are filtered before they reach an aggregator).
        """
        binding = self._constant_bindings.get(event.event_type)
        if binding is not None:
            return binding
        variables = self.candidate_variables(event)
        if not variables:
            if self.automaton.is_relevant_type(event.event_type):
                return None
            return ()
        get = event.attributes.get
        binding = []
        for variable in variables:
            step = self._fold_steps[variable]
            values = tuple([a if a is None else get(a) for a in step.attributes])
            binding.append((step, values))
        return tuple(binding)

    def passes_local(self, event: Event, variable: str) -> bool:
        """True when ``event`` satisfies every local predicate of ``variable``."""
        for predicate in self._local_by_variable.get(variable, ()):
            if not predicate.evaluate(event):
                return False
        return True

    def is_relevant_type(self, event: Event) -> bool:
        """True when the event's type occurs in the pattern at all."""
        return self.automaton.is_relevant_type(event.event_type)

    # -- adjacency ---------------------------------------------------------------

    def adjacency_satisfied(
        self,
        predecessor: Event,
        predecessor_variable: str,
        event: Event,
        variable: str,
    ) -> bool:
        """Definition 7 conditions 1-3 for a candidate adjacent pair.

        Window membership and partition equality (conditions 4-5) are
        guaranteed by the executor, which runs one aggregator instance per
        (window, group) sub-stream.
        """
        if predecessor_variable not in self.automaton.pred_types(variable):
            return False
        if not predecessor.order_key < event.order_key:
            return False
        for predicate in self._adjacent_by_pair.get((predecessor_variable, variable), ()):
            if not predicate.evaluate(predecessor, event):
                return False
        return True

    def adjacent_predicates_between(
        self, predecessor_variable: str, successor_variable: str
    ) -> Tuple:
        """Adjacent predicates constraining the ordered variable pair."""
        return self._adjacent_by_pair.get((predecessor_variable, successor_variable), ())

    # -- convenience -------------------------------------------------------------

    @property
    def semantics(self) -> Semantics:
        """The query's event matching semantics."""
        return self.query.semantics

    def is_start(self, variable: str) -> bool:
        """True when ``variable`` is a start type of the pattern."""
        return self.automaton.is_start(variable)

    def is_end(self, variable: str) -> bool:
        """True when ``variable`` is an end type of the pattern."""
        return self.automaton.is_end(variable)

    def partition_key(self, event: Event) -> Tuple:
        """Grouping key of ``event`` (GROUP-BY plus ``[attr]`` predicates)."""
        get = event.attributes.get
        return tuple([get(attribute) for attribute in self.partition_attributes])

    def describe(self) -> str:
        """Readable multi-line explanation of the plan (like EXPLAIN)."""
        granularity_note = self.granularity.value
        if self.granularity is not self.selected_granularity:
            granularity_note += f" (forced; selector would pick {self.selected_granularity.value})"
        lines = [
            f"query       : {self.query.name}",
            f"semantics   : {self.query.semantics.value}",
            f"granularity : {granularity_note}",
            f"Tt (type)   : {sorted(self.type_grained)}",
            f"Te (event)  : {sorted(self.event_grained)}",
            f"targets     : {[f'{v}.{a}' if a else v for v, a in self.targets] or ['COUNT(*) only']}",
            f"partitions  : {list(self.partition_attributes) or 'none'}",
            self.automaton.describe(),
            self.classification.describe(),
        ]
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"CograPlan({self.query.name!r}, granularity={self.granularity.value}, "
            f"Tt={sorted(self.type_grained)}, Te={sorted(self.event_grained)})"
        )


def _condition_of(predicate):
    """The ``(predecessor, successor)`` callable that decides ``predicate``.

    :meth:`AdjacentPredicate.evaluate` is ``bool(condition(...))``; a caller
    that only tests truth can call the condition itself.  A subclass with an
    ``evaluate`` of its own keeps it.
    """
    if type(predicate).evaluate is AdjacentPredicate.evaluate:
        return predicate.condition
    return predicate.evaluate


def _aggregation_targets(
    aggregates: Tuple[AggregateSpec, ...]
) -> Tuple[Tuple[str, Optional[str]], ...]:
    """Distinct ``(variable, attribute)`` pairs the accumulators must track."""
    targets: List[Tuple[str, Optional[str]]] = []
    for spec in aggregates:
        target = spec.target
        if target is None:
            continue
        variable, attribute = target
        if spec.function.needs_attribute:
            pair = (variable, attribute)
        else:
            pair = (variable, None)
        if pair not in targets:
            targets.append(pair)
        # AVG needs the per-variable event count as well as the sum.
        if spec.function.value == "AVG" and (variable, None) not in targets:
            targets.append((variable, None))
    return tuple(targets)


def plan_query(query: Query, forced_granularity: Optional[Granularity] = None) -> CograPlan:
    """Run the static query analyzer and return the COGRA configuration.

    ``forced_granularity`` overrides the selector with a finer (still
    correct) granularity; see :class:`CograPlan`.
    """
    return CograPlan(query, forced_granularity=forced_granularity)
