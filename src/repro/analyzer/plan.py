"""The COGRA configuration produced by the static query analyzer (Section 3).

A :class:`CograPlan` bundles everything the runtime executor needs:

* the pattern automaton (predecessor-type relation, start/end variables),
* the predicate classification,
* the selected granularity together with the variable split ``Tt`` / ``Te``,
* the aggregation targets derived from the RETURN clause, and
* fast helpers used on the per-event hot path (variable binding, local
  predicate filtering, adjacency checks), compiled once per plan so that no
  aggregator carries a copy -- the grouper and the folds as generated code
  (:mod:`repro.analyzer.codegen`).
"""

from __future__ import annotations

from numbers import Number
from typing import Callable, Dict, FrozenSet, Hashable, Iterable, List, NamedTuple, Optional, Tuple

from repro.analyzer.automaton import PatternAutomaton
from repro.analyzer.codegen import Constants, compile_generated
from repro.analyzer.classifier import PredicateClassification, classify_predicates
from repro.analyzer.granularity import (
    Granularity,
    allowed_granularities,
    select_granularity,
    split_variables,
)
from repro.errors import InvalidEventError, PlanningError
from repro.events.event import Event
from repro.query.aggregates import AggregateSpec
from repro.query.predicates import AdjacentPredicate
from repro.query.query import Query
from repro.query.semantics import Semantics


class FoldStep(NamedTuple):
    """What binding an event to one variable does to the cells.

    Compiled once per plan (Algorithm 1 reads nothing else about the
    pattern): the cells to collect predecessor trends from, whether the
    event also starts a trend of its own, and which of the plan's targets
    the event itself occurs in -- and all of that once more as the
    type-grained kernel generated from it.
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
    #: the cells the type-grained kernel writes: ``variable``'s, then the
    #: compatible cells it feeds (Section 8, ``NegationTables.feeds``)
    writes: Tuple[Hashable, ...]
    #: ``kernel(windows, values, before)``: the step applied to the cells
    #: of type-grained aggregators (:func:`repro.core.type_grained.fold_kernel`);
    #: ``None`` unless the plan is type-grained
    kernel: Optional[Callable]


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
        #: the query as written, negated sub-patterns included: planning it
        #: at another granularity keeps them
        self.query = query
        pattern = query.pattern
        #: the :class:`~repro.extensions.negation.NegationTables` of a query
        #: with negated sub-patterns (Section 8), else ``None``: the plan is
        #: made for the positive part, and its aggregators are the
        #: negation-aware ones (:func:`~repro.core.base.create_aggregator`)
        self.negations = None
        if pattern.has_negation:
            # imported here, not at the top: the extension imports this module
            from repro.extensions.negation import analyze_negations

            analysis = analyze_negations(pattern)
            pattern, self.negations = analysis.positive_pattern, analysis.tables
        try:
            self.automaton = PatternAutomaton(pattern)
        except Exception as exc:
            raise PlanningError(f"cannot analyse pattern {pattern!r}: {exc}") from exc
        self.classification: PredicateClassification = classify_predicates(query)
        self.selected_granularity: Granularity = select_granularity(
            query.semantics, self.automaton, self.classification
        )
        allowed = allowed_granularities(query.semantics, self.classification)
        #: the granularities this query may be planned at, coarsest first:
        #: the correct ones (Table 4), less MIXED for a negated query, whose
        #: mixed bookkeeping is not implemented
        self.accepted_granularities: Tuple[Granularity, ...] = (
            allowed
            if self.negations is None
            else tuple(g for g in allowed if g is not Granularity.MIXED)
        )
        self.granularity = self._resolve_granularity(forced_granularity)
        if self.negations is not None and self.granularity is not Granularity.PATTERN:
            # the per-type and per-event rules keep one state per edge; a
            # pattern they cannot enforce is rejected here, before any event
            self.negations.with_crossings()
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
        #: event types the router must deliver: the pattern's, and the
        #: negated ones, which bind to nothing but invalidate trends
        relevant_types = frozenset(self.automaton.variable_types.values())
        if self.negations is not None:
            relevant_types |= frozenset(self.negations.by_type)
        self.relevant_types: FrozenSet[str] = relevant_types

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
        # event types whose candidate variables are event-independent (no
        # local predicate on any variable of the type): the by far most
        # common case, bound without asking a predicate
        self._unconditional_by_type = {}
        for event_type in dict.fromkeys(self.automaton.variable_types.values()):
            variables = tuple(self.automaton.variables_for_type(event_type))
            if not any(self._local_by_variable.get(v) for v in variables):
                self._unconditional_by_type[event_type] = variables

        # imported here, not at the top: repro.core imports this module
        from repro.core.mixed_grained import mixed_step
        from repro.core.pattern_grained import pattern_step
        from repro.core.type_grained import fold_kernel

        # only a type-grained plan's aggregators run the type kernels.  A
        # negated query's kernels read a crossing edge's predecessor from
        # its compatible cell and also write the compatible cells their
        # variable feeds (Section 8).
        kernels = self.granularity is Granularity.TYPE
        crossed, feeds = {}, {}
        if self.negations is not None:
            crossed, feeds = self.negations.crossed or {}, self.negations.feeds
        self._fold_steps: Dict[str, FoldStep] = {}
        for variable in self.automaton.variables:
            # pattern order: the order the folds add predecessor sums in,
            # the same in every process whatever its hash seed
            predecessor_set = self.automaton.pred_types(variable)
            predecessors = tuple(
                name for name in self.automaton.variables if name in predecessor_set
            )
            starts = 1 if self.automaton.is_start(variable) else 0
            own = tuple(target == variable for target, _ in self.targets)
            writes = (variable, *feeds.get(variable, ()))
            crossing = crossed.get(variable, {})
            reads = tuple(crossing.get(name, name) for name in predecessors)
            self._fold_steps[variable] = FoldStep(
                variable=variable,
                predecessors=predecessors,
                starts=starts,
                own=own,
                attributes=tuple(
                    attribute if target == variable else None
                    for target, attribute in self.targets
                ),
                writes=writes,
                kernel=fold_kernel(
                    f"<fold {query.name}:{variable}>", writes, reads, starts, own
                )
                if kernels
                else None,
            )
        #: variable -> the fold of an event bound to it at this plan's own
        #: granularity, where that is not the type kernel: Algorithm 2's step
        #: at MIXED and EVENT granularity (``step(windows, event, values,
        #: before, cut)``, :func:`~repro.core.mixed_grained.mixed_step`),
        #: Algorithm 3's at PATTERN (``step(windows, event, values)``,
        #: :func:`~repro.core.pattern_grained.pattern_step`).  They depend on
        #: the plan's ``Tt`` / ``Te`` split, so an aggregator takes them from
        #: its own plan, never from a binding's step.
        self.folds: Dict[str, Callable] = {}
        if self.granularity.keeps_events:
            for variable, step in self._fold_steps.items():
                self.folds[variable] = mixed_step(
                    f"<mixed fold {query.name}:{variable}>", step, self
                )
        elif self.granularity is Granularity.PATTERN:
            for variable, step in self._fold_steps.items():
                self.folds[variable] = pattern_step(
                    f"<pattern fold {query.name}:{variable}>", step, self
                )
        # bindings that do not depend on the event at all: no local predicate
        # decides the variables and no target reads an attribute
        no_values = (None,) * len(self.targets)
        self._constant_bindings: Dict[str, Binding] = {
            event_type: tuple((self._fold_steps[v], no_values) for v in variables)
            for event_type, variables in self._unconditional_by_type.items()
            if not any(any(self._fold_steps[v].attributes) for v in variables)
        }
        group, partition_key = _group_functions(self)
        #: ``group(events) -> {key: [(event, binding), ...]}``: the events
        #: :meth:`bind` does not reject, each with its binding, by partition
        #: key and in order -- :meth:`bind` and :attr:`partition_key` per
        #: event, generated once per plan (:func:`_group_functions`)
        self.group: Callable[[Iterable[Event]], Dict[Tuple, list]] = group
        #: ``partition_key(event)``: the grouping key of ``event`` (GROUP-BY
        #: plus ``[attr]`` predicates), the expression :attr:`group` keys by
        self.partition_key: Callable[[Event], Tuple] = partition_key

    def _resolve_granularity(self, forced: Optional[Granularity]) -> Granularity:
        """Apply a forced granularity after checking it preserves correctness.

        A negated query the selector plans at MIXED granularity runs at
        EVENT granularity, and MIXED cannot be forced on it (Section 8).
        """
        if forced is None:
            if self.negations is not None and self.selected_granularity is Granularity.MIXED:
                return Granularity.EVENT
            return self.selected_granularity
        if isinstance(forced, str):
            try:
                forced = Granularity(forced)
            except ValueError:
                raise PlanningError(
                    f"unknown granularity {forced!r}; valid values: "
                    f"{[g.value for g in Granularity]}"
                ) from None
        if forced is Granularity.MIXED and self.negations is not None:
            raise PlanningError(
                "granularity 'mixed' cannot be forced on a query with negated "
                "sub-patterns (the type-grained half of the mixed bookkeeping is "
                "not implemented); force 'event' instead"
            )
        allowed = self.accepted_granularities
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
        such events are filtered before they reach an aggregator).  A
        target value that is not a number raises
        :class:`~repro.errors.InvalidEventError` naming it.

        The general path and the reference of :attr:`group`, which binds
        most event types inline.
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
            for attribute, value in zip(step.attributes, values):
                if value.__class__ not in _PLAIN_NUMBERS and not isinstance(value, Number):
                    raise self._not_a_number(event, variable, attribute, value)
            binding.append((step, values))
        return tuple(binding)

    def _not_a_number(self, event: Event, variable: str, attribute: str, value) -> Exception:
        """The error for a target value that is not a number.

        Every target keeps a sum, so whatever the aggregate function such a
        value could only fail the fold; it is rejected where it is read.
        """
        return InvalidEventError(
            f"query {self.query.name!r}: {variable}.{attribute} of the event at "
            f"time {event.time} is {value!r}, not a number"
        )

    def passes_local(self, event: Event, variable: str) -> bool:
        """True when ``event`` satisfies every local predicate of ``variable``."""
        for predicate in self._local_by_variable.get(variable, ()):
            if not predicate.evaluate(event):
                return False
        return True

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
            *self._describe_fold_steps(),
            *self._describe_edges(),
            self.automaton.describe(),
            self.classification.describe(),
        ]
        if self.negations is not None:
            lines.append(
                "negations   : "
                + "; ".join(component.describe() for component in self.negations.components)
            )
        return "\n".join(lines)

    def _describe_fold_steps(self) -> List[str]:
        """The FoldStep table: per variable, what binding an event to it does."""
        rows = [("variable", "predecessors", "starts", "own targets", "kernel")]
        for step in self._fold_steps.values():
            own = [
                f"{variable}.{attribute}" if attribute else variable
                for (variable, attribute), is_own in zip(self.targets, step.own)
                if is_own
            ]
            rows.append(
                (
                    step.variable,
                    ", ".join(step.predecessors) or "-",
                    "yes" if step.starts else "no",
                    ", ".join(own) or "-",
                    self.kernel_shape(step.variable),
                )
            )
        return _table("fold steps  : ", rows)

    def kernel_shape(self, variable: str) -> str:
        """The shape of the fold this plan's own aggregators run for ``variable``.

        ``pattern`` at PATTERN granularity; ``scanned`` when a predecessor
        stores its events; ``self-loop`` when the step reads and writes no
        cell but its own; ``fixed predecessors`` otherwise.
        """
        if self.granularity is Granularity.PATTERN:
            return "pattern"
        step = self._fold_steps[variable]
        if any(name in self.event_grained for name in step.predecessors):
            return "scanned"
        if step.predecessors == step.writes == (variable,):
            return "self-loop"
        return "fixed predecessors"

    @property
    def fold_steps(self) -> Dict[str, FoldStep]:
        """Variable -> its :class:`FoldStep`, in pattern order."""
        return self._fold_steps

    def _describe_edges(self) -> List[str]:
        """The edge table: per automaton edge, its adjacent predicates, each
        compared ``inline`` by the generated folds or ``called``."""
        rows = [("edge", "predicates")]
        for variable, step in self._fold_steps.items():
            for name in step.predecessors:
                predicates = self._adjacent_by_pair[(name, variable)]
                rows.append(
                    (
                        f"{name} -> {variable}",
                        "; ".join(
                            f"{predicate.describe()} "
                            f"({'inline' if _inline(predicate) else 'called'})"
                            for predicate in predicates
                        )
                        or "-",
                    )
                )
        return _table("edges       : ", rows)

    def __repr__(self) -> str:
        return (
            f"CograPlan({self.query.name!r}, granularity={self.granularity.value}, "
            f"Tt={sorted(self.type_grained)}, Te={sorted(self.event_grained)})"
        )


def _table(title: str, rows: List[Tuple[str, ...]]) -> List[str]:
    """``rows`` as aligned columns, the first line headed by ``title``."""
    widths = [max(len(row[column]) for row in rows) for column in range(len(rows[0]))]
    return [
        (title if number == 0 else " " * len(title))
        + "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for number, row in enumerate(rows)
    ]


def _condition_of(predicate):
    """The ``(predecessor, successor)`` callable that decides ``predicate``.

    :meth:`AdjacentPredicate.evaluate` is ``bool(condition(...))``; a caller
    that only tests truth can call the condition itself.  A subclass with an
    ``evaluate`` of its own keeps it.
    """
    if type(predicate).evaluate is AdjacentPredicate.evaluate:
        return predicate.condition
    return predicate.evaluate


#: what an edge scan writes for each of :data:`~repro.query.predicates.OPERATORS`
_OPERATORS = {
    "<": "<",
    "<=": "<=",
    ">": ">",
    ">=": ">=",
    "=": "==",
    "==": "==",
    "!=": "!=",
    "<>": "!=",
}

#: the classes of target values that need no ``isinstance(value, Number)``
_PLAIN_NUMBERS = frozenset((int, float, type(None)))


def _inline(predicate) -> Optional[Tuple[str, str, str]]:
    """``predicate.compares`` when an edge scan may compare it inline.

    That is a :func:`~repro.query.predicates.comparison` whose class does
    not decide it some other way; ``None`` for anything else.
    """
    if type(predicate).evaluate is not AdjacentPredicate.evaluate:
        return None
    return predicate.compares


def adjacency_checks(
    predicates, constants: Constants, edge: int, stored: str
) -> Tuple[List[str], List[str], int]:
    """The source that decides an edge's adjacent ``predicates`` for one pair.

    Returns ``(hoisted, checks, depth)``.  ``checks`` are nested ``if``
    lines, one level per predicate in ``predicates`` order: a fold that
    appends its body ``depth`` levels deeper runs it when the stored event
    named ``stored`` and the bound ``event`` satisfy them all.  Each
    ``X.a op NEXT(Y).b`` (:func:`_inline`) is compared inline under
    :func:`~repro.query.predicates.comparison`'s rule (a missing side is
    false); any other predicate is called.  ``hoisted`` reads what the
    checks need off ``event`` into ``right_EDGE_N`` names, after
    ``attributes = event.attributes``, once per call of the fold.
    """
    hoisted: List[str] = []
    checks: List[str] = []
    for number, predicate in enumerate(predicates):
        pad = "    " * number
        compares = _inline(predicate)
        if compares is None:
            condition = constants("predicate", _condition_of(predicate))
            checks.append(f"{pad}if {condition}({stored}, event):")
            continue
        left_attribute, op, right_attribute = compares
        right = f"right_{edge}_{number}"
        hoisted.append(f"{right} = attributes.get({constants('attribute', right_attribute)})")
        checks.append(
            f"{pad}left = {stored}.attributes.get({constants('attribute', left_attribute)})"
        )
        checks.append(
            f"{pad}if left is not None and {right} is not None "
            f"and left {_OPERATORS[op]} {right}:"
        )
    return hoisted, checks, len(predicates)


def edge_scan(
    predicates, constants: Constants, edge: int
) -> Tuple[List[str], List[str], int]:
    """The predecessor scan of one automaton edge, for a fold to fuse.

    Returns ``(hoisted, loop, depth)``: ``loop`` runs over the stored
    ``(stored, node)`` pairs the fold binds to ``nodes`` and reaches ``depth`` levels of
    indentation for every one adjacent to ``event`` along the edge, where
    the fold adds ``node`` to its sums; ``hoisted`` is what
    :func:`adjacency_checks` reads off ``event``, once per call.  The fold
    binds ``time`` and ``sequence`` to the order key of ``event``.
    Definition 7, conditions 2-3: the stored event strictly precedes
    ``event`` -- which also keeps an event from preceding itself when it
    binds to several variables (Section 8) -- and the pair satisfies every
    one of ``predicates``, the edge's adjacent predicates, decided per
    stored event, predicate by predicate.

    An edge shape of its own (an index over the stored events, say) is one
    more emitter with this signature.
    """
    hoisted, checks, depth = adjacency_checks(predicates, constants, edge, "stored")
    loop = [
        "for stored, node in nodes:",
        "    stored_time = stored.time",
        "    if stored_time < time or (stored_time == time and stored.sequence < sequence):",
        *(f"        {line}" for line in checks),
    ]
    return hoisted, loop, depth + 2


def _group_functions(plan: "CograPlan") -> Tuple[Callable, Callable]:
    """Compile ``plan``'s grouper and partition key: ``(group, partition_key)``.

    ``group(events)`` is :meth:`CograPlan.bind` and ``partition_key`` per
    event, the bound events collected by key in order.  An event type bound
    to one variable by no local predicate gets a branch of its own, which
    reads the target values off the event inline and checks them as
    :meth:`CograPlan.bind` does; an event type whose binding reads no value
    is a dict lookup; every other event -- local predicates, a type bound
    to several variables (Section 8), a type the pattern does not mention
    -- is bound by :meth:`CograPlan.bind` itself.
    """
    constants = Constants(
        bind=plan.bind,
        constant_bindings=plan._constant_bindings,
        plain=_PLAIN_NUMBERS,
        Number=Number,
        not_a_number=plan._not_a_number,
    )
    branches: List[str] = []
    for event_type, variables in plan._unconditional_by_type.items():
        if event_type in plan._constant_bindings or len(variables) != 1:
            continue
        step = plan._fold_steps[variables[0]]
        keyword = "elif" if branches else "if"
        branches.append(f"{keyword} event_type == {constants('type', event_type)}:")
        variable = constants("variable", step.variable)
        values = []
        for index, attribute in enumerate(step.attributes):
            if attribute is None:
                values.append("None")
                continue
            value = f"value_{index}"
            values.append(value)
            name = constants("attribute", attribute)
            branches += [
                f"    {value} = attributes.get({name})",
                f"    if {value}.__class__ not in plain and not isinstance({value}, Number):",
                f"        raise not_a_number(event, {variable}, {name}, {value})",
            ]
        branches.append(f"    binding = (({constants('step', step)}, {_tuple(values)}),)")
    fallback = [
        "binding = constant_bindings.get(event_type)",
        "if binding is None:",
        "    binding = bind(event)",
        "    if binding is None:",
        "        continue  # rejected by the local predicates (Section 7)",
    ]
    if branches:
        branches.append("else:")
        branches += [f"    {line}" for line in fallback]
    else:
        branches = fallback
    key = _tuple(
        [
            f"attributes.get({constants('group', attribute)})"
            for attribute in plan.partition_attributes
        ]
    )
    source = "\n".join(
        [
            f"def build({', '.join(constants.names)}):",
            "    def group(events):",
            "        grouped = {}",
            "        for event in events:",
            "            event_type = event.event_type",
            "            attributes = event.attributes",
            *(f"            {line}" for line in branches),
            f"            key = {key}",
            "            run = grouped.get(key)",
            "            if run is None:",
            "                grouped[key] = [(event, binding)]",
            "            else:",
            "                run.append((event, binding))",
            "        return grouped",
            "",
            "    def partition_key(event):",
            "        attributes = event.attributes",
            f"        return {key}",
            "",
            "    return group, partition_key",
            "",
        ]
    )
    return compile_generated(f"<group {plan.query.name}>", source, *constants.values)


def _tuple(items: List[str]) -> str:
    """The source of a tuple display of ``items``."""
    if len(items) == 1:
        return f"({items[0]},)"
    return f"({', '.join(items)})"


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
