"""Declarative trend enumeration: the correctness oracle of the test suite.

This module implements Definitions 2-4 of the paper as directly as
possible, with no concern for efficiency:

* event trends under skip-till-any-match are produced by a recursive
  structural match of the pattern against the sub-stream (Definition 2),
* predicates on adjacent events are checked between consecutive events of
  the constructed trend (Definition 7, condition 3),
* skip-till-next-match keeps the trends whose consecutive pairs are
  NEXT-adjacent: no earlier event could have extended the predecessor
  (Definition 7),
* the contiguous semantics keeps the trends whose consecutive events are
  consecutive in the sub-stream (Definition 7), and
* negated sub-patterns (Section 8) filter the trends of the positive query
  (:func:`~repro.extensions.negation.trend_respects_negations`).

The enumeration is exponential in the number of events and is only meant
for small streams; the property-based tests compare every COGRA aggregator
and every baseline against it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analyzer.plan import CograPlan, plan_query
from repro.baselines.base import contiguous_adjacent, next_match_adjacent
from repro.core.aggregate_state import TrendAccumulator
from repro.core.partitioner import (
    filter_local_predicates,
    partition_by_group,
    substreams,
    window_bounds,
)
from repro.core.results import GroupResult
from repro.errors import UnsupportedQueryError
from repro.events.event import Event
from repro.extensions.negation import (
    analyze_negations,
    filter_trends_with_negations,
    positive_query,
)
from repro.query.ast import (
    Disjunction,
    EventTypePattern,
    KleenePlus,
    KleeneStar,
    Negation,
    OptionalPattern,
    Pattern,
    Sequence as SequencePattern,
)
from repro.query.query import Query
from repro.query.semantics import Semantics

#: A trend binding: ordered tuple of (event index in the sub-stream, variable).
Trend = Tuple[Tuple[int, str], ...]


def _structural_matches(
    pattern: Pattern, plan: CograPlan, events: Sequence[Event]
) -> List[Trend]:
    """All bindings of ``pattern`` against ``events`` (types and order only)."""
    if isinstance(pattern, EventTypePattern):
        variable = pattern.variable
        matches: List[Trend] = []
        for index, event in enumerate(events):
            if event.event_type != pattern.event_type:
                continue
            if not plan.passes_local(event, variable):
                continue
            matches.append(((index, variable),))
        return matches

    if isinstance(pattern, SequencePattern):
        partials: List[Trend] = [()]
        for part in pattern.parts:
            part_matches = _structural_matches(part, plan, events)
            extended: List[Trend] = []
            for prefix in partials:
                for match in part_matches:
                    if not match:
                        extended.append(prefix)
                        continue
                    if prefix and not _strictly_before(events, prefix[-1][0], match[0][0]):
                        continue
                    extended.append(prefix + match)
            partials = extended
        return partials

    if isinstance(pattern, (KleenePlus, KleeneStar)):
        single = _structural_matches(pattern.inner, plan, events)
        single = [match for match in single if match]
        results: List[Trend] = []
        frontier: List[Trend] = [match for match in single]
        while frontier:
            results.extend(frontier)
            next_frontier: List[Trend] = []
            for prefix in frontier:
                for match in single:
                    if _strictly_before(events, prefix[-1][0], match[0][0]):
                        next_frontier.append(prefix + match)
            frontier = next_frontier
        if isinstance(pattern, KleeneStar):
            results.append(())
        return results

    if isinstance(pattern, OptionalPattern):
        return _structural_matches(pattern.inner, plan, events) + [()]

    if isinstance(pattern, Negation):
        # The positive part of a negated sub-pattern matches nothing; the
        # negation condition itself is enforced by the extensions package.
        return [()]

    if isinstance(pattern, Disjunction):
        matches: List[Trend] = []
        for alternative in pattern.alternatives:
            matches.extend(_structural_matches(alternative, plan, events))
        return matches

    raise UnsupportedQueryError(
        f"the trend oracle does not understand pattern node {type(pattern).__name__}"
    )


def _strictly_before(events: Sequence[Event], left_index: int, right_index: int) -> bool:
    return events[left_index].order_key < events[right_index].order_key


def _satisfies_adjacent_predicates(plan: CograPlan, events: Sequence[Event], trend: Trend) -> bool:
    for (left_index, left_variable), (right_index, right_variable) in zip(trend, trend[1:]):
        if not plan.adjacency_satisfied(
            events[left_index], left_variable, events[right_index], right_variable
        ):
            return False
    return True


def _satisfies_semantics(
    plan: CograPlan, events: List[Event], trend: Trend, semantics: Semantics
) -> bool:
    if semantics is Semantics.SKIP_TILL_ANY_MATCH:
        return True
    for (left_index, left_variable), (right_index, right_variable) in zip(trend, trend[1:]):
        if semantics is Semantics.SKIP_TILL_NEXT_MATCH:
            if not next_match_adjacent(
                plan, events, left_index, left_variable, right_index, right_variable
            ):
                return False
        else:
            if not contiguous_adjacent(
                plan, events, left_index, left_variable, right_index, right_variable
            ):
                return False
    return True


def enumerate_trends(
    query: Query,
    events: Sequence[Event],
    plan: Optional[CograPlan] = None,
    semantics: Optional[Semantics] = None,
) -> List[Trend]:
    """Enumerate every trend of ``query`` within one already-partitioned sub-stream.

    The sub-stream must already be restricted to one window and one group;
    use :class:`TrendOracle` to evaluate a full query including windows,
    grouping and local-predicate filtering.
    """
    plan = plan or plan_query(query)
    semantics = semantics or query.semantics
    ordered = list(events)
    matches = _structural_matches(query.pattern, plan, ordered)
    unique: Dict[Trend, None] = {}
    for match in matches:
        if not match:
            continue
        if len(match) < query.min_trend_length:
            continue
        if not _satisfies_adjacent_predicates(plan, ordered, match):
            continue
        if not _satisfies_semantics(plan, ordered, match, semantics):
            continue
        unique.setdefault(match, None)
    return list(unique)


def aggregate_trends(
    plan: CograPlan, events: Sequence[Event], trends: Iterable[Trend]
) -> TrendAccumulator:
    """Aggregate explicitly enumerated trends (reference two-step aggregation)."""
    total = TrendAccumulator.zero(plan.targets)
    for trend in trends:
        accumulator: Optional[TrendAccumulator] = None
        for index, variable in trend:
            event = events[index]
            if accumulator is None:
                accumulator = TrendAccumulator.singleton(event, variable, plan.targets)
            else:
                accumulator = accumulator.extended(event, variable)
        if accumulator is not None:
            total.merge(accumulator)
    return total


class TrendOracle:
    """Reference implementation of a full query via explicit enumeration.

    The oracle mirrors the COGRA executor's treatment of windows, grouping
    and local predicates, but computes every aggregate from explicitly
    constructed trends.  A query with negated sub-patterns is evaluated as
    its positive query, whose enumerated trends are then filtered by the
    negation relation of the query's semantics
    (:func:`~repro.extensions.negation.filter_trends_with_negations`).  It
    is deliberately slow and is used only by the tests, the end-to-end
    oracle's cross-check and the smallest benchmark configurations.
    """

    def __init__(self, query: Query):
        self.query = query
        analysis = analyze_negations(query.pattern)
        self._components = analysis.components
        self._positive = positive_query(query, analysis)
        self.plan = plan_query(self._positive)

    def _trends(self, substream: List[Event]) -> List[Trend]:
        trends = enumerate_trends(self._positive, substream, plan=self.plan)
        if not self._components:
            return trends
        return filter_trends_with_negations(
            self._components, substream, trends, self.query.semantics
        )

    def substreams(self, events: Iterable[Event]):
        """The ``((window id, group key), events)`` sub-streams to enumerate,
        as the executor forms them: a count window places an event by its
        arrival ordinal, counted before the local predicates filter."""
        query = self._positive
        window = query.window
        if window is None or not window.is_count_based:
            return substreams(query, filter_local_predicates(query, events))
        placed: Dict[int, List[Event]] = {}
        for ordinal, event in enumerate(events):
            placed.setdefault(window.window_of_ordinal(ordinal), []).append(event)
        parts = []
        for window_id, part in sorted(placed.items()):
            groups = partition_by_group(
                filter_local_predicates(query, part), query.partition_attributes
            )
            for key in sorted(groups, key=repr):
                parts.append(((window_id, key), groups[key]))
        return parts

    def trends_per_substream(
        self, events: Iterable[Event]
    ) -> Dict[Tuple[int, Tuple], List[Trend]]:
        """Mapping from (window id, group key) to the trends of that sub-stream."""
        return {
            key: self._trends(substream)
            for key, substream in self.substreams(events)
        }

    def total_trend_count(self, events: Iterable[Event]) -> int:
        """Total number of trends over all windows and groups."""
        return sum(len(trends) for trends in self.trends_per_substream(events).values())

    def run(self, events: Iterable[Event]) -> List[GroupResult]:
        """Evaluate the query and return results comparable to the executor's."""
        results: List[GroupResult] = []
        for (window_id, key), substream in self.substreams(events):
            accumulator = aggregate_trends(self.plan, substream, self._trends(substream))
            if accumulator.trend_count == 0:
                continue
            start, end = window_bounds(self.query.window, window_id)
            group = dict(zip(self.plan.partition_attributes, key))
            results.append(
                GroupResult(
                    window_id=window_id,
                    window_start=start,
                    window_end=end,
                    group=group,
                    values=accumulator.results(self.query.aggregates),
                    trend_count=accumulator.trend_count,
                )
            )
        return results
