"""Static cost model: Table 3 and the complexity theorems of the paper.

The paper motivates coarse-grained aggregation with two analytical results:

* **Table 3** -- the number of trends matched by a pattern grows linearly,
  polynomially or exponentially in the number of events per window,
  depending on whether the pattern contains a Kleene plus and on the event
  matching semantics.  Two-step approaches pay this cost because they
  construct every trend.
* **Theorems 4.2, 5.2 and 6.3** -- the COGRA aggregators avoid that cost:
  pattern granularity runs in ``O(n)`` time and ``O(1)`` space, type
  granularity in ``O(n·l)`` time and ``Θ(l)`` space, mixed granularity in
  ``O(n·(t + n_e))`` time and ``Θ(t + n_e)`` space.

:func:`estimate_cost` turns both into a per-query report: the growth class
of the trend count (what a two-step baseline would construct), the
asymptotic time/space of the granularity the planner picked, and concrete
storage-unit estimates the benchmark harness can compare against measured
values.  The estimates are deliberately simple closed forms -- they predict
*shape*, not milliseconds -- and the test suite checks them against the
enumeration oracle and the runtime executor on small streams.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.analyzer.granularity import Granularity
from repro.analyzer.plan import CograPlan, plan_query
from repro.query.query import Query
from repro.query.semantics import Semantics


class GrowthClass(enum.Enum):
    """Growth of the number of matched trends in the number of events (Table 3)."""

    LINEAR = "linear"
    POLYNOMIAL = "polynomial"
    EXPONENTIAL = "exponential"

    def __str__(self) -> str:
        return self.value


def trend_growth_class(semantics: Semantics, is_kleene: bool) -> GrowthClass:
    """Growth class of the trend count (one cell of Table 3)."""
    if semantics is Semantics.SKIP_TILL_ANY_MATCH:
        return GrowthClass.EXPONENTIAL if is_kleene else GrowthClass.POLYNOMIAL
    return GrowthClass.POLYNOMIAL if is_kleene else GrowthClass.LINEAR


def table3() -> Dict[Tuple[str, str], str]:
    """Table 3 of the paper as a dictionary for reporting.

    Keys are ``(semantics short name, pattern class)`` with pattern class
    ``"sequence"`` or ``"kleene"``; values are growth class names.
    """
    table: Dict[Tuple[str, str], str] = {}
    for semantics in Semantics:
        for pattern_class, is_kleene in (("sequence", False), ("kleene", True)):
            table[(semantics.short_name, pattern_class)] = trend_growth_class(
                semantics, is_kleene
            ).value
    return table


@dataclass
class CostEstimate:
    """Static cost report for one query at one stream rate."""

    #: granularity the plan uses
    granularity: Granularity
    #: growth class of the trend count a two-step approach would construct
    trend_growth: GrowthClass
    #: asymptotic time complexity of the COGRA aggregator (per sub-stream)
    time_complexity: str
    #: asymptotic space complexity of the COGRA aggregator (per sub-stream)
    space_complexity: str
    #: events per window the estimate was computed for
    events_per_window: int
    #: estimated number of stored scalar values per (window, group) sub-stream
    estimated_storage_units: int
    #: estimated number of accumulator updates per event
    estimated_updates_per_event: float
    #: crude lower bound on the trends a two-step approach would construct
    estimated_two_step_trends: float

    def describe(self) -> str:
        """Readable multi-line rendering used by ``cogra explain --cost``."""
        return "\n".join(
            [
                f"granularity          : {self.granularity.value}",
                f"trend count growth   : {self.trend_growth.value} (two-step approaches)",
                f"time complexity      : {self.time_complexity}",
                f"space complexity     : {self.space_complexity}",
                f"events per window    : {self.events_per_window:,}",
                f"est. storage units   : {self.estimated_storage_units:,}",
                f"est. updates / event : {self.estimated_updates_per_event:.1f}",
                f"est. two-step trends : {self.estimated_two_step_trends:,.0f}",
            ]
        )


#: Storage units of one accumulator cell: the trend count plus the four
#: per-target scalars mirrors ``TrendAccumulator.storage_units``.
def _cell_units(target_count: int) -> int:
    return 1 + 4 * target_count


def estimate_two_step_trends(
    semantics: Semantics, is_kleene: bool, events_per_window: int, pattern_length: int
) -> float:
    """Crude estimate of how many trends a two-step approach constructs.

    The estimate follows Table 3: ``2^(n/l)`` per type for exponential
    growth (capped to avoid overflow in reports), ``(n/l)^l`` for
    polynomial growth and ``n/l`` for linear growth, where ``n`` is the
    number of events per window and ``l`` the pattern length.
    """
    if events_per_window <= 0:
        return 0.0
    per_type = max(1.0, events_per_window / max(1, pattern_length))
    growth = trend_growth_class(semantics, is_kleene)
    if growth is GrowthClass.EXPONENTIAL:
        # cap the exponent so the report stays a finite float
        return 2.0 ** min(per_type, 1000.0)
    if growth is GrowthClass.POLYNOMIAL:
        return per_type ** max(1, pattern_length)
    return per_type


def estimate_cost(
    query_or_plan,
    events_per_window: int = 10_000,
    events_per_type: Optional[int] = None,
) -> CostEstimate:
    """Estimate the per-sub-stream cost of evaluating a query with COGRA.

    Parameters
    ----------
    query_or_plan:
        A :class:`~repro.query.query.Query` or an already-computed plan.
    events_per_window:
        Assumed number of events per (window, group) sub-stream ``n``.
    events_per_type:
        Assumed number of stored events per event-grained variable ``n_e``
        (mixed/event granularity); defaults to ``n`` divided by the pattern
        length.
    """
    plan = query_or_plan if isinstance(query_or_plan, CograPlan) else plan_query(query_or_plan)
    length = plan.automaton.length
    target_count = len(plan.targets)
    cell = _cell_units(target_count)
    type_count = len(plan.type_grained)
    event_variable_count = len(plan.event_grained)
    stored_per_variable = (
        events_per_type
        if events_per_type is not None
        else max(1, events_per_window // max(1, length))
    )

    granularity = plan.granularity
    if granularity is Granularity.PATTERN:
        time_complexity = "O(n)"
        space_complexity = "O(1)"
        storage = 2 * cell + 1
        updates = 1.0
    elif granularity is Granularity.TYPE:
        time_complexity = f"O(n * l) with l = {length}"
        space_complexity = f"Θ(l) with l = {length}"
        storage = length * cell
        updates = float(length)
    elif granularity is Granularity.MIXED:
        time_complexity = f"O(n * (t + n_e)) with t = {type_count}"
        space_complexity = f"Θ(t + n_e) with t = {type_count}"
        storage = type_count * cell + event_variable_count * stored_per_variable * (cell + 1)
        updates = float(type_count + event_variable_count * stored_per_variable)
    else:  # EVENT granularity
        time_complexity = "O(n^2)"
        space_complexity = "Θ(n)"
        storage = length * stored_per_variable * (cell + 1) + cell
        updates = float(length * stored_per_variable)

    return CostEstimate(
        granularity=granularity,
        trend_growth=trend_growth_class(plan.semantics, plan.query.pattern.is_kleene),
        time_complexity=time_complexity,
        space_complexity=space_complexity,
        events_per_window=events_per_window,
        estimated_storage_units=int(storage),
        estimated_updates_per_event=updates,
        estimated_two_step_trends=estimate_two_step_trends(
            plan.semantics, plan.query.pattern.is_kleene, events_per_window, length
        ),
    )


def compare_granularities(
    query: Query, events_per_window: int = 10_000
) -> Dict[str, CostEstimate]:
    """Cost estimates of every granularity the engine accepts for ``query``.

    This is the static counterpart of the ablation benchmark: it shows what
    forcing a finer granularity would cost before running anything.
    """
    return {
        granularity.value: estimate_cost(
            plan_query(query, forced_granularity=granularity), events_per_window
        )
        for granularity in plan_query(query).accepted_granularities
    }


# ---------------------------------------------------------------------------
# observed-statistics mode (adaptive re-planning)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ObservedStatistics:
    """Runtime statistics measured by the streaming runtime for one query.

    Unlike the assumptions fed to :func:`estimate_cost`, these come from the
    live stream: the running mean of events processed per open ``(window,
    group)`` sub-stream and the fraction of processed events that bound to
    some pattern variable.  Together they yield a *fractional* estimate of
    the events each event-grained variable stores -- the quantity that
    decides whether paying per-stored-event (event/mixed granularity) is
    cheaper than paying per-variable (type granularity).
    """

    #: mean events processed per open (window, group) sub-stream
    events_per_substream: float
    #: fraction of processed events that matched some pattern variable
    match_rate: float = 1.0

    def stored_per_variable(self, pattern_length: int) -> float:
        """Expected stored events per event-grained variable (fractional).

        The static model clamps this to ``>= 1``; the observed model keeps
        the fraction because sparse sub-streams (fewer matched events than
        variables) are exactly where event granularity wins.
        """
        matched = max(0.0, self.match_rate) * max(0.0, self.events_per_substream)
        return matched / max(1, pattern_length)


def observed_updates_per_event(plan: CograPlan, observed: ObservedStatistics) -> float:
    """Expected accumulator updates per event under ``plan``'s granularity.

    The observed counterpart of ``estimated_updates_per_event`` in
    :func:`estimate_cost`: pattern granularity touches one cell, type
    granularity one per variable (``l``), and the event-grained variables of
    mixed/event plans touch one cell per *stored* event -- here the observed
    fractional estimate rather than a static assumption.  For a pattern of
    length ``l`` the type/event crossover sits exactly at one stored event
    per variable.
    """
    length = plan.automaton.length
    stored = observed.stored_per_variable(length)
    granularity = plan.granularity
    if granularity is Granularity.PATTERN:
        return 1.0
    if granularity is Granularity.TYPE:
        return float(length)
    if granularity is Granularity.MIXED:
        return float(len(plan.type_grained)) + len(plan.event_grained) * stored
    return length * stored  # EVENT granularity


def compare_observed_costs(
    query_or_plan, observed: ObservedStatistics
) -> Dict[Granularity, float]:
    """Observed per-event update cost of every granularity the query accepts.

    Keys iterate coarsest-first (the order of
    :attr:`~repro.analyzer.plan.CograPlan.accepted_granularities`), so a
    plain ``min`` over the dictionary breaks cost ties toward the coarser
    plan.
    """
    plan = (
        query_or_plan
        if isinstance(query_or_plan, CograPlan)
        else plan_query(query_or_plan)
    )
    costs: Dict[Granularity, float] = {}
    for granularity in plan.accepted_granularities:
        forced = (
            plan
            if plan.granularity is granularity
            else plan_query(plan.query, forced_granularity=granularity)
        )
        costs[granularity] = observed_updates_per_event(forced, observed)
    return costs


def recommend_granularity(
    query_or_plan,
    observed: ObservedStatistics,
    current: Optional[Granularity] = None,
    hysteresis: float = 0.0,
) -> Granularity:
    """Granularity the observed statistics recommend, with hysteresis.

    Without ``current`` this is a pure argmin over
    :func:`compare_observed_costs` (ties go to the coarser granularity).
    With ``current``, the recommendation only moves away from it when the
    current cost *strictly* exceeds the best cost by more than the
    ``hysteresis`` fraction -- a query sitting exactly on the boundary keeps
    its plan, so borderline queries do not flap.
    """
    costs = compare_observed_costs(query_or_plan, observed)
    best = min(costs, key=costs.__getitem__)
    if current is None:
        return best
    if isinstance(current, str):
        current = Granularity(current)
    if current not in costs:
        return best
    if costs[current] > costs[best] * (1.0 + hysteresis):
        return best
    return current
