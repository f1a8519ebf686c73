"""Common infrastructure of the execution approaches used in the evaluation.

Every approach -- COGRA itself and the four baselines -- implements the same
small interface so the benchmark harness can swap them freely:

* :meth:`BaselineApproach.run` evaluates a query over a finite stream and
  returns the same :class:`~repro.core.results.GroupResult` records the
  COGRA executor produces,
* :attr:`BaselineApproach.capabilities` reports the expressive power of the
  approach (Table 9 of the paper) and is used to refuse unsupported
  queries with :class:`~repro.errors.UnsupportedQueryError`, and
* :attr:`BaselineApproach.peak_storage_units` exposes a machine-independent
  memory metric (number of stored events, pointers and aggregate values).

Two-step baselines additionally honour a *cost budget*: when the number of
constructed trends (or stored sequences) exceeds the budget they raise
:class:`~repro.errors.ExecutionAbortedError`, which the harness reports as
the paper's "does not terminate" data points.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional

from repro.analyzer.plan import CograPlan, plan_query
from repro.core.aggregate_state import TrendAccumulator
from repro.core.partitioner import filter_local_predicates, substreams, window_bounds
from repro.core.results import GroupResult
from repro.errors import ExecutionAbortedError, UnsupportedQueryError
from repro.events.event import Event
from repro.query.query import Query
from repro.query.semantics import Semantics


class ApproachCapabilities:
    """Expressive power of an approach (one row of Table 9)."""

    def __init__(
        self,
        kleene_closure: bool,
        semantics: FrozenSet[Semantics],
        adjacent_predicates: bool,
        online_trend_aggregation: bool,
    ):
        self.kleene_closure = kleene_closure
        self.semantics = frozenset(semantics)
        self.adjacent_predicates = adjacent_predicates
        self.online_trend_aggregation = online_trend_aggregation

    def as_row(self) -> Dict[str, str]:
        """Row of the expressive-power matrix with the paper's +/- notation."""
        def mark(flag: bool) -> str:
            return "+" if flag else "-"

        return {
            "Kleene closure": mark(self.kleene_closure),
            "ANY": mark(Semantics.SKIP_TILL_ANY_MATCH in self.semantics),
            "NEXT": mark(Semantics.SKIP_TILL_NEXT_MATCH in self.semantics),
            "CONT": mark(Semantics.CONTIGUOUS in self.semantics),
            "Adjacent predicates": mark(self.adjacent_predicates),
            "Online trend aggregation": mark(self.online_trend_aggregation),
        }


ALL_SEMANTICS = frozenset(Semantics)
ANY_ONLY = frozenset({Semantics.SKIP_TILL_ANY_MATCH})


class BaselineApproach:
    """Base class of every execution approach known to the harness."""

    #: Name used by the registry, the CLI and the benchmark reports.
    name: str = "abstract"
    #: Expressive power; concrete classes override this.
    capabilities = ApproachCapabilities(False, frozenset(), False, False)

    def __init__(self, cost_budget: Optional[int] = None):
        #: Upper bound on constructed trends / stored sequences; ``None`` = unbounded.
        self.cost_budget = cost_budget
        #: Machine-independent memory high-water mark of the last run.
        self.peak_storage_units = 0
        #: Number of trends constructed by the last run (two-step approaches).
        self.constructed_trends = 0

    # -- public API ------------------------------------------------------------------

    def run(self, query: Query, events: Iterable[Event]) -> List[GroupResult]:
        """Evaluate ``query`` over ``events`` and return per-group results."""
        self.check_supported(query)
        self.peak_storage_units = 0
        self.constructed_trends = 0
        plan = plan_query(query)
        filtered = filter_local_predicates(query, events)
        results: List[GroupResult] = []
        for (window_id, key), substream in substreams(query, filtered):
            accumulator = self.aggregate_substream(plan, substream)
            if accumulator.trend_count == 0:
                continue
            start, end = window_bounds(query.window, window_id)
            group = dict(zip(plan.partition_attributes, key))
            results.append(
                GroupResult(
                    window_id=window_id,
                    window_start=start,
                    window_end=end,
                    group=group,
                    values=accumulator.results(query.aggregates),
                    trend_count=accumulator.trend_count,
                )
            )
        return results

    def check_supported(self, query: Query) -> None:
        """Raise :class:`UnsupportedQueryError` when the approach cannot run ``query``.

        The checks reproduce the expressive-power limits of Table 9.
        """
        capabilities = self.capabilities
        if query.pattern.is_kleene and not capabilities.kleene_closure:
            # Approaches without Kleene closure evaluate a flattened workload
            # of fixed-length sequence queries instead of refusing outright;
            # subclasses that cannot even do that override this method.
            pass
        if query.semantics not in capabilities.semantics:
            raise UnsupportedQueryError(
                f"{self.name} does not support the {query.semantics.value} semantics"
            )
        if query.has_adjacent_predicates and not capabilities.adjacent_predicates:
            raise UnsupportedQueryError(
                f"{self.name} does not support predicates on adjacent events"
            )

    # -- extension point ---------------------------------------------------------------

    def aggregate_substream(self, plan: CograPlan, events: List[Event]) -> TrendAccumulator:
        """Aggregate the trends of one (window, group) sub-stream."""
        raise NotImplementedError

    # -- helpers for subclasses ----------------------------------------------------------

    def _account_storage(self, units: int) -> None:
        """Update the memory high-water mark."""
        if units > self.peak_storage_units:
            self.peak_storage_units = units

    def _charge_trend(self, count: int = 1) -> None:
        """Record constructed trends and enforce the cost budget."""
        self.constructed_trends += count
        if self.cost_budget is not None and self.constructed_trends > self.cost_budget:
            raise ExecutionAbortedError(
                f"{self.name} exceeded its cost budget of {self.cost_budget} constructed trends",
                events_processed=self.constructed_trends,
            )

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def next_match_adjacent(
    plan: CograPlan,
    events: List[Event],
    predecessor_index: int,
    predecessor_variable: str,
    event_index: int,
    variable: str,
) -> bool:
    """Skip-till-next-match adjacency (Definition 7).

    The pair must be adjacent under skip-till-any-match and no event that
    arrives between the two may itself be adjacent (under any variable
    binding) to the predecessor.
    """
    predecessor = events[predecessor_index]
    event = events[event_index]
    if not plan.adjacency_satisfied(predecessor, predecessor_variable, event, variable):
        return False
    for blocker_index in range(predecessor_index + 1, event_index):
        blocker = events[blocker_index]
        for blocker_variable in plan.candidate_variables(blocker):
            if plan.adjacency_satisfied(
                predecessor, predecessor_variable, blocker, blocker_variable
            ):
                return False
    return True


def contiguous_adjacent(
    plan: CograPlan,
    events: List[Event],
    predecessor_index: int,
    predecessor_variable: str,
    event_index: int,
    variable: str,
) -> bool:
    """Contiguous adjacency (Definition 7): nothing at all arrives in between."""
    if event_index != predecessor_index + 1:
        return False
    return plan.adjacency_satisfied(
        events[predecessor_index], predecessor_variable, events[event_index], variable
    )

