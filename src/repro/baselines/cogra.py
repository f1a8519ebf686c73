"""COGRA wrapped in the common approach interface of the benchmark harness.

The wrapper delegates to the incremental executor of :mod:`repro.core` and
adds the memory sampling the harness needs to chart peak storage.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.analyzer.plan import CograPlan
from repro.baselines.base import ALL_SEMANTICS, ApproachCapabilities, BaselineApproach
from repro.core.aggregate_state import TrendAccumulator
from repro.core.executor import QueryExecutor
from repro.core.results import GroupResult
from repro.errors import ExecutionAbortedError
from repro.events.event import Event
from repro.query.query import Query


class CograApproach(BaselineApproach):
    """Coarse-grained online event trend aggregation (this paper)."""

    name = "cogra"
    capabilities = ApproachCapabilities(
        kleene_closure=True,
        semantics=ALL_SEMANTICS,
        adjacent_predicates=True,
        online_trend_aggregation=True,
    )
    negation = True
    count_windows = True

    def __init__(
        self,
        cost_budget: Optional[int] = None,
        memory_sample_stride: int = 256,
        granularity=None,
    ):
        super().__init__(cost_budget=cost_budget)
        #: how often (in events) the storage high-water mark is sampled
        self.memory_sample_stride = max(1, memory_sample_stride)
        #: optional granularity override (used by the ablation harness)
        self.granularity = granularity

    def run(self, query: Query, events: Iterable[Event]) -> List[GroupResult]:
        """Evaluate ``query`` incrementally with the COGRA executor."""
        self.check_supported(query)
        self.peak_storage_units = 0
        self.constructed_trends = 0
        from repro.analyzer.plan import plan_query

        executor = QueryExecutor(plan_query(query, forced_granularity=self.granularity))
        results: List[GroupResult] = []
        for index, event in enumerate(events):
            results.extend(executor.process(event))
            if index % self.memory_sample_stride == 0:
                self._account_storage(executor.storage_units())
            if self.cost_budget is not None and index > self.cost_budget:
                raise ExecutionAbortedError(
                    f"cogra exceeded its cost budget of {self.cost_budget} events",
                    events_processed=index,
                )
        self._account_storage(executor.storage_units())
        results.extend(executor.flush())
        return results

    def aggregate_substream(self, plan: CograPlan, events: List[Event]) -> TrendAccumulator:
        """Aggregate one sub-stream directly (used by a few micro-benchmarks)."""
        from repro.core.base import create_aggregator

        aggregator = create_aggregator(plan)
        for event in events:
            aggregator.process(event)
            self._account_storage(aggregator.storage_units())
        return aggregator.final_accumulator()
