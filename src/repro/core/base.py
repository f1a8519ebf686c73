"""Common interface of the COGRA sub-stream aggregators.

The runtime executor (Section 7) partitions the input stream by window and
group; each resulting *sub-stream* is processed by one aggregator instance
whose concrete class depends on the granularity chosen by the static
analyzer (Table 4).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Type

from repro.analyzer.granularity import Granularity
from repro.analyzer.plan import CograPlan
from repro.core.aggregate_state import TrendAccumulator
from repro.events.event import Event


class SubstreamAggregator:
    """Base class of the per-(window, group) aggregators."""

    # an executor holds one aggregator per open (window, group); subclasses
    # that declare their own __slots__ stay free of a per-instance __dict__
    __slots__ = ("plan", "events_processed")

    def __init__(self, plan: CograPlan):
        self.plan = plan
        self.events_processed = 0

    # -- the per-event hot path -------------------------------------------------

    def process(self, event: Event) -> None:
        """Update the maintained aggregates with ``event``."""
        raise NotImplementedError

    def process_run(self, run, also=()) -> None:
        """Update the aggregates with an ordered run of bound events.

        ``run`` is a sized sequence of ``(event, binding)`` pairs, the
        binding being what :meth:`CograPlan.bind` resolved for the event.
        ``also`` holds aggregators of the same class -- the same group in
        the other windows the run falls into -- that receive the same run:
        the executor binds an event once and dispatches once per (group,
        run), and an aggregator that can share per-event work across
        windows does.  Equivalent to calling :meth:`process` on each event
        in order, on ``self`` and on each of ``also``, which is what
        aggregators that have no use for either do.
        """
        process = self.process
        for event, _binding in run:
            process(event)
        for other in also:
            other.process_run(run)

    # -- results ------------------------------------------------------------------

    def final_accumulator(self) -> TrendAccumulator:
        """Summary of all finished trends seen so far."""
        raise NotImplementedError

    def results(self) -> Dict[str, object]:
        """RETURN-clause values for this sub-stream."""
        return self.final_accumulator().results(self.plan.query.aggregates)

    @property
    def trend_count(self) -> int:
        """Number of finished trends (COUNT(*)) seen so far."""
        return self.final_accumulator().trend_count

    # -- memory accounting ----------------------------------------------------------

    def storage_units(self) -> int:
        """Number of scalar values currently stored by the aggregator.

        This is the machine-independent memory metric reported by the
        benchmark harness (the paper's "number of aggregates").
        """
        raise NotImplementedError

    def stored_event_count(self) -> int:
        """Number of matched events the aggregator keeps around."""
        return 0


@lru_cache(maxsize=None)
def aggregator_class(granularity: Granularity) -> Type[SubstreamAggregator]:
    """The aggregator class that evaluates plans of ``granularity`` (Table 4).

    Resolved on first use, not at import time: the aggregator modules
    import this one.
    """
    from repro.core.event_grained import EventGrainedAggregator
    from repro.core.mixed_grained import MixedGrainedAggregator
    from repro.core.pattern_grained import PatternGrainedAggregator
    from repro.core.type_grained import TypeGrainedAggregator

    return {
        Granularity.PATTERN: PatternGrainedAggregator,
        Granularity.TYPE: TypeGrainedAggregator,
        Granularity.MIXED: MixedGrainedAggregator,
        Granularity.EVENT: EventGrainedAggregator,
    }[granularity]


def create_aggregator(plan: CograPlan) -> SubstreamAggregator:
    """Instantiate the aggregator matching the plan's granularity."""
    return aggregator_class(plan.granularity)(plan)
