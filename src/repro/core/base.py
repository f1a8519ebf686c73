"""Common interface of the COGRA sub-stream aggregators.

The runtime executor (Section 7) partitions the input stream by window and
group; each resulting *sub-stream* is processed by one aggregator instance
whose concrete class depends on the granularity chosen by the static
analyzer (Table 4).
"""

from __future__ import annotations

from typing import Dict

from repro.analyzer.granularity import Granularity
from repro.analyzer.plan import CograPlan
from repro.core.aggregate_state import TrendAccumulator
from repro.errors import PlanningError
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

    def process_run(self, run) -> None:
        """Update the aggregates with an ordered run of bound events.

        ``run`` is a sized sequence of ``(event, binding)`` pairs, the
        binding being what :meth:`CograPlan.bind` resolved for the event
        (the executor binds an event once and hands the same run to the
        aggregator of every window the event falls into).  Equivalent to
        calling :meth:`process` on each event in order, which is what
        aggregators that have no use for the binding do.
        """
        process = self.process
        for event, _binding in run:
            process(event)

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


def create_aggregator(plan: CograPlan) -> SubstreamAggregator:
    """Instantiate the aggregator matching the plan's granularity."""
    # imported lazily to avoid circular imports at package load time
    from repro.core.event_grained import EventGrainedAggregator
    from repro.core.mixed_grained import MixedGrainedAggregator
    from repro.core.pattern_grained import PatternGrainedAggregator
    from repro.core.type_grained import TypeGrainedAggregator

    granularity = plan.granularity
    if granularity is Granularity.PATTERN:
        return PatternGrainedAggregator(plan)
    if granularity is Granularity.TYPE:
        return TypeGrainedAggregator(plan)
    if granularity is Granularity.MIXED:
        return MixedGrainedAggregator(plan)
    if granularity is Granularity.EVENT:
        return EventGrainedAggregator(plan)
    raise PlanningError(f"no aggregator for granularity {granularity}")  # pragma: no cover
