"""Common interface of the COGRA sub-stream aggregators.

The runtime executor (Section 7) partitions the input stream by window and
group; each resulting *sub-stream* is processed by one aggregator instance
whose concrete class depends on the granularity chosen by the static
analyzer (Table 4).

Every class has one hot path, :meth:`SubstreamAggregator.process_run`, which
consumes events the executor already resolved against the plan
(:meth:`CograPlan.bind`); :meth:`SubstreamAggregator.process` is derived
from it here and overridden nowhere.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Tuple, Type

from repro.analyzer.granularity import Granularity
from repro.analyzer.plan import CograPlan
from repro.core.aggregate_state import TrendAccumulator
from repro.events.event import Event


class SubstreamAggregator:
    """Base class of the per-(window, group) aggregators."""

    # an executor holds one aggregator per open (window, group); every
    # subclass declares its own __slots__, so none has a per-instance __dict__
    __slots__ = ("plan", "events_processed")

    def __init__(self, plan: CograPlan):
        self.plan = plan
        self.events_processed = 0

    # -- the hot path ---------------------------------------------------------------

    def process(self, event: Event) -> None:
        """Update the maintained aggregates with ``event``: a run of one.

        An event the plan's local predicates reject (:meth:`CograPlan.bind`
        returns ``None``) is dropped, as the executor drops it before any
        aggregator sees it (Section 7: such events are filtered out of the
        sub-stream, so under the contiguous semantics they break nothing).
        An event of a type the pattern does not mention binds to nothing
        and is handed on: it still breaks contiguity.
        """
        binding = self.plan.bind(event)
        if binding is not None:
            self.process_run(((event, binding),))

    def process_run(self, run, also=()) -> None:
        """Update the aggregates with an ordered run of bound events.

        ``run`` is a sized sequence of ``(event, binding)`` pairs, the
        binding being what :meth:`CograPlan.bind` resolved for the event
        (never ``None``).  ``also`` holds aggregators of the same class --
        the same group in the other windows the run falls into -- that
        receive the same run: the executor binds an event once and
        dispatches once per (group, run), and the class unpacks each binding
        once for all of them.  Equivalent to calling :meth:`process` on each
        event in order, on ``self`` and on each of ``also``.
        """
        raise NotImplementedError

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
def _classes() -> Dict[Tuple[Granularity, bool], Type[SubstreamAggregator]]:
    """``(granularity, negated)`` -> the aggregator class (Table 4, Section 8).

    Resolved on first use, not at import time: the aggregator modules
    import this one.
    """
    from repro.core.event_grained import EventGrainedAggregator
    from repro.core.mixed_grained import MixedGrainedAggregator
    from repro.core.pattern_grained import PatternGrainedAggregator
    from repro.core.type_grained import TypeGrainedAggregator
    from repro.extensions.negation import (
        NegationEventGrainedAggregator,
        NegationPatternGrainedAggregator,
        NegationTypeGrainedAggregator,
    )

    return {
        (Granularity.PATTERN, False): PatternGrainedAggregator,
        (Granularity.TYPE, False): TypeGrainedAggregator,
        (Granularity.MIXED, False): MixedGrainedAggregator,
        (Granularity.EVENT, False): EventGrainedAggregator,
        # a negated query is never planned at MIXED granularity
        (Granularity.PATTERN, True): NegationPatternGrainedAggregator,
        (Granularity.TYPE, True): NegationTypeGrainedAggregator,
        (Granularity.EVENT, True): NegationEventGrainedAggregator,
    }


def aggregator_class(plan: CograPlan) -> Type[SubstreamAggregator]:
    """The class of ``plan``'s aggregators, built as ``cls(plan)``.

    The class of the plan's granularity (Table 4) or, for a query with
    negated sub-patterns (``plan.negations``), its negation-aware
    counterpart (Section 8).
    """
    return _classes()[plan.granularity, plan.negations is not None]


def create_aggregator(plan: CograPlan) -> SubstreamAggregator:
    """Instantiate the aggregator that evaluates ``plan`` (:func:`aggregator_class`)."""
    return aggregator_class(plan)(plan)
