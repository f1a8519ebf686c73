"""Tests for the event-grained aggregator and the forced-granularity override."""

import pytest

from repro.analyzer.granularity import Granularity, allowed_granularities
from repro.analyzer.plan import plan_query
from repro.baselines.trend_enumeration import TrendOracle
from repro.core.engine import CograEngine
from repro.core.event_grained import EventGrainedAggregator
from repro.core.mixed_grained import MixedGrainedAggregator
from repro.core.type_grained import TypeGrainedAggregator
from repro.core.base import create_aggregator
from repro.errors import PlanningError
from repro.query.aggregates import count_star, min_of, sum_of
from repro.query.ast import KleenePlus, atom, kleene_plus, sequence
from repro.query.predicates import AdjacentPredicate, comparison

from differential import build_query
from helpers import assert_results_equal

FIGURE2 = KleenePlus(sequence(kleene_plus("A"), atom("B")))


def feed(aggregator, events):
    for event in events:
        aggregator.process(event)
    return aggregator


class TestEventGrainedCorrectness:
    def test_running_example_count_is_43(self, figure2_stream):
        plan = plan_query(build_query(FIGURE2), forced_granularity=Granularity.EVENT)
        aggregator = feed(EventGrainedAggregator(plan), figure2_stream)
        assert aggregator.final_accumulator().trend_count == 43

    def test_agrees_with_type_grained_without_predicates(self, figure2_stream):
        query = build_query(FIGURE2, aggregates=[count_star(), sum_of("A", "value")])
        stream = [
            event.replace(attributes={"value": index + 1.0})
            for index, event in enumerate(figure2_stream)
        ]
        type_plan = plan_query(query)
        event_plan = plan_query(query, forced_granularity=Granularity.EVENT)
        type_result = feed(TypeGrainedAggregator(type_plan), stream).final_accumulator()
        event_result = feed(EventGrainedAggregator(event_plan), stream).final_accumulator()
        assert type_result.trend_count == event_result.trend_count
        for spec in query.aggregates:
            assert type_result.result_value(spec) == pytest.approx(
                event_result.result_value(spec)
            )

    def test_agrees_with_mixed_grained_with_predicates(self, figure2_stream):
        predicate = AdjacentPredicate(
            "B", "A", lambda b, a: not (b.time == 6.0 and a.time == 7.0), "Table 6 restriction"
        )
        query = build_query(FIGURE2, predicates=[predicate])
        mixed = feed(
            MixedGrainedAggregator(plan_query(query)), figure2_stream
        ).final_accumulator()
        event = feed(
            EventGrainedAggregator(plan_query(query, forced_granularity=Granularity.EVENT)),
            figure2_stream,
        ).final_accumulator()
        assert mixed.trend_count == event.trend_count == 33

    def test_agrees_with_oracle_on_value_stream(self, event_spec):
        stream = event_spec("a1=3 a2=5 b3=2 a4=1 b5=4 a6=6 b7=1")
        query = build_query(
            FIGURE2,
            predicates=[comparison("A", "value", "<", "A")],
            aggregates=[count_star(), min_of("A", "value")],
        )
        oracle = TrendOracle(query).run(stream)
        engine = CograEngine(query, granularity=Granularity.EVENT)
        assert_results_equal(engine.run(stream), oracle)

    def test_irrelevant_events_are_skipped(self, event_spec):
        stream = event_spec("a1 c2 b3 c4")
        plan = plan_query(build_query(FIGURE2), forced_granularity=Granularity.EVENT)
        aggregator = feed(EventGrainedAggregator(plan), stream)
        assert aggregator.events_processed == 2
        assert aggregator.final_accumulator().trend_count == 1

    def test_stored_nodes_grow_with_matched_events(self, figure2_stream):
        plan = plan_query(build_query(FIGURE2), forced_granularity=Granularity.EVENT)
        aggregator = feed(EventGrainedAggregator(plan), figure2_stream)
        # 4 a's and 3 b's are matched; c5 is not stored
        assert aggregator.stored_event_count() == 7
        assert len(aggregator.stored_nodes("A")) == 4
        assert len(aggregator.stored_nodes("B")) == 3

    def test_empty_stream_yields_zero(self):
        plan = plan_query(build_query(FIGURE2), forced_granularity=Granularity.EVENT)
        aggregator = EventGrainedAggregator(plan)
        assert aggregator.final_accumulator().trend_count == 0
        assert aggregator.stored_event_count() == 0


class TestStorageComparison:
    def test_event_granularity_stores_more_than_type(self, figure2_stream):
        query = build_query(FIGURE2)
        type_aggregator = feed(TypeGrainedAggregator(plan_query(query)), figure2_stream)
        event_aggregator = feed(
            EventGrainedAggregator(plan_query(query, forced_granularity=Granularity.EVENT)),
            figure2_stream,
        )
        assert event_aggregator.storage_units() > type_aggregator.storage_units()
        assert type_aggregator.stored_event_count() == 0
        assert event_aggregator.stored_event_count() > 0


class TestForcedGranularity:
    def test_selector_choice_is_recorded(self):
        plan = plan_query(build_query(FIGURE2), forced_granularity=Granularity.EVENT)
        assert plan.selected_granularity is Granularity.TYPE
        assert plan.granularity is Granularity.EVENT
        assert plan.type_grained == frozenset()
        assert plan.event_grained == {"A", "B"}

    def test_describe_mentions_forced_granularity(self):
        plan = plan_query(build_query(FIGURE2), forced_granularity=Granularity.EVENT)
        assert "forced" in plan.describe()
        default_plan = plan_query(build_query(FIGURE2))
        assert "forced" not in default_plan.describe()

    def test_string_granularity_is_accepted(self):
        plan = plan_query(build_query(FIGURE2), forced_granularity="event")
        assert plan.granularity is Granularity.EVENT

    def test_factory_dispatches_on_forced_granularity(self):
        plan = plan_query(build_query(FIGURE2), forced_granularity=Granularity.EVENT)
        assert isinstance(create_aggregator(plan), EventGrainedAggregator)
        mixed_plan = plan_query(build_query(FIGURE2), forced_granularity=Granularity.MIXED)
        assert isinstance(create_aggregator(mixed_plan), MixedGrainedAggregator)

    def test_forcing_coarser_than_correct_is_rejected(self):
        query = build_query(FIGURE2, predicates=[comparison("A", "value", "<", "A")])
        with pytest.raises(PlanningError):
            plan_query(query, forced_granularity=Granularity.TYPE)

    def test_forcing_pattern_for_any_semantics_is_rejected(self):
        with pytest.raises(PlanningError):
            plan_query(build_query(FIGURE2), forced_granularity=Granularity.PATTERN)

    def test_forcing_type_for_contiguous_is_rejected(self):
        query = build_query(FIGURE2, semantics="contiguous")
        with pytest.raises(PlanningError):
            plan_query(query, forced_granularity=Granularity.TYPE)

    def test_pattern_queries_allow_only_pattern(self):
        query = build_query(FIGURE2, semantics="skip-till-next-match")
        plan = plan_query(query, forced_granularity=Granularity.PATTERN)
        assert plan.granularity is Granularity.PATTERN

    @pytest.mark.parametrize(
        "semantics, with_predicate, expected",
        [
            ("skip-till-any-match", False, (Granularity.TYPE, Granularity.MIXED, Granularity.EVENT)),
            ("skip-till-any-match", True, (Granularity.MIXED, Granularity.EVENT)),
            ("skip-till-next-match", False, (Granularity.PATTERN,)),
            ("contiguous", True, (Granularity.PATTERN,)),
        ],
    )
    def test_allowed_granularities_matrix(self, semantics, with_predicate, expected):
        predicates = [comparison("A", "value", "<", "A")] if with_predicate else []
        plan = plan_query(build_query(FIGURE2, predicates=predicates, semantics=semantics))
        assert allowed_granularities(plan.query.semantics, plan.classification) == expected


class TestEngineIntegration:
    def test_engine_accepts_granularity_override(self, figure2_stream, any_count_query):
        coarse = CograEngine(any_count_query)
        fine = CograEngine(any_count_query, granularity="event")
        assert coarse.granularity == "type"
        assert fine.granularity == "event"
        assert_results_equal(coarse.run(figure2_stream), fine.run(figure2_stream))

    def test_engine_rejects_incorrect_override(self, count_query_factory):
        query = count_query_factory("contiguous")
        with pytest.raises(PlanningError):
            CograEngine(query, granularity="type")

    def test_fine_granularity_stores_more_at_runtime(self, figure2_stream, any_count_query):
        coarse = CograEngine(any_count_query)
        fine = CograEngine(any_count_query, granularity="event")
        for event in figure2_stream:
            coarse.process(event)
            fine.process(event)
        assert fine.stored_event_count() > coarse.stored_event_count()
        assert fine.storage_units() > coarse.storage_units()
