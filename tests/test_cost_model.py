"""Tests for the static cost model (Table 3 and the complexity theorems)."""

import pytest

from repro.analyzer.cost import (
    GrowthClass,
    compare_granularities,
    estimate_cost,
    estimate_two_step_trends,
    table3,
    trend_growth_class,
)
from repro.analyzer.granularity import Granularity
from repro.analyzer.plan import plan_query
from repro.baselines.trend_enumeration import TrendOracle
from repro.core.engine import CograEngine
from repro.datasets.queries import running_example_query
from repro.events.event import Event
from repro.query.ast import atom, kleene_plus, sequence
from repro.query.parser import parse_query
from repro.query.predicates import comparison
from repro.query.semantics import Semantics

from differential import ADMITTED, QUERIES, build_query


class TestTable3:
    def test_matrix_matches_the_paper(self):
        matrix = table3()
        assert matrix[("ANY", "kleene")] == "exponential"
        assert matrix[("ANY", "sequence")] == "polynomial"
        assert matrix[("NEXT", "kleene")] == "polynomial"
        assert matrix[("NEXT", "sequence")] == "linear"
        assert matrix[("CONT", "kleene")] == "polynomial"
        assert matrix[("CONT", "sequence")] == "linear"

    def test_growth_class_enum_values(self):
        assert trend_growth_class(Semantics.SKIP_TILL_ANY_MATCH, True) is GrowthClass.EXPONENTIAL
        assert trend_growth_class(Semantics.CONTIGUOUS, False) is GrowthClass.LINEAR

    def test_exponential_growth_is_observable_on_the_oracle(self):
        """The trend count under ANY doubles (plus one) with every new event."""
        query = build_query(kleene_plus("A"))
        counts = []
        for n in (2, 4, 6, 8):
            stream = [Event("A", float(t)) for t in range(n)]
            counts.append(TrendOracle(query).total_trend_count(stream))
        assert counts == [3, 15, 63, 255]  # 2^n - 1

    def test_polynomial_growth_under_contiguous_kleene(self):
        """Contiguous A+ matches every contiguous run: n(n+1)/2 trends."""
        query = build_query(kleene_plus("A"), semantics="contiguous")
        for n in (2, 4, 8):
            stream = [Event("A", float(t)) for t in range(n)]
            assert TrendOracle(query).total_trend_count(stream) == n * (n + 1) // 2

    def test_linear_growth_under_contiguous_sequence(self):
        """A contiguous fixed-length sequence pattern grows linearly."""
        query = build_query(sequence(atom("A"), atom("B")), semantics="contiguous")
        counts = []
        for pairs in (2, 4, 8):
            stream = []
            for index in range(pairs):
                stream.append(Event("A", float(2 * index)))
                stream.append(Event("B", float(2 * index + 1)))
            counts.append(TrendOracle(query).total_trend_count(stream))
        assert counts == [2, 4, 8]


class TestTwoStepEstimate:
    def test_exponential_estimate_dominates_polynomial(self):
        exponential = estimate_two_step_trends(Semantics.SKIP_TILL_ANY_MATCH, True, 100, 2)
        polynomial = estimate_two_step_trends(Semantics.SKIP_TILL_NEXT_MATCH, True, 100, 2)
        linear = estimate_two_step_trends(Semantics.CONTIGUOUS, False, 100, 2)
        assert exponential > polynomial > linear

    def test_zero_events_cost_nothing(self):
        assert estimate_two_step_trends(Semantics.SKIP_TILL_ANY_MATCH, True, 0, 2) == 0.0

    def test_exponent_is_capped(self):
        estimate = estimate_two_step_trends(Semantics.SKIP_TILL_ANY_MATCH, True, 10**9, 1)
        assert estimate == 2.0**1000


class TestEstimateCost:
    def test_pattern_granularity_has_constant_space(self):
        query = build_query(kleene_plus("A"), semantics="contiguous")
        estimate = estimate_cost(query, events_per_window=1_000_000)
        assert estimate.granularity is Granularity.PATTERN
        assert estimate.space_complexity == "O(1)"
        assert estimate.estimated_storage_units < 20
        assert estimate.estimated_updates_per_event == 1.0

    def test_type_granularity_storage_scales_with_pattern_length(self):
        short = estimate_cost(build_query(kleene_plus("A")), events_per_window=1000)
        long = estimate_cost(
            build_query(sequence(kleene_plus("A"), atom("B"), atom("C"), atom("D"))),
            events_per_window=1000,
        )
        assert short.granularity is Granularity.TYPE
        assert long.estimated_storage_units > short.estimated_storage_units
        # storage does not depend on the stream rate at type granularity
        assert (
            estimate_cost(build_query(kleene_plus("A")), events_per_window=10**6)
            .estimated_storage_units
            == short.estimated_storage_units
        )

    def test_mixed_granularity_storage_scales_with_events(self):
        query = build_query(
            sequence(kleene_plus("A"), kleene_plus("B", "B")),
            predicates=[comparison("A", "value", ">", "A")],
        )
        small = estimate_cost(query, events_per_window=100)
        large = estimate_cost(query, events_per_window=10_000)
        assert small.granularity is Granularity.MIXED
        assert large.estimated_storage_units > small.estimated_storage_units

    def test_event_granularity_is_quadratic_in_time(self):
        query = build_query(kleene_plus("A"))
        plan = plan_query(query, forced_granularity=Granularity.EVENT)
        estimate = estimate_cost(plan, events_per_window=500)
        assert estimate.time_complexity == "O(n^2)"
        assert estimate.estimated_updates_per_event > 1.0

    def test_describe_contains_all_sections(self):
        estimate = estimate_cost(running_example_query(), events_per_window=5000)
        text = estimate.describe()
        for keyword in ("granularity", "trend count growth", "storage units", "two-step"):
            assert keyword in text

    def test_type_grained_storage_matches_runtime_within_cell_rounding(self):
        """The static storage estimate equals what the executor actually stores."""
        query = running_example_query()
        estimate = estimate_cost(query, events_per_window=8)
        engine = CograEngine(query)
        stream = [Event("A", 1.0), Event("B", 2.0), Event("A", 3.0), Event("B", 4.0)]
        for event in stream:
            engine.process(event)
        assert engine.storage_units() == estimate.estimated_storage_units


class TestCompareGranularities:
    def test_all_correct_granularities_are_estimated(self):
        query = build_query(kleene_plus("A"))
        estimates = compare_granularities(query, events_per_window=1000)
        assert set(estimates) == {"type", "mixed", "event"}
        assert (
            estimates["event"].estimated_storage_units
            > estimates["type"].estimated_storage_units
        )

    def test_contiguous_queries_offer_only_pattern(self):
        query = build_query(kleene_plus("A"), semantics="contiguous")
        estimates = compare_granularities(query)
        assert set(estimates) == {"pattern"}

    def test_negated_queries_are_estimated_as_the_engine_plans_them(self):
        """The engine escalates a negated query's mixed plan to event
        granularity and rejects a forced mixed one."""
        query = parse_query(
            "RETURN g, COUNT(*) PATTERN SEQ(A+, NOT C, B) SEMANTICS any "
            "WHERE [g] AND A.v < NEXT(A).v"
        )
        assert estimate_cost(query).granularity is Granularity.EVENT
        assert set(compare_granularities(query)) == {"event"}


class TestCatalogueCosts:
    """The static plan is the cheapest one the engine accepts: for every
    catalogue query, the coarsest admitted granularity estimates the fewest
    updates and storage units, and each estimate is that of the forced plan."""

    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_the_coarsest_admitted_plan_is_estimated_cheapest(self, name):
        query = parse_query(QUERIES[name])
        estimates = compare_granularities(query, events_per_window=1000)
        assert tuple(estimates) == ADMITTED[name]
        for granularity, estimate in estimates.items():
            forced = plan_query(query, forced_granularity=granularity)
            assert estimate == estimate_cost(forced, events_per_window=1000)
        static = estimate_cost(query, events_per_window=1000)
        assert static == estimates[ADMITTED[name][0]]
        for estimate in estimates.values():
            assert static.estimated_updates_per_event <= estimate.estimated_updates_per_event
            assert static.estimated_storage_units <= estimate.estimated_storage_units
