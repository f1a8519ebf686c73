"""Tests for the baseline approaches (SASE, Flink-style, GRETA, A-Seq) and the registry."""

import pytest

from repro.baselines import (
    ASeqApproach,
    CograApproach,
    FlinkStyleApproach,
    GretaApproach,
    SaseApproach,
    TrendOracle,
    available_approaches,
    capability_table,
    get_approach,
)
from repro.baselines.flattening import flatten_pattern, longest_possible_repetition
from repro.errors import ExecutionAbortedError, InvalidQueryError, UnsupportedQueryError
from repro.events.event import Event
from repro.query.aggregates import avg, count_star, min_of
from repro.query.ast import KleenePlus, Negation, atom, kleene_plus, sequence
from repro.query.builder import QueryBuilder
from repro.query.parser import parse_query
from repro.query.predicates import comparison
from repro.query.windows import WindowSpec
from helpers import assert_results_equal, total_trend_count

FIGURE2 = KleenePlus(sequence(kleene_plus("A"), atom("B")))


def build(semantics="skip-till-any-match", pattern=FIGURE2, predicates=(), aggregates=None,
          window=None, group_by=()):
    builder = QueryBuilder().pattern(pattern).semantics(semantics).window(window)
    for spec in aggregates or [count_star()]:
        builder.aggregate(spec)
    for predicate in predicates:
        builder.where(predicate)
    if group_by:
        builder.group_by(*group_by)
    return builder.build()


ALL_APPROACHES = [CograApproach, SaseApproach, FlinkStyleApproach, GretaApproach, ASeqApproach]


class TestRunningExampleAgreement:
    @pytest.mark.parametrize("approach_class", ALL_APPROACHES)
    def test_any_match_counts_43(self, approach_class, figure2_stream):
        query = build("skip-till-any-match")
        results = approach_class().run(query, figure2_stream)
        assert total_trend_count(results) == 43

    @pytest.mark.parametrize("approach_class", [CograApproach, SaseApproach])
    def test_next_match_counts_8(self, approach_class, figure2_stream):
        query = build("skip-till-next-match")
        results = approach_class().run(query, figure2_stream)
        assert total_trend_count(results) == 8

    @pytest.mark.parametrize("approach_class", [CograApproach, SaseApproach, FlinkStyleApproach])
    def test_contiguous_counts_2(self, approach_class, figure2_stream):
        query = build("contiguous")
        results = approach_class().run(query, figure2_stream)
        assert total_trend_count(results) == 2

    @pytest.mark.parametrize(
        "approach_class", [CograApproach, SaseApproach, FlinkStyleApproach, GretaApproach]
    )
    def test_adjacent_predicates_respected(self, approach_class):
        query = build(pattern=kleene_plus("A"), predicates=[comparison("A", "x", "<", "A")])
        events = [Event("A", 1, {"x": 5}), Event("A", 2, {"x": 3}), Event("A", 3, {"x": 7})]
        results = approach_class().run(query, events)
        assert total_trend_count(results) == 5

    @pytest.mark.parametrize("approach_class", ALL_APPROACHES)
    def test_windows_and_groups_match_oracle(self, approach_class):
        query = build(
            pattern=kleene_plus("A"), window=WindowSpec(10.0, 5.0), group_by=("g",)
        )
        events = [Event("A", t, {"g": t % 2}) for t in range(1, 12)]
        expected = TrendOracle(query).run(events)
        actual = approach_class().run(query, events)
        assert_results_equal(actual, expected)

    @pytest.mark.parametrize("approach_class", ALL_APPROACHES)
    def test_aggregate_values_match_oracle(self, approach_class):
        query = build(
            pattern=kleene_plus("A"),
            aggregates=[count_star(), min_of("A", "x"), avg("A", "x")],
        )
        events = [Event("A", t, {"x": t * 1.5}) for t in range(1, 7)]
        expected = TrendOracle(query).run(events)
        actual = approach_class().run(query, events)
        assert_results_equal(actual, expected)


class TestExpressivePowerTable9:
    def test_flink_rejects_next_match(self, figure2_stream):
        with pytest.raises(UnsupportedQueryError):
            FlinkStyleApproach().run(build("skip-till-next-match"), figure2_stream)

    def test_greta_rejects_next_and_contiguous(self, figure2_stream):
        with pytest.raises(UnsupportedQueryError):
            GretaApproach().run(build("skip-till-next-match"), figure2_stream)
        with pytest.raises(UnsupportedQueryError):
            GretaApproach().run(build("contiguous"), figure2_stream)

    def test_aseq_rejects_adjacent_predicates(self):
        query = build(pattern=kleene_plus("A"), predicates=[comparison("A", "x", "<", "A")])
        with pytest.raises(UnsupportedQueryError):
            ASeqApproach().run(query, [Event("A", 1, {"x": 1})])

    def test_aseq_rejects_non_any_semantics(self, figure2_stream):
        with pytest.raises(UnsupportedQueryError):
            ASeqApproach().run(build("contiguous"), figure2_stream)

    @pytest.mark.parametrize("approach_class", ALL_APPROACHES)
    def test_count_windows_run_on_cogra_and_are_refused_elsewhere(self, approach_class):
        query = parse_query(
            "RETURN g, COUNT(*) PATTERN SEQ(A+, B) "
            "SEMANTICS skip-till-any-match GROUP-BY g WITHIN 8 events"
        )
        events = [
            Event("AB"[index % 3 == 2], float(index), {"g": "xy"[index % 2]})
            for index in range(30)
        ]
        if approach_class.count_windows:
            expected = TrendOracle(query).run(events)
            assert expected
            assert_results_equal(approach_class().run(query, events), expected)
        else:
            with pytest.raises(UnsupportedQueryError, match="count-based windows"):
                approach_class().run(query, events)

    def test_capability_table_matches_paper(self):
        table = capability_table()
        assert table["cogra"]["Online trend aggregation"] == "+"
        assert table["flink"]["NEXT"] == "-"
        assert table["sase"]["Online trend aggregation"] == "-"
        assert table["greta"]["CONT"] == "-"
        assert table["aseq"]["Adjacent predicates"] == "-"
        assert set(table) == {"flink", "sase", "greta", "aseq", "cogra"}


class TestCostBudgets:
    def test_sase_aborts_when_budget_exceeded(self, figure2_stream):
        with pytest.raises(ExecutionAbortedError):
            SaseApproach(cost_budget=10).run(build("skip-till-any-match"), figure2_stream)

    def test_flink_aborts_when_budget_exceeded(self, figure2_stream):
        with pytest.raises(ExecutionAbortedError):
            FlinkStyleApproach(cost_budget=10).run(build("skip-till-any-match"), figure2_stream)

    def test_budget_large_enough_is_harmless(self, figure2_stream):
        results = SaseApproach(cost_budget=1_000).run(build(), figure2_stream)
        assert total_trend_count(results) == 43


class TestMemoryAccounting:
    def test_two_step_baselines_store_more_than_cogra(self, figure2_stream):
        query = build("skip-till-any-match")
        cogra, sase, greta = CograApproach(), SaseApproach(), GretaApproach()
        cogra.run(query, figure2_stream)
        sase.run(query, figure2_stream)
        greta.run(query, figure2_stream)
        assert cogra.peak_storage_units < sase.peak_storage_units
        assert cogra.peak_storage_units < greta.peak_storage_units

    def test_constructed_trend_counter(self, figure2_stream):
        sase = SaseApproach()
        sase.run(build(), figure2_stream)
        assert sase.constructed_trends == 43


class TestFlattening:
    def test_single_kleene_flattens_linearly(self):
        variants = flatten_pattern(kleene_plus("A"), max_repetitions=4)
        assert len(variants) == 4
        assert variants[0] == (("A", "A"),)
        assert len(variants[-1]) == 4

    def test_running_example_shapes_are_unique(self):
        variants = flatten_pattern(FIGURE2, max_repetitions=3)
        assert len(variants) == len(set(variants))
        # every variant ends with a B position
        assert all(variant[-1][1] == "B" for variant in variants)

    def test_nested_kleene_over_same_atom_deduplicates(self):
        variants = flatten_pattern(KleenePlus(kleene_plus("A")), max_repetitions=3)
        assert len(variants) == len(set(variants))

    def test_negated_pattern_is_refused(self):
        pattern = sequence(kleene_plus("A"), Negation(atom("C")), atom("B"))
        with pytest.raises(UnsupportedQueryError, match="Negation"):
            flatten_pattern(pattern, max_repetitions=3)

    def test_flattening_budget_enforced(self):
        with pytest.raises(ExecutionAbortedError):
            flatten_pattern(FIGURE2, max_repetitions=30, max_variants=10)

    def test_longest_possible_repetition(self):
        events = [Event("A", 1), Event("A", 2), Event("B", 3)]
        assert longest_possible_repetition(kleene_plus("A"), events) == 2
        assert longest_possible_repetition(sequence(atom("A"), atom("B")), events) == 1

    def test_aseq_workload_size_reported(self, figure2_stream):
        approach = ASeqApproach()
        approach.run(build("skip-till-any-match"), figure2_stream)
        assert approach.workload_size > 0


class TestRegistry:
    def test_available_approaches_order(self):
        assert available_approaches() == ["flink", "sase", "greta", "aseq", "cogra"]

    def test_get_approach_by_name(self):
        assert isinstance(get_approach("cogra"), CograApproach)
        assert isinstance(get_approach("SASE"), SaseApproach)

    def test_get_approach_passes_kwargs(self):
        approach = get_approach("flink", cost_budget=5)
        assert approach.cost_budget == 5

    def test_unknown_approach_rejected(self):
        with pytest.raises(InvalidQueryError):
            get_approach("spark")
