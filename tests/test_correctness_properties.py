"""Property-based correctness tests: COGRA and all baselines vs. the oracle.

The oracle (:class:`repro.baselines.trend_enumeration.TrendOracle`)
implements Definitions 2-4 by explicit enumeration.  For randomly generated
small streams and a spectrum of queries, every approach must produce the
same aggregates as the oracle:

* skip-till-any-match with and without predicates on adjacent events, over
  several pattern shapes, for every aggregation function (COUNT, MIN, MAX,
  SUM, AVG);
* skip-till-next-match and contiguous semantics over the single-Kleene and
  (SEQ(A+, B))+ pattern families used throughout the paper (the family for
  which Algorithm 3's single-predecessor assumption holds);
* sliding windows and grouping.
"""

from hypothesis import given, settings, strategies as st

from repro.baselines import (
    ASeqApproach,
    CograApproach,
    FlinkStyleApproach,
    GretaApproach,
    SaseApproach,
    TrendOracle,
)
from repro.core.engine import CograEngine
from repro.query.aggregates import avg, count_star, count_type, max_of, min_of, sum_of
from repro.query.ast import KleenePlus, atom, kleene_plus, sequence
from repro.query.builder import QueryBuilder
from repro.query.predicates import comparison
from repro.query.windows import WindowSpec

from differential import build_query, streams
from helpers import assert_results_equal

MAX_EXAMPLES = 30

ALL_AGGREGATES = [
    count_star(),
    count_type("A"),
    min_of("A", "x"),
    max_of("A", "x"),
    sum_of("A", "x"),
    avg("A", "x"),
]


def assert_matches_oracle(query, events, approaches=(CograApproach,)):
    expected = TrendOracle(query).run(events)
    for approach_class in approaches:
        actual = approach_class().run(query, events)
        assert_results_equal(actual, expected)


# -- skip-till-any-match -----------------------------------------------------------


class TestAnyMatchAgainstOracle:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(events=streams())
    def test_type_grained_all_aggregates(self, events):
        query = build_query(kleene_plus("A"), "skip-till-any-match", aggregates=ALL_AGGREGATES)
        assert_matches_oracle(query, events)

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(events=streams())
    def test_running_example_pattern(self, events):
        query = build_query(
            KleenePlus(sequence(kleene_plus("A"), atom("B"))), "skip-till-any-match"
        )
        assert_matches_oracle(query, events)

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(events=streams(max_events=8))
    def test_fixed_sequence_pattern(self, events):
        query = build_query(sequence(atom("A"), atom("B"), atom("C")), "skip-till-any-match")
        assert_matches_oracle(query, events)

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(events=streams(max_events=8))
    def test_mixed_grained_with_adjacent_predicate(self, events):
        query = build_query(
            kleene_plus("A"),
            "skip-till-any-match",
            predicates=[comparison("A", "x", "<", "A")],
            aggregates=ALL_AGGREGATES,
        )
        assert_matches_oracle(query, events)

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(events=streams(max_events=8))
    def test_mixed_grained_cross_variable_predicate(self, events):
        query = build_query(
            sequence(kleene_plus("A"), atom("B")),
            "skip-till-any-match",
            predicates=[comparison("A", "x", "<=", "B", "x")],
        )
        assert_matches_oracle(query, events)

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(events=streams(max_events=8, types="AB"))
    def test_repeated_event_type_with_aliases(self, events):
        query = build_query(
            sequence(kleene_plus("A", "P"), kleene_plus("A", "Q")),
            "skip-till-any-match",
            aggregates=[count_star(), sum_of("Q", "x")],
        )
        assert_matches_oracle(query, events)

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(events=streams())
    def test_grouping_and_windows(self, events):
        query = build_query(
            kleene_plus("A"),
            "skip-till-any-match",
            window=WindowSpec(4.0, 2.0),
            group_by=("g",),
        )
        assert_matches_oracle(query, events)

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(events=streams(max_events=8))
    def test_all_baselines_agree_under_any(self, events):
        query = build_query(kleene_plus("A"), "skip-till-any-match", aggregates=ALL_AGGREGATES)
        assert_matches_oracle(
            query,
            events,
            approaches=(CograApproach, SaseApproach, GretaApproach, FlinkStyleApproach, ASeqApproach),
        )

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(events=streams(max_events=8))
    def test_sase_and_greta_with_predicates(self, events):
        query = build_query(
            KleenePlus(sequence(kleene_plus("A"), atom("B"))),
            "skip-till-any-match",
            predicates=[comparison("A", "x", "<=", "B", "x")],
        )
        assert_matches_oracle(query, events, approaches=(CograApproach, SaseApproach, GretaApproach))


# -- skip-till-next-match and contiguous --------------------------------------------


class TestSinglePredecessorSemanticsAgainstOracle:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(events=streams(), semantics=st.sampled_from(["skip-till-next-match", "contiguous"]))
    def test_single_kleene(self, events, semantics):
        query = build_query(kleene_plus("A"), semantics, aggregates=ALL_AGGREGATES)
        assert_matches_oracle(query, events, approaches=(CograApproach, SaseApproach))

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(events=streams(), semantics=st.sampled_from(["skip-till-next-match", "contiguous"]))
    def test_running_example_pattern(self, events, semantics):
        query = build_query(KleenePlus(sequence(kleene_plus("A"), atom("B"))), semantics)
        assert_matches_oracle(query, events, approaches=(CograApproach, SaseApproach))

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(events=streams())
    def test_contiguous_with_adjacent_predicate(self, events):
        query = build_query(
            kleene_plus("A"),
            "contiguous",
            predicates=[comparison("A", "x", "<", "A")],
            aggregates=[count_star(), min_of("A", "x"), max_of("A", "x")],
        )
        assert_matches_oracle(query, events, approaches=(CograApproach, SaseApproach))

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(events=streams())
    def test_contiguous_with_grouping_and_windows(self, events):
        query = build_query(
            kleene_plus("A"), "contiguous", window=WindowSpec(5.0), group_by=("g",)
        )
        assert_matches_oracle(query, events)

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(events=streams(max_events=10, types="ABZ"))
    def test_semantics_containment_holds_for_counts(self, events):
        """COUNT under CONT <= NEXT <= ANY for the same pattern and stream."""
        counts = {}
        for semantics in ("contiguous", "skip-till-next-match", "skip-till-any-match"):
            query = build_query(KleenePlus(sequence(kleene_plus("A"), atom("B"))), semantics)
            results = CograEngine(query).run(events)
            counts[semantics] = sum(r.trend_count for r in results)
        assert counts["contiguous"] <= counts["skip-till-next-match"] <= counts["skip-till-any-match"]


# -- local predicates and equivalence -----------------------------------------------


class TestStreamPartitioningProperties:
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(events=streams())
    def test_local_predicate_filtering(self, events):
        query = (
            QueryBuilder()
            .pattern(kleene_plus("A"))
            .semantics("skip-till-any-match")
            .aggregate(count_star(), sum_of("A", "x"))
            .where_attribute_compare("A", "x", ">", 2)
            .build()
        )
        assert_matches_oracle(query, events)

    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(events=streams())
    def test_equivalence_partitioning(self, events):
        query = (
            QueryBuilder()
            .pattern(kleene_plus("A"))
            .semantics("skip-till-any-match")
            .aggregate(count_star())
            .where_equivalence("g")
            .build()
        )
        assert_matches_oracle(query, events)
