"""Tests for the negation extension (Section 8 of the paper)."""

import pytest

from differential import build_query, stream
from repro.analyzer.granularity import Granularity
from repro.baselines.trend_enumeration import TrendOracle
from repro.core.engine import CograEngine
from repro.errors import InvalidPatternError
from repro.events.event import Event
from repro.extensions.negation import (
    NegationEventGrainedAggregator,
    NegationPatternGrainedAggregator,
    NegationTypeGrainedAggregator,
    analyze_negations,
    create_negation_aggregator,
    plan_negated_query,
    positive_query,
    strip_negations,
    trend_respects_negations,
)
from repro.query.aggregates import count_star, sum_of
from repro.query.ast import (
    KleenePlus,
    Negation,
    atom,
    kleene_plus,
    sequence,
)
from repro.query.builder import QueryBuilder
from repro.query.parser import parse_query
from repro.query.predicates import comparison
from repro.query.semantics import Semantics
from repro.streaming.runtime import StreamingRuntime

NEGATED_SEQ = sequence(kleene_plus("A"), Negation(atom("C")), atom("B"))
NEGATED_KLEENE = KleenePlus(sequence(kleene_plus("A"), Negation(atom("C")), atom("B")))


def feed(aggregator, events):
    for event in events:
        aggregator.process(event)
    return aggregator


def oracle_count(query, events):
    """Trends the enumeration counts: positive trends, then the negation filter."""
    return TrendOracle(query).total_trend_count(events)


class TestAnalysis:
    def test_split_produces_positive_pattern_and_component(self):
        analysis = analyze_negations(NEGATED_SEQ)
        assert analysis.has_negations
        assert analysis.positive_pattern.variables() == ["A", "B"]
        component = analysis.components[0]
        assert component.event_type == "C"
        assert component.predecessor_variables == {"A"}
        assert component.follower_variables == {"B"}
        assert component.prefix_variables == {"A"}

    def test_negation_inside_kleene_plus_sequence(self):
        analysis = analyze_negations(NEGATED_KLEENE)
        assert analysis.positive_pattern.is_kleene
        assert analysis.components[0].predecessor_variables == {"A"}
        assert analysis.components[0].follower_variables == {"B"}

    def test_pattern_without_negation_is_unchanged(self):
        pattern = sequence(kleene_plus("A"), atom("B"))
        analysis = analyze_negations(pattern)
        assert not analysis.has_negations
        assert analysis.positive_pattern is pattern

    def test_strip_negations_requires_positive_neighbours(self):
        with pytest.raises(InvalidPatternError):
            analyze_negations(sequence(Negation(atom("C")), atom("B")))
        with pytest.raises(InvalidPatternError):
            analyze_negations(sequence(atom("A"), Negation(atom("C"))))

    def test_negation_outside_a_sequence_is_rejected(self):
        with pytest.raises(InvalidPatternError):
            analyze_negations(KleenePlus(Negation(atom("C"))))

    def test_negated_type_may_not_occur_positively(self):
        pattern = sequence(kleene_plus("A"), Negation(atom("A2", "N")), atom("B"))
        # alias the negated occurrence to the positive type name
        pattern = sequence(atom("A", "A"), Negation(atom("A", "N")), atom("B"))
        with pytest.raises(InvalidPatternError):
            analyze_negations(pattern)

    def test_only_atomic_negations_are_supported(self):
        pattern = sequence(atom("A"), Negation(sequence(atom("C"), atom("D"))), atom("B"))
        with pytest.raises(InvalidPatternError):
            analyze_negations(pattern)

    def test_strip_negations_on_plain_pattern_is_identity_like(self):
        pattern = sequence(kleene_plus("A"), atom("B"))
        assert strip_negations(pattern).variables() == ["A", "B"]

    def test_positive_query_preserves_clauses(self):
        query = build_query(NEGATED_SEQ, aggregates=[count_star(), sum_of("A", "value")])
        positive = positive_query(query)
        assert positive.aggregates == query.aggregates
        assert positive.semantics == query.semantics
        assert not positive.pattern.has_negation


class TestPlanning:
    def test_plan_uses_positive_pattern(self):
        plan, analysis = plan_negated_query(build_query(NEGATED_SEQ))
        assert set(plan.automaton.variables) == {"A", "B"}
        assert analysis.negated_types() == {"C"}
        assert plan.granularity is Granularity.TYPE

    def test_mixed_granularity_is_escalated_to_event(self):
        query = build_query(NEGATED_SEQ, predicates=[comparison("A", "value", "<", "A")])
        plan, _ = plan_negated_query(query)
        assert plan.granularity is Granularity.EVENT

    def test_factory_dispatch(self):
        plan, analysis = plan_negated_query(build_query(NEGATED_SEQ))
        aggregator = create_negation_aggregator(plan, analysis.components)
        assert isinstance(aggregator, NegationTypeGrainedAggregator)

        plan, analysis = plan_negated_query(build_query(NEGATED_SEQ, semantics="contiguous"))
        aggregator = create_negation_aggregator(plan, analysis.components)
        assert isinstance(aggregator, NegationPatternGrainedAggregator)

        query = build_query(NEGATED_SEQ, predicates=[comparison("A", "value", "<", "A")])
        plan, analysis = plan_negated_query(query)
        aggregator = create_negation_aggregator(plan, analysis.components)
        assert isinstance(aggregator, NegationEventGrainedAggregator)

    def test_factory_without_components_falls_back(self):
        query = build_query(sequence(kleene_plus("A"), atom("B")))
        plan, analysis = plan_negated_query(query)
        aggregator = create_negation_aggregator(plan, analysis.components)
        assert not isinstance(aggregator, NegationTypeGrainedAggregator)


class TestTypeGrainedNegation:
    def test_running_example_without_c_matches_plain_count(self, event_spec):
        # No C event in the stream: the negation never fires.
        stream = event_spec("a1 b2 a3 a4 b6 a7 b8")
        query = build_query(NEGATED_KLEENE)
        plan, analysis = plan_negated_query(query)
        aggregator = feed(NegationTypeGrainedAggregator(plan, analysis.components), stream)
        assert aggregator.final_accumulator().trend_count == 43

    def test_c_event_blocks_earlier_a_to_b_adjacency(self, event_spec):
        # Stream a1 c2 b3: the only candidate trend (a1, b3) crosses the C.
        stream = event_spec("a1 c2 b3")
        query = build_query(NEGATED_SEQ)
        plan, analysis = plan_negated_query(query)
        aggregator = feed(NegationTypeGrainedAggregator(plan, analysis.components), stream)
        assert aggregator.final_accumulator().trend_count == 0

    def test_a_after_c_reopens_the_boundary(self, event_spec):
        # a1 c2 a3 b4: (a3, b4) and (a1, a3, b4) are valid, (a1, b4) is not.
        stream = event_spec("a1 c2 a3 b4")
        query = build_query(NEGATED_SEQ)
        plan, analysis = plan_negated_query(query)
        aggregator = feed(NegationTypeGrainedAggregator(plan, analysis.components), stream)
        assert aggregator.final_accumulator().trend_count == 2
        assert aggregator.final_accumulator().trend_count == oracle_count(query, stream)

    @pytest.mark.parametrize(
        "spec",
        [
            "a1 b2 c3 a4 b5",
            "a1 a2 c3 b4 a5 b6",
            "c1 a2 b3",
            "a1 c2 c3 b4 a5 b6 c7 a8 b9",
        ],
    )
    def test_matches_enumeration_oracle(self, event_spec, spec):
        stream = event_spec(spec)
        query = build_query(NEGATED_KLEENE)
        plan, analysis = plan_negated_query(query)
        aggregator = feed(NegationTypeGrainedAggregator(plan, analysis.components), stream)
        assert aggregator.final_accumulator().trend_count == oracle_count(query, stream)

    def test_storage_counts_compatible_cells(self, event_spec):
        query = build_query(NEGATED_SEQ)
        plan, analysis = plan_negated_query(query)
        aggregator = NegationTypeGrainedAggregator(plan, analysis.components)
        # two full cells (A, B) plus one compatible cell for (component 0, A)
        assert aggregator.storage_units() == 3 * aggregator.final_accumulator().storage_units


class TestEventGrainedNegation:
    @pytest.mark.parametrize(
        "spec",
        [
            "a1=1 c2=0 b3=2",
            "a1=5 c2=0 a3=4 b4=9",
            "a1=2 a2=3 c3=0 b4=1 a5=6 b6=2",
        ],
    )
    def test_matches_enumeration_oracle_with_adjacent_predicate(self, event_spec, spec):
        stream = event_spec(spec)
        query = build_query(
            NEGATED_KLEENE, predicates=[comparison("A", "value", "<", "A")]
        )
        plan, analysis = plan_negated_query(query)
        aggregator = feed(NegationEventGrainedAggregator(plan, analysis.components), stream)

        assert aggregator.final_accumulator().trend_count == oracle_count(query, stream)

    def test_negated_events_are_not_stored(self, event_spec):
        stream = event_spec("a1 c2 a3 b4 c5")
        query = build_query(NEGATED_SEQ, predicates=[comparison("A", "value", "<", "A")])
        plan, analysis = plan_negated_query(query)
        aggregator = feed(NegationEventGrainedAggregator(plan, analysis.components), stream)
        assert aggregator.stored_event_count() == 3  # a1, a3, b4


class TestPatternGrainedNegation:
    def test_next_match_trip_is_invalidated_by_negated_event(self, event_spec):
        # SEQ(A, NOT C, B) under skip-till-next-match: a1 c2 b3 yields no trend,
        # a4 b5 yields one.
        pattern = sequence(atom("A"), Negation(atom("C")), atom("B"))
        query = build_query(pattern, semantics="skip-till-next-match")
        stream = event_spec("a1 c2 b3 a4 b5")
        plan, analysis = plan_negated_query(query)
        aggregator = feed(NegationPatternGrainedAggregator(plan, analysis.components), stream)
        assert aggregator.final_accumulator().trend_count == 1

    def test_contiguous_semantics_still_breaks_on_unrelated_events(self, event_spec):
        pattern = sequence(atom("A"), Negation(atom("C")), atom("B"))
        query = build_query(pattern, semantics="contiguous")
        # d2 breaks contiguity even though it is not the negated type
        stream = event_spec("a1 d2 b3 a4 b5")
        plan, analysis = plan_negated_query(query)
        aggregator = feed(NegationPatternGrainedAggregator(plan, analysis.components), stream)
        assert aggregator.final_accumulator().trend_count == 1

    def test_negated_event_after_finished_trend_is_harmless(self, event_spec):
        pattern = sequence(atom("A"), Negation(atom("C")), atom("B"))
        query = build_query(pattern, semantics="skip-till-next-match")
        stream = event_spec("a1 b2 c3")
        plan, analysis = plan_negated_query(query)
        aggregator = feed(NegationPatternGrainedAggregator(plan, analysis.components), stream)
        assert aggregator.final_accumulator().trend_count == 1


class TestEngineIntegration:
    def test_engine_routes_negated_queries(self, event_spec):
        query = build_query(NEGATED_SEQ)
        engine = CograEngine(query)
        assert engine.negation_analysis is not None
        assert "NOT C" in engine.explain()
        results = engine.run(event_spec("a1 c2 a3 b4"))
        assert sum(result.trend_count for result in results) == 2

    def test_engine_parses_not_in_textual_queries(self, event_spec):
        engine = CograEngine.from_text(
            """
            RETURN COUNT(*)
            PATTERN SEQ(A+, NOT C, B)
            SEMANTICS skip-till-any-match
            """
        )
        results = engine.run(event_spec("a1 c2 a3 b4"))
        assert sum(result.trend_count for result in results) == 2

    def test_engine_reset_keeps_negation_handling(self, event_spec):
        query = build_query(NEGATED_SEQ)
        engine = CograEngine(query)
        first = engine.run(event_spec("a1 c2 b3"))
        second = engine.run(event_spec("a1 b2"))
        assert sum(result.trend_count for result in first) == 0
        assert sum(result.trend_count for result in second) == 1

    def test_grouped_negation_only_affects_its_group(self):
        query = (
            QueryBuilder("grouped-negation")
            .pattern(NEGATED_SEQ)
            .semantics("skip-till-any-match")
            .aggregate(count_star())
            .group_by("key")
            .build()
        )
        stream = [
            Event("A", 1.0, {"key": "x"}),
            Event("A", 1.5, {"key": "y"}),
            Event("C", 2.0, {"key": "x"}),
            Event("B", 3.0, {"key": "x"}),
            Event("B", 3.5, {"key": "y"}),
        ]
        engine = CograEngine(query)
        results = {tuple(r.group.items()): r.trend_count for r in engine.run(stream)}
        # group x is blocked by its C event, group y is not
        assert results.get((("key", "y"),)) == 1
        assert (("key", "x"),) not in results


class TestOracleHelpers:
    def test_trend_respects_negations_detects_blocking_event(self, event_spec):
        stream = event_spec("a1 c2 b3")
        analysis = analyze_negations(NEGATED_SEQ)
        trend = ((0, "A"), (2, "B"))
        assert not trend_respects_negations(analysis.components, stream, trend)

    def test_trend_respects_negations_ignores_non_crossing_pairs(self, event_spec):
        stream = event_spec("a1 c2 a3 b4")
        analysis = analyze_negations(NEGATED_KLEENE)
        trend = ((0, "A"), (2, "A"), (3, "B"))
        assert trend_respects_negations(analysis.components, stream, trend)

    def test_empty_component_list_accepts_everything(self, event_spec):
        stream = event_spec("a1 b2")
        assert trend_respects_negations((), stream, ((0, "A"), (1, "B")))

    def test_next_match_drops_a_trend_continued_past_a_negated_event(self, event_spec):
        """``SEQ(A+, NOT C, B)`` over ``a1 a2 c3 a4 b5`` (README "Negation").

        Under skip-till-any-match only an ``A -> B`` edge crosses the
        negation, and ``a4 -> b5`` has no C between them.  Under
        skip-till-next-match Section 8's per-pattern rule applies: c3 sets
        the last matched event of ``A+`` -- a2 -- to null, so no trend
        continues from it.
        """
        stream = event_spec("a1 a2 c3 a4 b5")
        components = analyze_negations(NEGATED_SEQ).components
        spanning = ((0, "A"), (1, "A"), (3, "A"), (4, "B"))
        assert trend_respects_negations(components, stream, spanning)
        assert not trend_respects_negations(
            components, stream, spanning, Semantics.SKIP_TILL_NEXT_MATCH
        )
        for semantics, count in [("skip-till-any-match", 4), ("skip-till-next-match", 1)]:
            text = f"RETURN COUNT(*) PATTERN SEQ(A+, NOT C, B) SEMANTICS {semantics}"
            (trends,) = TrendOracle(parse_query(text)).trends_per_substream(stream).values()
            assert (spanning in trends) == (semantics == "skip-till-any-match")
            assert len(trends) == count
            assert sum(r.trend_count for r in CograEngine(text).run(stream)) == count


# ---------------------------------------------------------------------------
# every negation-aware class through the engine and the streaming runtime
# ---------------------------------------------------------------------------

#: (expected aggregator class, semantics, WHERE clause or None)
END_TO_END = [
    (NegationPatternGrainedAggregator, "skip-till-next-match", None),
    (NegationPatternGrainedAggregator, "contiguous", None),
    (NegationTypeGrainedAggregator, "skip-till-any-match", None),
    (NegationEventGrainedAggregator, "skip-till-any-match", "A.v < NEXT(A).v"),
]


def end_to_end_text(semantics, where):
    text = f"RETURN g, COUNT(*), SUM(A.v), MAX(B.v) PATTERN SEQ(A+, NOT C, B) SEMANTICS {semantics}"
    if where:
        text += f" WHERE {where}"
    return text + " GROUP-BY g"


class TestNegationEndToEnd:
    @pytest.mark.parametrize("expected_class, semantics, where", END_TO_END)
    @pytest.mark.parametrize("seed", range(6))
    def test_engine_and_runtime_match_the_filtered_enumeration(
        self, expected_class, semantics, where, seed
    ):
        text = end_to_end_text(semantics, where)
        events = stream(seed, 26, groups="xy")
        expected = {
            r.group["g"]: r.values for r in TrendOracle(parse_query(text)).run(events)
        }

        engine = CograEngine(text)
        results = engine.run(events)
        assert {r.group["g"]: r.values for r in results} == expected
        # run() leaves nothing open to inspect; feed a copy of the stream
        probe = CograEngine(text)
        for event in events:
            probe.process(event)
        assert {
            type(aggregator) for _w, _k, aggregator in probe.executor.open_aggregators()
        } == {expected_class}

        for size in (1, 7, len(events)):
            runtime = StreamingRuntime(lateness=0.0)
            runtime.register(text, name="q")
            records = []
            for start in range(0, len(events), size):
                records.extend(runtime.process_ordered(events[start:start + size]))
            records.extend(runtime.flush())
            assert {r.result.group["g"]: r.result.values for r in records} == expected, size

    @pytest.mark.parametrize("semantics, count", [
        ("skip-till-next-match", 2), ("contiguous", 2), ("skip-till-any-match", 12),
    ])
    def test_a_negated_event_inside_a_run_is_not_skipped(self, event_spec, semantics, count):
        """``a1 a2 c3 b4 a5 a6 b7``: no trend crosses c3 into b4."""
        text = f"RETURN COUNT(*) PATTERN SEQ(A+, NOT C, B) SEMANTICS {semantics}"
        stream = event_spec("a1 a2 c3 b4 a5 a6 b7")
        assert oracle_count(parse_query(text), stream) == count
        assert sum(r.trend_count for r in CograEngine(text).run(stream)) == count
        runtime = StreamingRuntime(lateness=0.0)
        runtime.register(text, name="q")
        records = runtime.process_ordered(stream) + runtime.flush()
        assert sum(r.result.trend_count for r in records) == count


class TestInvalidNegationIsRejectedBeforeAnyEvent:
    TEXT = "RETURN COUNT(*) PATTERN SEQ(A, NOT C, NOT D, B) SEMANTICS {} WITHIN 10 seconds"

    def test_an_edge_crossing_two_negations_under_any_match(self):
        """The per-type and per-event rules keep one state per edge."""
        text = self.TEXT.format("skip-till-any-match")
        message = "crosses more than one negation boundary"
        for granularity in (None, "event"):
            with pytest.raises(InvalidPatternError, match=message):
                CograEngine(text, granularity=granularity)
            with pytest.raises(InvalidPatternError, match=message):
                plan_negated_query(parse_query(text), forced_granularity=granularity)
        runtime = StreamingRuntime()
        with pytest.raises(InvalidPatternError, match=message):
            runtime.register(text, name="q")
        assert runtime.query_names == []

    @pytest.mark.parametrize("semantics", ["skip-till-next-match", "contiguous"])
    def test_the_per_pattern_rule_resets_on_either_type(self, event_spec, semantics):
        engine = CograEngine(self.TEXT.format(semantics))
        for stream, count in [("a1 b2", 1), ("a1 c2 b3", 0), ("a1 d2 b3", 0), ("a1 d2 a3 b4", 1)]:
            assert sum(r.trend_count for r in engine.run(event_spec(stream))) == count
