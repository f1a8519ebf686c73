"""Tests for the predicate classifier, granularity selector and query plan."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from differential import ADMITTED, HOSTILE, QUERIES, streams
from repro.analyzer.classifier import classify_predicates
from repro.analyzer.granularity import Granularity, granularity_table, split_variables
from repro.analyzer.automaton import PatternAutomaton
from repro.analyzer.plan import CograPlan, plan_query
from repro.errors import InvalidEventError, PlanningError
from repro.events.event import Event
from repro.query.aggregates import avg, count_star, min_of, sum_of
from repro.query.ast import KleenePlus, atom, kleene_plus, sequence
from repro.query.builder import QueryBuilder
from repro.query.parser import parse_query
from repro.query.predicates import AdjacentPredicate, comparison
from repro.query.semantics import Semantics
from repro.streaming.runtime import StreamingRuntime

FIGURE2 = KleenePlus(sequence(kleene_plus("A"), atom("B")))


def build(semantics="skip-till-any-match", pattern=FIGURE2, predicates=(), group_by=(), aggregates=None):
    builder = QueryBuilder().pattern(pattern).semantics(semantics)
    for spec in aggregates or [count_star()]:
        builder.aggregate(spec)
    for predicate in predicates:
        builder.where(predicate)
    if group_by:
        builder.group_by(*group_by)
    return builder.build()


class TestPredicateClassifier:
    def test_q1_classification(self):
        query = parse_query(
            """
            RETURN patient, MIN(M.rate) PATTERN Measurement M+ SEMANTICS contiguous
            WHERE [patient] AND M.rate < NEXT(M).rate AND M.activity = passive
            GROUP-BY patient WITHIN 10 minutes SLIDE 30 seconds
            """
        )
        classification = classify_predicates(query)
        assert len(classification.local_predicates) == 1
        assert classification.partition_attributes == ("patient",)
        assert len(classification.adjacent_predicates) == 1
        assert classification.has_adjacent_predicates
        assert classification.adjacent_between("M", "M")
        assert not classification.adjacent_between("M", "X")

    def test_variable_scoped_equivalence_becomes_adjacency(self):
        query = build(
            pattern=sequence(kleene_plus("Stock", "A"), kleene_plus("Stock", "B")),
            predicates=[],
        )
        query = (
            QueryBuilder()
            .pattern(sequence(kleene_plus("Stock", "A"), kleene_plus("Stock", "B")))
            .aggregate(count_star())
            .where_equivalence("company", "A")
            .build()
        )
        classification = classify_predicates(query)
        adjacency = classification.adjacent_between("A", "A")
        assert len(adjacency) == 1
        same = (Event("Stock", 1, {"company": 1}), Event("Stock", 2, {"company": 1}))
        different = (Event("Stock", 1, {"company": 1}), Event("Stock", 2, {"company": 2}))
        assert adjacency[0].evaluate(*same)
        assert not adjacency[0].evaluate(*different)

    def test_local_for_merges_global_and_variable_predicates(self):
        query = (
            QueryBuilder()
            .pattern(kleene_plus("A"))
            .aggregate(count_star())
            .where_local(None, lambda e: e.get("x", 0) > 0, "x positive")
            .where_local("A", lambda e: e.get("y", 0) > 0, "y positive")
            .build()
        )
        classification = classify_predicates(query)
        assert len(classification.local_for("A")) == 2

    def test_describe_lists_every_class(self):
        query = parse_query(
            "RETURN COUNT(*) PATTERN A+ WHERE [g] AND A.x = 1 AND A.x < NEXT(A).x"
        )
        text = classify_predicates(query).describe()
        assert "local" in text and "partition" in text and "adjacent" in text


class TestGranularitySelection:
    """Table 4 of the paper."""

    def test_any_without_adjacent_predicates_is_type_grained(self):
        plan = plan_query(build("skip-till-any-match"))
        assert plan.granularity is Granularity.TYPE

    def test_any_with_adjacent_predicates_is_mixed_grained(self):
        plan = plan_query(build("skip-till-any-match", predicates=[comparison("B", "x", "<", "A")]))
        assert plan.granularity is Granularity.MIXED
        assert plan.event_grained == {"B"}
        assert plan.type_grained == {"A"}

    def test_next_and_cont_are_pattern_grained_even_with_predicates(self):
        for semantics in ("skip-till-next-match", "contiguous"):
            plan = plan_query(build(semantics, predicates=[comparison("A", "x", "<", "A")]))
            assert plan.granularity is Granularity.PATTERN

    def test_all_variables_constrained_degrades_to_event_grained(self):
        predicates = [comparison("A", "x", "<", "A"), comparison("B", "x", "<", "A"),
                      comparison("A", "x", "<", "B")]
        plan = plan_query(build("skip-till-any-match", predicates=predicates))
        assert plan.granularity is Granularity.EVENT
        assert plan.type_grained == frozenset()

    def test_vacuous_adjacent_predicate_keeps_type_granularity(self):
        # B can never precede B in (SEQ(A+,B))+, so the predicate never applies
        plan = plan_query(build("skip-till-any-match", predicates=[comparison("B", "x", "<", "B")]))
        assert plan.granularity is Granularity.TYPE

    def test_split_variables_theorem_5_1(self):
        query = build("skip-till-any-match", predicates=[comparison("A", "x", "<", "B")])
        automaton = PatternAutomaton(query.pattern)
        type_grained, event_grained = split_variables(automaton, classify_predicates(query))
        assert event_grained == {"A"}
        assert type_grained == {"B"}

    def test_granularity_table_matches_paper(self):
        table = granularity_table()
        assert table[("ANY", False)] == "type"
        assert table[("ANY", True)] == "mixed"
        assert table[("NEXT", False)] == "pattern"
        assert table[("NEXT", True)] == "pattern"
        assert table[("CONT", False)] == "pattern"
        assert table[("CONT", True)] == "pattern"

    def test_keeps_events_flag(self):
        assert Granularity.MIXED.keeps_events
        assert Granularity.EVENT.keeps_events
        assert not Granularity.TYPE.keeps_events
        assert not Granularity.PATTERN.keeps_events


class TestCograPlan:
    def test_targets_derived_from_aggregates(self):
        query = build(aggregates=[count_star(), min_of("A", "x"), avg("B", "y")])
        plan = plan_query(query)
        assert ("A", "x") in plan.targets
        assert ("B", "y") in plan.targets

    def test_candidate_variables_respect_local_predicates(self):
        query = (
            QueryBuilder()
            .pattern(kleene_plus("Measurement", "M"))
            .aggregate(count_star())
            .where_attribute_equals("M", "activity", "passive")
            .build()
        )
        plan = plan_query(query)
        passive = Event("Measurement", 1.0, {"activity": "passive"})
        active = Event("Measurement", 2.0, {"activity": "running"})
        other = Event("Other", 3.0)
        assert plan.candidate_variables(passive) == ("M",)
        assert plan.candidate_variables(active) == ()
        assert plan.candidate_variables(other) == ()

    def test_candidate_variables_multi_occurrence(self):
        query = build(pattern=sequence(kleene_plus("Stock", "A"), kleene_plus("Stock", "B")))
        plan = plan_query(query)
        assert plan.candidate_variables(Event("Stock", 1.0)) == ("A", "B")

    def test_adjacency_requires_pred_type_time_and_predicates(self):
        query = build(predicates=[comparison("A", "x", "<", "A")])
        plan = plan_query(query)
        early = Event("A", 1.0, {"x": 1})
        late = Event("A", 2.0, {"x": 5})
        assert plan.adjacency_satisfied(early, "A", late, "A")
        assert not plan.adjacency_satisfied(late, "A", early, "A")  # time order
        assert not plan.adjacency_satisfied(early, "B", late, "B")  # B cannot precede B
        decreasing = Event("A", 3.0, {"x": 0})
        assert not plan.adjacency_satisfied(late, "A", decreasing, "A")  # predicate

    def test_partition_key_uses_group_by_and_equivalence(self):
        query = (
            QueryBuilder()
            .pattern(kleene_plus("A"))
            .aggregate(count_star())
            .group_by("region")
            .where_equivalence("customer")
            .build()
        )
        plan = plan_query(query)
        event = Event("A", 1.0, {"region": "eu", "customer": 42})
        assert plan.partition_attributes == ("region", "customer")
        assert plan.partition_key(event) == ("eu", 42)

    def test_is_start_is_end(self):
        plan = plan_query(build())
        assert plan.is_start("A") and not plan.is_start("B")
        assert plan.is_end("B") and not plan.is_end("A")

    def test_describe_contains_granularity_and_pattern(self):
        plan = plan_query(build())
        text = plan.describe()
        assert "granularity : type" in text
        assert "predTypes(A)" in text

    def test_semantics_property(self):
        assert plan_query(build("contiguous")).semantics is Semantics.CONTIGUOUS

    def test_sum_target(self):
        plan = plan_query(build(aggregates=[sum_of("A", "x")]))
        assert ("A", "x") in plan.targets


ANY_QUERY = (
    "RETURN g, COUNT(*), MAX(A.v) PATTERN SEQ(A+, B) SEMANTICS skip-till-any-match "
    "GROUP-BY g WITHIN 20 seconds SLIDE 10 seconds"
)
#: skip-till-next: only pattern granularity is correct
NEXT_QUERY = ANY_QUERY.replace("skip-till-any-match", "skip-till-next-match")
#: adjacent predicate: type granularity is ruled out
ADJACENT_QUERY = ANY_QUERY.replace("GROUP-BY", "WHERE A.v < NEXT(A).v GROUP-BY")
NEGATED_QUERY = ANY_QUERY.replace("SEQ(A+, B)", "SEQ(A+, NOT C, B)")


class TestForcedGranularityValidation:
    """A forced granularity is checked when the plan is built, not at the
    first event."""

    def test_unknown_granularity_string_is_a_planning_error(self):
        with pytest.raises(PlanningError, match="unknown granularity"):
            plan_query(parse_query(ANY_QUERY), forced_granularity="bogus")

    def test_disallowed_granularity_is_rejected_eagerly(self):
        query = parse_query(NEXT_QUERY)
        with pytest.raises(PlanningError, match="not correct"):
            CograPlan(query, forced_granularity=Granularity.EVENT)
        with pytest.raises(PlanningError, match="allowed"):
            plan_query(query, forced_granularity="type")

    def test_adjacent_predicates_reject_type_granularity(self):
        with pytest.raises(PlanningError, match="adjacent"):
            plan_query(parse_query(ADJACENT_QUERY), forced_granularity="type")

    def test_negated_query_rejects_forced_mixed(self):
        for forced in (Granularity.MIXED, "mixed"):
            with pytest.raises(PlanningError, match="force 'event' instead"):
                plan_query(parse_query(NEGATED_QUERY), forced_granularity=forced)

    def test_register_validates_before_any_event(self):
        runtime = StreamingRuntime(lateness=0.0)
        with pytest.raises(PlanningError, match="unknown granularity"):
            runtime.register(ANY_QUERY, name="q", granularity="bogus")
        with pytest.raises(PlanningError, match="not correct"):
            runtime.register(NEXT_QUERY, name="q", granularity="event")

    def test_negated_queries_never_accept_mixed(self):
        plan = plan_query(parse_query(NEGATED_QUERY))
        assert plan.granularity is Granularity.TYPE
        assert plan.accepted_granularities == (Granularity.TYPE, Granularity.EVENT)


class TestCatalogueGranularities:
    """Every catalogue query's static plan is its coarsest admitted
    granularity; forcing one is accepted exactly where it is admitted."""

    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_the_static_plan_is_the_coarsest_admitted(self, name):
        plan = plan_query(parse_query(QUERIES[name]))
        assert plan.granularity.value == ADMITTED[name][0]
        assert tuple(g.value for g in plan.accepted_granularities) == ADMITTED[name]

    @pytest.mark.parametrize(
        "name, granularity",
        [(name, granularity.value) for name in sorted(QUERIES) for granularity in Granularity],
    )
    def test_forcing_is_accepted_exactly_where_admitted(self, name, granularity):
        query = parse_query(QUERIES[name])
        runtime = StreamingRuntime(lateness=0.0)
        if granularity in ADMITTED[name]:
            plan = plan_query(query, forced_granularity=granularity)
            assert plan.granularity.value == granularity
            assert plan.accepted_granularities == plan_query(query).accepted_granularities
            runtime.register(QUERIES[name], name="q", granularity=granularity)
            assert runtime.checkpoint()["queries"][0]["granularity"] == granularity
        else:
            with pytest.raises(PlanningError):
                plan_query(query, forced_granularity=granularity)
            with pytest.raises(PlanningError):
                runtime.register(QUERIES[name], name="q", granularity=granularity)
            assert runtime.checkpoint()["queries"] == []


#: queries whose events the grouper binds every way it can: inline, by a
#: constant binding or through ``bind`` (local predicates, repeated types)
GROUPED = [
    "RETURN g, COUNT(*), SUM(A.x), MAX(B.x), AVG(A.x) PATTERN SEQ(A+, B) "
    "SEMANTICS skip-till-any-match GROUP-BY g",
    "RETURN COUNT(*), COUNT(A) PATTERN SEQ(A+, B) SEMANTICS contiguous",
    "RETURN g, COUNT(*), MIN(B.x) PATTERN SEQ(A+, B) SEMANTICS skip-till-next-match "
    "WHERE A.x > 1 AND [g] GROUP-BY g",
    "RETURN COUNT(*), SUM(X.x), MIN(Y.x) PATTERN SEQ(A X+, B, A Y) "
    "SEMANTICS skip-till-any-match",
    "RETURN g, COUNT(*) PATTERN SEQ(A X+, A Y) SEMANTICS skip-till-any-match "
    "WHERE Y.x < 4 GROUP-BY g",
    QueryBuilder(HOSTILE)
    .pattern(sequence(kleene_plus(HOSTILE, HOSTILE), atom("B")))
    .aggregate(count_star(), sum_of(HOSTILE, HOSTILE), min_of("B", HOSTILE))
    .group_by(HOSTILE)
    .build(),
]


def bound_by_key(plan, events):
    """``plan.group(events)`` spelled out: :meth:`bind` and the key per event."""
    grouped = {}
    for event in events:
        binding = plan.bind(event)
        if binding is not None:
            key = tuple(event.get(attribute) for attribute in plan.partition_attributes)
            grouped.setdefault(key, []).append((event, binding))
    return grouped


class TestGeneratedGrouper:
    @pytest.mark.parametrize("query", GROUPED, ids=repr)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_group_equals_bind_and_key_per_event(self, query, data):
        hostile = not isinstance(query, str)
        plan = plan_query(query if hostile else parse_query(query))
        attribute = HOSTILE if hostile else "x"
        # Z is a type the pattern does not mention; a None draw leaves the
        # attribute out
        events = data.draw(
            streams(
                max_events=30,
                types=("A", "A", "B", "Z", HOSTILE),
                attribute=attribute,
                values=st.none() | st.integers(min_value=0, max_value=5),
            )
        )
        expected = bound_by_key(plan, events)
        grouped = plan.group(events)
        assert grouped == expected
        assert list(grouped) == list(expected)
        for event in events:
            key = tuple(event.get(name) for name in plan.partition_attributes)
            assert plan.partition_key(event) == key

    @pytest.mark.parametrize(
        "query, event_type, variable",
        [
            (GROUPED[0], "A", "A"),  # bound inline
            (GROUPED[0], "B", "B"),
            (GROUPED[3], "A", "X"),  # bound to X and Y by ``bind``
        ],
    )
    def test_group_and_bind_reject_a_value_that_is_no_number_alike(
        self, query, event_type, variable
    ):
        plan = plan_query(parse_query(query, name="q"))
        event = Event(event_type, 1.0, {"g": 0, "x": "3"})
        message = rf"query 'q': {variable}\.x of the event at time 1\.0 is '3', not a number"
        with pytest.raises(InvalidEventError, match=message):
            plan.bind(event)
        with pytest.raises(InvalidEventError, match=message):
            plan.group([Event("A", 0.5, {"g": 0, "x": 1}), event])

    def test_describe_marks_each_edge_predicate_inline_or_called(self):
        query = (
            QueryBuilder("edges")
            .pattern(sequence(kleene_plus("A"), atom("B")))
            .aggregate(count_star())
            .where_adjacent(comparison("A", "x", "<", "A"))
            .where_adjacent(AdjacentPredicate("A", "A", lambda p, s: True, "opaque"))
            .build()
        )
        table = plan_query(query).describe().splitlines()
        start = table.index("edges       : edge    predicates")
        assert table[start + 1 : start + 3] == [
            " " * 14 + "A -> A  A.x < NEXT(A).x (inline); opaque (called)",
            " " * 14 + "A -> B  -",
        ]
