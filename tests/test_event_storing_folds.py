"""Differential tests for the in-place kernels of the event-storing aggregators.

The production ``process_run`` of the pattern-, mixed- and event-grained
aggregators and of their negation-aware counterparts builds at most one
accumulator per stored event and folds everything else in place.  The
oracles are the literal recurrences kept in ``tests/helpers.py``; after
every run both aggregators must serialise to the same checkpoint state --
equal trend counts, occurrence counts, float sums bit for bit, extrema,
stored events, cut-offs.  One ``process_run(run, also)`` call fans a run out
to a group's aggregators in several windows; it must leave each of them as a
call of its own would.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from differential import slices, streams
from helpers import (
    reference_event_grained_process,
    reference_mixed_grained_process,
    reference_negation_event_grained_process,
    reference_negation_type_grained_process,
    reference_pattern_grained_process,
)
from repro.analyzer.granularity import Granularity
from repro.analyzer.plan import plan_query
from repro.core.base import aggregator_class, create_aggregator
from repro.core.engine import CograEngine
from repro.core.event_grained import EventGrainedAggregator
from repro.core.mixed_grained import MixedGrainedAggregator
from repro.core.pattern_grained import PatternGrainedAggregator
from repro.events.event import Event
from repro.extensions.negation import (
    NegationEventGrainedAggregator,
    NegationPatternGrainedAggregator,
    NegationTypeGrainedAggregator,
    create_negation_aggregator,
    plan_negated_query,
)
from repro.query.parser import parse_query
from repro.query.predicates import AdjacentPredicate
from repro.query.query import Query
from repro.streaming.checkpoint import restore_aggregator_state, snapshot_aggregator

ANY = "skip-till-any-match"
NEXT = "skip-till-next-match"
CONTIGUOUS = "contiguous"


def opaque(predecessor_variable, successor_variable):
    """An adjacent predicate that is a bare callable, truthy rather than bool.

    Keeps a pair whose values differ by a non-multiple of three; yields
    ``None`` (false) when either side carries no value.
    """

    def condition(predecessor, successor):
        left, right = predecessor.get("v"), successor.get("v")
        if left is None or right is None:
            return None
        return int(right - left) % 3

    return AdjacentPredicate(predecessor_variable, successor_variable, condition)


class Shape:
    """One query and the class it must plan to."""

    def __init__(self, expected, pattern, returns, semantics=ANY, where=None,
                 forced=None, extra=()):
        self.expected = expected
        self.text = f"RETURN {returns} PATTERN {pattern} SEMANTICS {semantics}"
        if where:
            self.text += f" WHERE {where}"
        self.forced = forced
        self.extra = tuple(extra)

    def __repr__(self):
        return f"{self.expected.__name__}: {self.text}"

    def build(self):
        """``(plan, make, reference)``: a fresh aggregator per ``make()`` call,
        ``reference(aggregator, event)`` the literal recurrence on one."""
        query = parse_query(self.text)
        if self.extra:
            query = Query(
                pattern=query.pattern,
                semantics=query.semantics,
                aggregates=query.aggregates,
                predicates=tuple(query.predicates) + self.extra,
            )
        if query.pattern.has_negation:
            plan, analysis = plan_negated_query(query, forced_granularity=self.forced)
            components = analysis.components

            def make():
                return create_negation_aggregator(plan, analysis.tables)

            literal = {
                NegationPatternGrainedAggregator: reference_pattern_grained_process,
                NegationTypeGrainedAggregator: reference_negation_type_grained_process,
                NegationEventGrainedAggregator: reference_negation_event_grained_process,
            }[self.expected]

            def reference(aggregator, event):
                literal(aggregator, event, components)

        else:
            plan = plan_query(query, forced_granularity=self.forced)

            def make():
                return create_aggregator(plan)

            reference = {
                PatternGrainedAggregator: reference_pattern_grained_process,
                MixedGrainedAggregator: reference_mixed_grained_process,
                EventGrainedAggregator: reference_event_grained_process,
            }[self.expected]
        assert type(make()) is self.expected

        def filtered(aggregator, event):
            # the recurrences ask ``candidate_variables``, which cannot tell an
            # event the local predicates reject from one of a foreign type;
            # the sub-stream holds no such event (Section 7)
            if plan.bind(event) is not None:
                reference(aggregator, event)

        return plan, make, filtered


ALL = "COUNT(*), COUNT(A), SUM(A.v), AVG(A.v), MIN(A.v), MAX(A.v)"
INCREASING = "A.v < NEXT(A).v"

SHAPES = [
    # -- event-grained: natural (every variable precedes an adjacent predicate)
    # and forced (GRETA's strategy on a type-grained query)
    Shape(EventGrainedAggregator, "A+", ALL, where=INCREASING),
    Shape(EventGrainedAggregator, "A+", "COUNT(*)", where=INCREASING),
    Shape(EventGrainedAggregator, "SEQ(A+, B)", "COUNT(*), SUM(A.v), MIN(B.v)", forced="event"),
    Shape(EventGrainedAggregator, "(SEQ(A+, B))+", "COUNT(*), AVG(A.v), MAX(B.v)",
          where="A.v < NEXT(A).v AND B.v <= NEXT(A).v AND A.v != NEXT(B).v"),
    Shape(EventGrainedAggregator, "A+", ALL, extra=[opaque("A", "A")]),
    # repeated type: every A event binds to X and to Y (Section 8)
    Shape(EventGrainedAggregator, "SEQ(A X+, A Y+)", "COUNT(*), SUM(X.v), AVG(Y.v), MAX(Y.v)",
          forced="event"),
    Shape(EventGrainedAggregator, "SEQ(A X+, A Y)", "COUNT(*), SUM(X.v), MIN(Y.v)",
          where="X.v < NEXT(X).v AND X.v < NEXT(Y).v AND Y.v > 0", forced="event"),
    # local predicates decide the candidate variables per event
    Shape(EventGrainedAggregator, "SEQ(A+, B)", "COUNT(*), SUM(A.v)", where="A.v > 0",
          forced="event"),
    # operators no other shape uses (the scans compare them inline)
    Shape(EventGrainedAggregator, "(SEQ(A+, B))+", "COUNT(*), SUM(B.v), MAX(A.v)",
          where="A.v <> NEXT(B).v AND B.v == NEXT(A).v AND A.v > NEXT(A).v"),
    # no event carries w: a comparison with the predecessor's side missing
    # is false, even != (the B -> A edge admits no pair)
    Shape(EventGrainedAggregator, "(SEQ(A+, B))+", "COUNT(*), SUM(A.v), MAX(B.v)",
          where="A.v < NEXT(A).v AND B.w != NEXT(A).v"),
    # a parsed comparison and a builder callable on one edge, in that order
    Shape(EventGrainedAggregator, "A+", ALL, where=INCREASING, extra=[opaque("A", "A")]),
    # -- mixed-grained: Te variables store events, Tt variables fold in place
    Shape(MixedGrainedAggregator, "SEQ(A+, B)", "COUNT(*), SUM(A.v), MAX(B.v)", where=INCREASING),
    Shape(MixedGrainedAggregator, "SEQ(A+, B)", "COUNT(*)", where=INCREASING),
    Shape(MixedGrainedAggregator, "(SEQ(A+, B))+", "COUNT(*), AVG(A.v), SUM(B.v), MIN(B.v)",
          where=INCREASING),
    Shape(MixedGrainedAggregator, "(SEQ(A+, B))+", "COUNT(*), SUM(A.v), MAX(B.v)",
          where="B.v < NEXT(A).v AND A.v > 0"),
    Shape(MixedGrainedAggregator, "SEQ(A+, B+, C)", "COUNT(*), SUM(B.v), MIN(A.v), AVG(C.v)",
          extra=[opaque("A", "B")]),
    # the two operators left
    Shape(MixedGrainedAggregator, "SEQ(A+, B)", "COUNT(*), SUM(A.v), MIN(B.v)",
          where="A.v >= NEXT(A).v AND A.v = NEXT(B).v"),
    # the same with the successor's side missing (B -> B admits no pair)
    Shape(MixedGrainedAggregator, "SEQ(A+, B+, C)", "COUNT(*), SUM(B.v), MIN(C.v)",
          where="B.v != NEXT(B).w"),
    # one event ends in a Tt cell and in a stored node, either way round
    Shape(MixedGrainedAggregator, "SEQ(A X+, A Y+)", "COUNT(*), SUM(X.v), AVG(Y.v), MIN(X.v)",
          where="Y.v < NEXT(Y).v"),
    Shape(MixedGrainedAggregator, "SEQ(A X+, A Y+)", "COUNT(*), SUM(Y.v), MAX(X.v)",
          where="X.v < NEXT(X).v"),
    Shape(MixedGrainedAggregator, "(SEQ(A X+, B, A Y+))+", "COUNT(*), SUM(X.v), SUM(Y.v)",
          where="Y.v < NEXT(X).v"),
    # -- pattern-grained
    Shape(PatternGrainedAggregator, "(SEQ(A+, B))+", ALL, NEXT),
    Shape(PatternGrainedAggregator, "(SEQ(A+, B))+", "COUNT(*), SUM(A.v), MAX(B.v)", CONTIGUOUS),
    Shape(PatternGrainedAggregator, "A+", ALL, NEXT, where=INCREASING),
    Shape(PatternGrainedAggregator, "A+", ALL, CONTIGUOUS, where=INCREASING),
    Shape(PatternGrainedAggregator, "SEQ(A+, B+, C)", "COUNT(*), AVG(B.v), MIN(C.v)", NEXT,
          extra=[opaque("A", "B")]),
    Shape(PatternGrainedAggregator, "SEQ(A+, B)", "COUNT(*), SUM(A.v)", CONTIGUOUS,
          where="A.v > 0"),
    Shape(PatternGrainedAggregator, "SEQ(A X+, A Y)", "COUNT(*), SUM(X.v), MAX(Y.v)", NEXT),
    # -- negation x {pattern, type, event}
    Shape(NegationPatternGrainedAggregator, "SEQ(A+, NOT C, B)", "COUNT(*), SUM(A.v), MIN(B.v)",
          NEXT),
    Shape(NegationPatternGrainedAggregator, "SEQ(A+, NOT C, B)", "COUNT(*), SUM(A.v), MIN(B.v)",
          CONTIGUOUS),
    Shape(NegationPatternGrainedAggregator, "SEQ(A+, NOT D, B+, NOT C, A X)",
          "COUNT(*), AVG(B.v), MAX(X.v)", NEXT),
    Shape(NegationTypeGrainedAggregator, "SEQ(A+, NOT C, B)", "COUNT(*), SUM(A.v), MAX(B.v)"),
    Shape(NegationTypeGrainedAggregator, "(SEQ(A+, NOT C, B))+", ALL),
    Shape(NegationTypeGrainedAggregator, "SEQ(A+, NOT D, B+, NOT C, A X)",
          "COUNT(*), AVG(B.v), MAX(X.v), SUM(A.v)"),
    # the event that feeds a compatible cell also reads it
    Shape(NegationTypeGrainedAggregator, "SEQ(A X+, NOT C, A Y+)",
          "COUNT(*), SUM(X.v), AVG(Y.v), MIN(Y.v)"),
    Shape(NegationEventGrainedAggregator, "SEQ(A+, NOT C, B)", "COUNT(*), SUM(A.v), MAX(B.v)",
          where=INCREASING),
    Shape(NegationEventGrainedAggregator, "(SEQ(A+, NOT C, B))+", ALL, forced="event"),
    Shape(NegationEventGrainedAggregator, "SEQ(A X+, NOT C, A Y+)",
          "COUNT(*), SUM(X.v), AVG(Y.v)", where="X.v < NEXT(X).v"),
]

INTEGERS = st.integers(min_value=-50, max_value=50)
FLOATS = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False) | st.sampled_from(
    [0.1, 0.2, 0.3, -0.0, 1e-9, 1e15 + 0.5]
)


def state_of(aggregator):
    return json.dumps(snapshot_aggregator(aggregator))


def events_of(rows):
    """Events of ``(type, value or None, tie)`` rows in arrival order."""
    events = []
    for index, (event_type, v, tie) in enumerate(rows):
        time, sequence = float(index), index
        if tie and events:
            # same timestamp *and* same sequence as the event before: neither
            # of the two precedes the other
            time, sequence = events[-1].time, events[-1].sequence
        events.append(
            Event(event_type, time, {} if v is None else {"v": v}, sequence=sequence)
        )
    return events


#: Z is a type no pattern mentions; C and D are negated in some shapes
TYPES = "AAABBCDZ"


#: a value, or none at all: such an event counts but does not aggregate
VALUES = st.none() | INTEGERS | FLOATS
#: the slice sizes a stream is folded in, cyclically
CUTS = st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=6)
STREAMS = streams(
    max_events=40, types=TYPES, attribute="v", values=VALUES, groups=(), ties=True
)


def seeded_stream(seed, count=150):
    """A long stream no shrinker chose: every type recurs, ties are rare."""
    rng = random.Random(seed)
    draw_value = [
        lambda: rng.randint(-50, 50),
        lambda: rng.choice([rng.uniform(-1e6, 1e6), 0.1, 0.2, 0.3, -0.0, 1e15 + 0.5]),
    ][seed % 2]
    rows = [
        (rng.choice(TYPES), None if rng.random() < 0.1 else draw_value(), rng.random() < 0.05)
        for _ in range(count)
    ]
    return events_of(rows), [rng.randint(1, 7) for _ in range(5)]


def bound(plan, events):
    """What the executor hands an aggregator: events the plan does not filter."""
    run = []
    for event in events:
        binding = plan.bind(event)
        if binding is not None:
            run.append((event, binding))
    return run


def check_every_run(shape, events, cuts):
    """``process_run`` by runs and ``process`` by events against the recurrence."""
    plan, make, reference = shape.build()
    folded, one_by_one, oracle = make(), make(), make()
    for run in slices(events, cuts):
        folded.process_run(bound(plan, run))
        for event in run:
            one_by_one.process(event)
            reference(oracle, event)
        assert state_of(folded) == state_of(oracle)
        assert state_of(one_by_one) == state_of(oracle)
        assert folded.events_processed == oracle.events_processed
        assert folded.storage_units() == oracle.storage_units()
        assert folded.stored_event_count() == oracle.stored_event_count()
    assert folded.results() == oracle.results()


class TestKernelsMatchTheLiteralRecurrences:
    @pytest.mark.parametrize("shape", SHAPES, ids=repr)
    @settings(max_examples=30, deadline=None)
    @given(events=STREAMS, cuts=CUTS)
    def test_state_equal_after_every_run(self, shape, events, cuts):
        check_every_run(shape, events, cuts)

    @pytest.mark.parametrize("shape", SHAPES, ids=repr)
    def test_state_equal_along_a_long_stream(self, shape):
        for seed in (1, 2):
            check_every_run(shape, *seeded_stream(seed))

    @pytest.mark.parametrize("shape", SHAPES, ids=repr)
    def test_sum_saturates_like_the_recurrence_when_the_count_outgrows_floats(self, shape):
        """Past 2**1024 trends the multiplicity no longer converts to a float."""
        plan, make, reference = shape.build()
        rng = random.Random(3)
        rows = [(rng.choice("AAABBCD"), rng.uniform(0.5, 5.0)) for _ in range(60)]
        # whatever the shape, the seed ends in trends that A, A, B extend
        rows[29:33] = [("A", 5.0), ("A", 5.1), ("A", 5.2), ("B", 9.5)]
        events = [
            Event(event_type, float(index), {"v": v}, sequence=index)
            for index, (event_type, v) in enumerate(rows)
        ]
        seeded = make()
        seeded.process_run(bound(plan, events[:30]))
        state = json.loads(state_of(seeded))
        grown = _scale_trend_counts(state, 2 ** 1100)
        assert grown, "the seed stream must leave trends to scale"
        folded, oracle = make(), make()
        restore_aggregator_state(folded, json.loads(json.dumps(state)))
        restore_aggregator_state(oracle, json.loads(json.dumps(state)))
        saturated = False
        for event in events[30:]:
            folded.process_run(bound(plan, [event]))
            reference(oracle, event)
            assert state_of(folded) == state_of(oracle)
            saturated = saturated or "Infinity" in state_of(folded)
        if any(attribute for _variable, attribute in plan.targets):
            assert saturated


def _scale_trend_counts(state, factor):
    """Multiply every accumulator's trend count in a snapshot; how many grew."""
    grown = 0
    if isinstance(state, dict):
        if "trend_count" in state and "states" in state:
            if state["trend_count"]:
                state["trend_count"] *= factor
                grown += 1
            return grown
        state = list(state.values())
    if isinstance(state, list):
        for item in state:
            grown += _scale_trend_counts(item, factor)
    return grown


def window_aggregators(plan, make, reference, history, starts):
    """Per start offset, three aggregators that saw ``history[start:]``.

    Like one group's aggregators in overlapping windows: same class, each
    opened at a different point of the stream.  Returns the aggregators to
    fan a run out to, those to fold it into one by one, and the oracles.
    """
    fanned, separate, oracles = [], [], []
    for start in starts:
        suffix = history[start:]
        for group in (fanned, separate):
            aggregator = make()
            aggregator.process_run(bound(plan, suffix))
            group.append(aggregator)
        oracle = make()
        for event in suffix:
            reference(oracle, event)
        oracles.append(oracle)
    return fanned, separate, oracles


def check_fanned(shape, events, cuts, cut, starts):
    """One fanned call against one call per window and the literal recurrence.

    The windows opened at ``starts`` and saw ``events[:cut]`` from there on.
    """
    plan, make, reference = shape.build()
    history, rest = events[:cut], events[cut:]
    fanned, separate, oracles = window_aggregators(plan, make, reference, history, starts)
    for run in slices(rest, cuts):
        bound_run = bound(plan, run)
        fanned[0].process_run(bound_run, fanned[1:])
        for aggregator in separate:
            aggregator.process_run(bound_run, ())
        for oracle in oracles:
            for event in run:
                reference(oracle, event)
        for together, alone, oracle in zip(fanned, separate, oracles):
            assert state_of(together) == state_of(alone) == state_of(oracle)
            assert together.events_processed == oracle.events_processed
    for together, oracle in zip(fanned, oracles):
        assert together.results() == oracle.results()


class TestFannedRunEqualsOneFoldPerWindow:
    @pytest.mark.parametrize("shape", SHAPES, ids=repr)
    @settings(max_examples=20, deadline=None)
    @given(
        events=STREAMS,
        cuts=CUTS,
        offsets=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=6),
        history_share=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_every_window_ends_where_its_own_fold_would(
        self, shape, events, cuts, offsets, history_share
    ):
        cut = int(len(events) * history_share)
        check_fanned(shape, events, cuts, cut, [offset % (cut + 1) for offset in offsets])

    @pytest.mark.parametrize("shape", SHAPES, ids=repr)
    def test_six_sliding_windows_along_a_long_stream(self, shape):
        events, cuts = seeded_stream(3, count=120)
        check_fanned(shape, events, cuts, 60, [48, 0, 36, 12, 60, 24])


class TestWhatAnAggregatorIsHandedAndHolds:
    @pytest.mark.parametrize("shape", SHAPES, ids=repr)
    def test_events_of_other_types_pass_through_unbound(self, shape):
        plan, make, _reference = shape.build()
        aggregators = [make() for _ in range(3)]
        stranger = Event("Z", 1.0, {"v": 1})
        assert plan.bind(stranger) == ()
        aggregators[0].process_run([(stranger, ())], aggregators[1:])
        aggregators[0].process(stranger)
        assert [a.events_processed for a in aggregators] == [0, 0, 0]
        assert [a.trend_count for a in aggregators] == [0, 0, 0]

    def test_a_rejected_event_is_dropped_by_process_as_by_the_executor(self):
        """``bind`` returns ``None`` for an event the local predicates reject:
        the executor filters it out of the sub-stream (Section 7) and
        ``process`` does the same, so it breaks no contiguous chain -- unlike
        an event of a type the pattern does not mention."""
        text = "RETURN COUNT(*) PATTERN SEQ(A+, B) SEMANTICS contiguous WHERE A.v > 0"
        plan = plan_query(parse_query(text))
        rejected = Event("A", 2.0, {"v": -1}, sequence=2)
        assert plan.bind(rejected) is None
        for between, count in [(rejected, 1), (Event("Z", 2.0, sequence=2), 0)]:
            events = [
                Event("A", 1.0, {"v": 1}, sequence=1),
                between,
                Event("B", 3.0, {"v": 1}, sequence=3),
            ]
            direct = create_aggregator(plan)
            for event in events:
                direct.process(event)
            assert direct.trend_count == count
            assert sum(r.trend_count for r in CograEngine(text).run(events)) == count

    def test_no_aggregator_has_a_dict(self):
        plain = plan_query(parse_query("RETURN COUNT(*) PATTERN SEQ(A+, B) SEMANTICS contiguous"))
        for granularity in Granularity:
            aggregator = aggregator_class(granularity)(plain)
            assert not hasattr(aggregator, "__dict__"), type(aggregator).__name__
        built = set()
        for semantics, forced in [(NEXT, None), (ANY, None), (ANY, "event")]:
            query = parse_query(
                f"RETURN COUNT(*) PATTERN SEQ(A+, NOT C, B) SEMANTICS {semantics}"
            )
            plan, analysis = plan_negated_query(query, forced_granularity=forced)
            for components in (analysis.components, analysis.tables):
                aggregator = create_negation_aggregator(plan, components)
                assert not hasattr(aggregator, "__dict__"), type(aggregator).__name__
                built.add(type(aggregator))
        assert built == {
            NegationPatternGrainedAggregator,
            NegationTypeGrainedAggregator,
            NegationEventGrainedAggregator,
        }

    def test_a_predicate_with_its_own_evaluate_is_asked_through_it(self):
        class Never(AdjacentPredicate):
            def evaluate(self, predecessor, successor):
                return False

        query = parse_query("RETURN COUNT(*) PATTERN A+ SEMANTICS skip-till-any-match")
        query = Query(
            pattern=query.pattern,
            semantics=query.semantics,
            aggregates=query.aggregates,
            predicates=[Never("A", "A", condition=lambda predecessor, successor: True)],
        )
        aggregator = create_aggregator(plan_query(query))
        for index in range(4):
            aggregator.process(Event("A", float(index), sequence=index))
        assert aggregator.trend_count == 4  # four one-event trends, no pair
