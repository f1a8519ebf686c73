"""Differential tests for the in-place type-grained fold.

The production fold (:mod:`repro.core.type_grained`) adds an event's
contribution slot by slot straight into its variable's cell.  The oracle is
the literal Algorithm 1 recurrence kept in ``tests/helpers.py``; after every
run both aggregators must serialise to the same checkpoint state -- equal
trend counts, occurrence counts, float sums bit for bit, and extrema.
"""

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_type_grained_process
from repro.analyzer.plan import plan_query
from repro.core.type_grained import TypeGrainedAggregator
from repro.events.event import Event
from repro.events.stream import sort_events
from repro.query.parser import parse_query
from repro.streaming.checkpoint import snapshot_aggregator, snapshot_executor
from repro.streaming.runtime import StreamingRuntime

#: (pattern, RETURN clause, WHERE clause or None); every aggregate function
#: appears, on one variable and spread over two
SHAPES = [
    ("A+", "COUNT(*), COUNT(A), SUM(A.v), AVG(A.v), MIN(A.v), MAX(A.v)", None),
    ("SEQ(A+, B)", "COUNT(*), COUNT(B), SUM(A.v), MIN(B.v), MAX(A.v)", None),
    ("(SEQ(A+, B))+", "COUNT(*), COUNT(A), AVG(A.v), SUM(B.v), MAX(B.v)", None),
    ("SEQ(A+, B+, C)", "COUNT(*), SUM(B.v), MIN(A.v), AVG(C.v)", None),
    # repeated type: every A event binds to X and to Y (Section 8)
    ("SEQ(A X+, A Y+)", "COUNT(*), COUNT(X), SUM(X.v), AVG(Y.v), MIN(X.v), MAX(Y.v)", None),
    ("SEQ(A X+, B, A Y)", "COUNT(*), SUM(X.v), MAX(Y.v)", None),
    # local predicates decide the candidate variables per event
    ("SEQ(A+, B)", "COUNT(*), SUM(A.v), MIN(A.v)", "A.v > 0"),
    ("SEQ(A X+, A Y+)", "COUNT(*), SUM(X.v), MAX(Y.v)", "X.v > 0 AND Y.v < 3"),
]

INTEGERS = st.integers(min_value=-50, max_value=50)
FLOATS = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False) | st.sampled_from(
    [0.1, 0.2, 0.3, -0.0, 1e-9, 1e15 + 0.5]
)


def plan_of(shape):
    pattern, returns, where = shape
    text = f"RETURN {returns} PATTERN {pattern} SEMANTICS skip-till-any-match"
    if where:
        text += f" WHERE {where}"
    return plan_query(parse_query(text))


def bound(plan, events):
    """What the executor hands an aggregator: events the plan does not filter."""
    run = []
    for event in events:
        binding = plan.bind(event)
        if binding is not None:
            run.append((event, binding))
    return run


def state_of(aggregator):
    return json.dumps(snapshot_aggregator(aggregator))


@st.composite
def streams(draw):
    values = draw(st.sampled_from([INTEGERS, FLOATS]))
    # some events carry no value at all: they count but do not aggregate
    value = st.none() | values
    rows = draw(st.lists(st.tuples(st.sampled_from("AABC"), value), max_size=40))
    events = [
        Event(event_type, float(index), {} if v is None else {"v": v}, sequence=index)
        for index, (event_type, v) in enumerate(rows)
    ]
    cuts = draw(st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=6))
    return events, cuts


def split(events, cuts):
    runs, cursor, index = [], 0, 0
    while cursor < len(events):
        size = cuts[index % len(cuts)]
        runs.append(events[cursor:cursor + size])
        cursor += size
        index += 1
    return runs


class TestFoldMatchesTheLiteralRecurrence:
    @settings(max_examples=150, deadline=None)
    @given(shape=st.sampled_from(SHAPES), stream=streams())
    def test_state_equal_after_every_run(self, shape, stream):
        events, cuts = stream
        plan = plan_of(shape)
        folded = TypeGrainedAggregator(plan)
        one_by_one = TypeGrainedAggregator(plan)
        reference = TypeGrainedAggregator(plan)
        for run in split(events, cuts):
            folded.process_run(bound(plan, run))
            for event in run:
                one_by_one.process(event)
                reference_type_grained_process(reference, event)
            assert state_of(folded) == state_of(reference)
            assert state_of(one_by_one) == state_of(reference)
            assert folded.events_processed == reference.events_processed
        assert folded.results() == reference.results()

    def test_sum_saturates_like_the_recurrence_when_the_count_outgrows_floats(self):
        # 2**n - 1 trends after n events of A+: past n = 1024 the
        # multiplicity no longer converts to a float
        plan = plan_of(("A+", "COUNT(*), COUNT(A), SUM(A.v), MIN(A.v)", None))
        rng = random.Random(3)
        events = [
            Event("A", float(index), {"v": rng.uniform(0.5, 5.0)}, sequence=index)
            for index in range(1100)
        ]
        folded = TypeGrainedAggregator(plan)
        reference = TypeGrainedAggregator(plan)
        for start in range(0, len(events), 100):
            run = events[start:start + 100]
            folded.process_run(bound(plan, run))
            for event in run:
                reference_type_grained_process(reference, event)
            assert state_of(folded) == state_of(reference)
        assert folded.results()["SUM(A.v)"] == float("inf")
        assert folded.trend_count == 2 ** 1100 - 1

    def test_events_of_other_types_pass_through_unbound(self):
        plan = plan_of(SHAPES[1])
        aggregator = TypeGrainedAggregator(plan)
        stranger = Event("Z", 1.0, {"v": 1})
        assert plan.bind(stranger) == ()
        aggregator.process_run([(stranger, ())])
        aggregator.process(stranger)
        assert aggregator.events_processed == 0
        assert aggregator.trend_count == 0


QUERY = """
RETURN g, COUNT(*), SUM(A.v), MAX(A.v)
PATTERN SEQ(A+, B)
SEMANTICS skip-till-any-match
GROUP-BY g
WITHIN 20 seconds SLIDE 5 seconds
"""


def make_stream(count=300, seed=29):
    rng = random.Random(seed)
    return sort_events(
        Event(
            rng.choice("AAB"),
            rng.uniform(0.0, 60.0),
            {"g": rng.choice("xyz"), "v": round(rng.uniform(0.5, 9.5), 2)},
        )
        for _ in range(count)
    )


class TestDispatchAfterMigration:
    def test_batches_reach_open_windows_of_the_previous_granularity(self):
        """One executor, two granularities: dispatch is per aggregator."""
        events = make_stream()
        cut = len(events) // 2
        static = StreamingRuntime(lateness=0.0)
        static.register(QUERY, name="q", granularity="type")
        expected = []
        for event in events:
            expected.extend(static.process_ordered([event]))  # the per-event path
        expected.extend(static.flush())

        runtime = StreamingRuntime(lateness=0.0)
        runtime.register(QUERY, name="q", granularity="type")
        # process_ordered hands the sorted slice to the executors as runs
        records = runtime.process_ordered(events[:cut])
        assert runtime.migrate_granularity("q", "event")

        def open_classes():
            executor = runtime.engine("q").executor
            return {
                entry[2]["class"]
                for entry in snapshot_executor(executor)["aggregators"]
            }

        assert open_classes() == {"TypeGrainedAggregator"}
        # the very next slices feed executor.process_batch while windows of
        # the old granularity are still open next to freshly opened ones
        slices_into_both = 0
        for start in range(cut, len(events), 24):
            records.extend(runtime.process_ordered(events[start:start + 24]))
            if open_classes() == {"TypeGrainedAggregator", "EventGrainedAggregator"}:
                slices_into_both += 1
        assert slices_into_both >= 2
        records.extend(runtime.flush())
        assert open_classes() == set()

        assert [json.dumps(record.as_dict()) for record in records] == [
            json.dumps(record.as_dict()) for record in expected
        ]
