"""Differential tests for the in-place type-grained fold.

The production fold (:mod:`repro.core.type_grained`) adds an event's
contribution slot by slot straight into its variable's cell.  The oracle is
the literal Algorithm 1 recurrence kept in ``tests/helpers.py``; after every
run both aggregators must serialise to the same checkpoint state -- equal
trend counts, occurrence counts, float sums bit for bit, and extrema.  One
``process_run(run, also)`` call fans a run out to a group's aggregators in
several windows; it must leave each of them as a call of its own would.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from differential import slices, stream, streams
from helpers import reference_type_grained_process
from repro.analyzer.plan import plan_query
from repro.core.type_grained import TypeGrainedAggregator
from repro.events.event import Event
from repro.query.parser import parse_query
from repro.streaming.checkpoint import snapshot_aggregator
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


#: a value, or none at all: such an event counts but does not aggregate
VALUES = st.none() | INTEGERS | FLOATS
#: the slice sizes a stream is folded in, cyclically
CUTS = st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=6)
STREAMS = streams(max_events=40, types="AABC", attribute="v", values=VALUES, groups=())


class TestFoldMatchesTheLiteralRecurrence:
    @settings(max_examples=150, deadline=None)
    @given(shape=st.sampled_from(SHAPES), events=STREAMS, cuts=CUTS)
    def test_state_equal_after_every_run(self, shape, events, cuts):
        plan = plan_of(shape)
        folded = TypeGrainedAggregator(plan)
        one_by_one = TypeGrainedAggregator(plan)
        reference = TypeGrainedAggregator(plan)
        for run in slices(events, cuts):
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


def cells_of(aggregator):
    """Every cell's trend count and slots, for ``==`` slot for slot."""
    return {
        variable: (aggregator.cell(variable).trend_count, aggregator.cell(variable).slots)
        for variable in aggregator.plan.automaton.variables
    }


def window_aggregators(plan, history, starts):
    """Per start offset, three aggregators that saw ``history[start:]``.

    Like one group's aggregators in overlapping windows: same class, each
    opened at a different point of the stream.  Returns the aggregators to
    fan a run out to, those to fold it into one by one, and the oracles.
    """
    fanned, separate, reference = [], [], []
    for start in starts:
        seen = history[start:]
        for group in (fanned, separate):
            aggregator = TypeGrainedAggregator(plan)
            aggregator.process_run(bound(plan, seen))
            group.append(aggregator)
        oracle = TypeGrainedAggregator(plan)
        for event in seen:
            reference_type_grained_process(oracle, event)
        reference.append(oracle)
    return fanned, separate, reference


def fold_and_compare(plan, run, fanned, separate, reference):
    """One fanned call against one call per window and the literal recurrence."""
    bound_run = bound(plan, run)
    fanned[0].process_run(bound_run, fanned[1:])
    for aggregator in separate:
        aggregator.process_run(bound_run, ())
    for oracle in reference:
        for event in run:
            reference_type_grained_process(oracle, event)
    for together, alone, oracle in zip(fanned, separate, reference):
        assert cells_of(together) == cells_of(alone) == cells_of(oracle)
        assert state_of(together) == state_of(alone) == state_of(oracle)
        assert together.events_processed == oracle.events_processed


class TestFannedRunEqualsOneFoldPerWindow:
    @settings(max_examples=150, deadline=None)
    @given(
        shape=st.sampled_from(SHAPES),
        events=STREAMS,
        cuts=CUTS,
        offsets=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=12),
        history_share=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_every_window_ends_where_its_own_fold_would(
        self, shape, events, cuts, offsets, history_share
    ):
        plan = plan_of(shape)
        cut = int(len(events) * history_share)
        history, rest = events[:cut], events[cut:]
        starts = [offset % (cut + 1) for offset in offsets]
        fanned, separate, reference = window_aggregators(plan, history, starts)
        for run in slices(rest, cuts):
            fold_and_compare(plan, run, fanned, separate, reference)
        for together, oracle in zip(fanned, reference):
            assert together.results() == oracle.results()

    def test_sum_saturates_per_window(self):
        # the window that saw the whole stream outgrows the float range
        # while the one opened at event 1000 is nowhere near it
        plan = plan_of(("A+", "COUNT(*), COUNT(A), SUM(A.v), MIN(A.v)", None))
        rng = random.Random(3)
        events = [
            Event("A", float(index), {"v": rng.uniform(0.5, 5.0)}, sequence=index)
            for index in range(1100)
        ]
        history, rest = events[:1000], events[1000:]
        fanned, separate, reference = window_aggregators(plan, history, [0, 50, 1000])
        for start in range(0, len(rest), 25):
            fold_and_compare(plan, rest[start:start + 25], fanned, separate, reference)
        sums = [aggregator.results()["SUM(A.v)"] for aggregator in fanned]
        assert sums[0] == sums[1] == float("inf")
        assert sums[2] < float("inf")
        assert [a.trend_count for a in fanned] == [
            2 ** 1100 - 1, 2 ** 1050 - 1, 2 ** 100 - 1
        ]

    def test_unbound_events_count_in_no_window(self):
        plan = plan_of(SHAPES[1])
        aggregators = [TypeGrainedAggregator(plan) for _ in range(3)]
        aggregators[0].process_run([(Event("Z", 1.0, {"v": 1}), ())], aggregators[1:])
        assert [a.events_processed for a in aggregators] == [0, 0, 0]
        assert [a.trend_count for a in aggregators] == [0, 0, 0]


QUERY = """
RETURN g, COUNT(*), SUM(A.v), MAX(A.v)
PATTERN SEQ(A+, B)
SEMANTICS skip-till-any-match
GROUP-BY g
WITHIN 20 seconds SLIDE 5 seconds
"""


class TestDispatchAfterMigration:
    @pytest.mark.parametrize(
        "before, after, seed",
        [
            # a group's older windows hold the previous class, so one run
            # meets two classes: type first (its fold reads ``_cells``, which
            # no other class has), and the other way round
            ("type", "event", 1),
            ("type", "event", 2),
            ("event", "type", 3),
            ("type", "mixed", 4),
        ],
    )
    def test_slices_reach_open_windows_of_the_previous_granularity(
        self, before, after, seed
    ):
        """One executor, two granularities: one call per stretch of a class."""
        events = stream(29, 300, types="AAB", groups="xyz")
        cut = len(events) // 2
        static = StreamingRuntime(lateness=0.0)
        static.register(QUERY, name="q", granularity=before)
        expected = []
        for event in events:
            expected.extend(static.process_ordered([event]))  # the slice-of-one loop
        expected.extend(static.flush())

        runtime = StreamingRuntime(lateness=0.0)
        runtime.register(QUERY, name="q", granularity=before)
        # process_ordered hands the sorted slice to the executors as runs
        records = runtime.process_ordered(events[:cut])
        assert runtime.migrate_granularity("q", after)

        def open_classes():
            executor = runtime.engine("q").executor
            return {
                type(aggregator).__name__
                for _window, _key, aggregator in executor.open_aggregators()
            }

        previous = open_classes()
        assert len(previous) == 1
        # the very next slices feed executor.process_batch while windows of
        # the old granularity are still open next to freshly opened ones
        rng = random.Random(seed)
        slices_into_both = 0
        start = cut
        while start < len(events):
            size = rng.randint(1, 30)
            records.extend(runtime.process_ordered(events[start:start + size]))
            start += size
            classes = open_classes()
            if len(classes) == 2:
                assert previous < classes
                slices_into_both += 1
        assert slices_into_both >= 2
        records.extend(runtime.flush())
        assert open_classes() == set()

        assert [json.dumps(record.as_dict()) for record in records] == [
            json.dumps(record.as_dict()) for record in expected
        ]
