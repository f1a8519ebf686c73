"""Step ≡ push: the span-grained ingest path against the literal per-push loop.

:meth:`StreamingRuntime.process_batch` applies what the reorder buffer
releases a *step* at a time -- everything between two window boundaries --
and the router hands each query its share of a span in runs cut at that
query's own boundaries.  Both are pure layout: ``tests/helpers.py`` keeps the
loop they stand for (one release → route → emit step per event, every
released event fed on its own to each query in registration order), and the
tests here demand the same records (content, order, watermark stamps), the
same ``checkpoint()`` after every slice and the same counters from both,
over queries whose windows differ, all late policies, both watermark
strategies, any slicing and any trace sample rate.
"""

import copy
import json
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from differential import slices, stream
from helpers import reference_ingest_per_push, reference_process_ordered
from repro.core.executor import QueryExecutor
from repro.errors import LateEventError
from repro.events.event import Event
from repro.events.stream import sort_events
from repro.query.parser import parse_query
from repro.query.windows import WindowSpec
from repro.streaming.ingest import PunctuationWatermark
from repro.streaming.observability import Observability, Tracer
from repro.streaming.runtime import StreamingRuntime

#: windows that differ, on purpose: a tumbling one, WITHIN not a multiple of
#: SLIDE (starts and ends fall apart), none at all, two count windows (one
#: of a single event, so one push crosses several count edges), a
#: broadcast (contiguous) query, a negation, a query another event type
#: drives, so that different events close different queries' windows, and
#: three whose sizes are decimals, where the window edges are rounded floats
QUERIES = {
    "tumbling": "RETURN g, COUNT(*), MAX(A.v) PATTERN SEQ(A+, B) "
    "SEMANTICS skip-till-any-match GROUP-BY g WITHIN 4 seconds",
    "sliding": "RETURN g, COUNT(*), SUM(A.v) PATTERN SEQ(A+, B) "
    "SEMANTICS skip-till-next-match GROUP-BY g WITHIN 7 seconds SLIDE 3 seconds",
    "unwindowed": "RETURN g, COUNT(*) PATTERN SEQ(A, B+) "
    "SEMANTICS skip-till-next-match GROUP-BY g",
    "counted": "RETURN g, COUNT(*) PATTERN SEQ(A+, B) "
    "SEMANTICS skip-till-any-match GROUP-BY g WITHIN 6 events",
    "each_event": "RETURN g, COUNT(*), MAX(A.v) PATTERN A+ "
    "SEMANTICS skip-till-any-match GROUP-BY g WITHIN 1 events",
    "contiguous": "RETURN g, COUNT(*), MIN(A.v) PATTERN SEQ(A+, B) "
    "SEMANTICS contiguous GROUP-BY g WITHIN 5 seconds",
    "negation": "RETURN g, COUNT(*) PATTERN SEQ(A+, NOT C, B) "
    "SEMANTICS skip-till-any-match GROUP-BY g WITHIN 6 seconds SLIDE 2 seconds",
    "b_only": "RETURN COUNT(*), MAX(B.v) PATTERN B+ "
    "SEMANTICS skip-till-any-match WITHIN 3 seconds",
    "decimal_aligned": "RETURN g, COUNT(*), MAX(A.v) PATTERN SEQ(A+, B) "
    "SEMANTICS skip-till-next-match GROUP-BY g "
    "WITHIN 0.3 seconds SLIDE 0.1 seconds",
    # a single A per trend: COUNT(*) is the number of A events in the window
    "decimal_tumbling": "RETURN COUNT(*), MIN(A.t), MAX(A.t) PATTERN A "
    "SEMANTICS skip-till-any-match WITHIN 0.1 seconds",
    "decimal_unaligned": "RETURN g, COUNT(*), SUM(A.v) PATTERN SEQ(A+, B) "
    "SEMANTICS skip-till-any-match GROUP-BY g "
    "WITHIN 0.9 seconds SLIDE 0.7 seconds",
}

LATENESS = 2.0

query_sets = st.lists(
    st.sampled_from(sorted(QUERIES)), min_size=1, max_size=4, unique=True
)


def arrivals(seed, count=140, late=0.04, punctuated=False, names=()):
    """A module stream with bounded disorder plus a few late events.

    Event times are multiples of 0.5 s, so ties and timestamps exactly on a
    window boundary are common -- multiples of 0.1 s, most of which no float
    holds exactly, when one of ``names`` is a decimal window.  Every event
    carries its time as attribute ``t``.  With ``punctuated``, ``W`` events
    trailing the arrival clock by up to the disorder bound are woven in.
    """
    grid = 10 if any(name.startswith("decimal") for name in names) else 2
    events = [
        event.replace(attributes={"t": event.time})
        for event in stream(
            seed, count, groups="xyz", span=35.0, grid=grid, disorder=LATENESS, late=late
        )
    ]
    if not punctuated:
        return events
    rng = random.Random(seed)
    woven = []
    for index, event in enumerate(events):
        woven.append(event)
        if rng.random() < 0.15:
            clock = max(0.0, event.time - rng.uniform(0.0, LATENESS))
            woven.append(Event("W", clock, sequence=10_000 + index))
    return woven


def build(names, policy, punctuated=False, sample_rate=None, seed=0):
    kwargs = {"late_policy": policy}
    if punctuated:
        kwargs["watermark_strategy"] = PunctuationWatermark("W")
    else:
        kwargs["lateness"] = LATENESS
    if sample_rate is not None:
        tracer = Tracer(
            sample_rate=sample_rate, sink=lambda span: None, rng=random.Random(seed)
        )
        kwargs["observability"] = Observability(tracer=tracer)
    runtime = StreamingRuntime(**kwargs)
    for name in names:
        runtime.register(QUERIES[name], name=name)
    return runtime


def stamped(records):
    return [(record.query, json.dumps(record.as_dict(), sort_keys=True)) for record in records]


def state_of(runtime):
    """``checkpoint()`` without what a clock wrote: histogram buckets and sums."""
    state = copy.deepcopy(runtime.checkpoint())
    for family in state["registry"]["families"].values():
        if family["kind"] == "histogram":
            for child in family["children"]:
                del child["counts"], child["sum"]
    return json.dumps(state, sort_keys=True)


def assert_same_after(step, reference, runtime):
    assert state_of(runtime) == state_of(reference), step
    assert runtime.metrics.snapshot() == reference.metrics.snapshot(), step
    assert runtime.take_late_events() == reference.take_late_events(), step


class TestStepsEqualPushes:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        names=query_sets,
        policy=st.sampled_from(["drop", "side-channel", "raise"]),
        punctuated=st.booleans(),
        size=st.sampled_from([1, 7, 256, None]),
        sample_rate=st.sampled_from([None, 0.0, 0.3, 1.0]),
    )
    def test_process_batch_is_the_per_push_loop(
        self, seed, names, policy, punctuated, size, sample_rate
    ):
        stream = arrivals(seed, punctuated=punctuated, names=names)
        reference = build(names, policy, punctuated)
        runtime = build(names, policy, punctuated, sample_rate, seed)
        for index, chunk in enumerate(slices(stream, [size or len(stream)])):
            outcomes = []
            for feed in (
                lambda: reference_ingest_per_push(reference, chunk),
                lambda: runtime.process_batch(chunk),
            ):
                try:
                    outcomes.append(("ok", stamped(feed())))
                except LateEventError as error:
                    assert policy == "raise"
                    outcomes.append((f"late at {error.event.time}", stamped(error.records)))
            assert outcomes[1] == outcomes[0], f"slice {index}"
            assert_same_after(f"slice {index}", reference, runtime)
        assert stamped(runtime.flush()) == stamped(reference.flush())
        assert runtime.metrics.snapshot() == reference.metrics.snapshot()

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        names=query_sets,
        sizes=st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=4),
        advance=st.sampled_from(["every batch", "every other batch", "never"]),
    )
    def test_process_ordered_batches_may_straddle_boundaries(
        self, seed, names, sizes, advance
    ):
        """Shard workers get batches cut by push counts, not by windows."""
        stream = sort_events(arrivals(seed, late=0.0, names=names))
        reference = build(names, "drop")
        runtime = build(names, "drop")
        cursor = index = 0
        while cursor < len(stream):
            batch = stream[cursor : cursor + sizes[index % len(sizes)]]
            cursor += len(batch)
            index += 1
            watermark = batch[-1].time
            if advance == "never" or (advance == "every other batch" and index % 2):
                watermark = None
            assert stamped(runtime.process_ordered(batch, watermark)) == stamped(
                reference_process_ordered(reference, batch, watermark)
            ), f"batch {index}"
            assert_same_after(f"batch {index}", reference, runtime)
        assert stamped(runtime.flush()) == stamped(reference.flush())

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        size=st.sampled_from([1, 7, 256, None]),
    )
    def test_a_decimal_tumbling_window_counts_every_on_time_event_once(
        self, seed, size
    ):
        """Conservation, with no oracle that shares the window arithmetic.

        Tumbling windows partition time: what the windows counted is what
        was fed on time, and each window's bounds hold what it counted.
        """
        names = ["decimal_tumbling"]
        stream = arrivals(seed, names=names)
        runtime = build(names, "side-channel")
        records = []
        for chunk in slices(stream, [size or len(stream)]):
            records += runtime.process_batch(chunk)
        records += runtime.flush()
        late = runtime.take_late_events()
        fed = sum(event.event_type == "A" for event in stream)
        fed -= sum(event.event_type == "A" for event in late)
        assert sum(record.result["COUNT(*)"] for record in records) == fed
        for record in records:
            result = record.result
            earliest, latest = result["MIN(A.t)"], result["MAX(A.t)"]
            assert result.window_start <= earliest <= latest < result.window_end

    def test_records_of_one_span_keep_event_then_registration_order(self):
        """Two queries closing on different events of one released span.

        ``b_only`` is registered first but its window is closed by the later
        event: feeding each query its filtered span in turn would emit it
        first; the per-event order has ``tumbling`` (closed by the A) first.
        """
        runtime = StreamingRuntime(watermark_strategy=PunctuationWatermark("W"))
        runtime.register(QUERIES["b_only"], name="b_only")
        runtime.register(QUERIES["tumbling"], name="tumbling")
        early = [
            Event("A", 1.0, {"g": "x", "v": 1}, sequence=0),
            Event("B", 2.0, {"g": "x", "v": 2}, sequence=1),
        ]
        late = [
            Event("A", 12.0, {"g": "x", "v": 3}, sequence=2),
            Event("B", 12.5, {"g": "x", "v": 4}, sequence=3),
        ]
        assert runtime.process_batch(early + [Event("W", 2.5, sequence=4)]) == []
        records = runtime.process_batch(late + [Event("W", 13.0, sequence=5)])
        assert [record.query for record in records][:2] == ["tumbling", "b_only"]
        assert {record.watermark for record in records} == {13.0}

    @pytest.mark.parametrize("huge", [1e16, 1e18, 1e22, 1e300, 1e308])
    def test_a_huge_timestamp_is_one_more_event(self, huge):
        """Where floats lie further apart than windows, every event is its own step.

        ``{"type": "A", "time": 1e300}`` is a finite, non-negative time and
        so a valid input line: it must cost what any other event costs.
        """
        names = ["sliding", "tumbling", "b_only"]
        stream = arrivals(3, count=40, late=0.0)
        stream += [
            Event(event_type, time, {"g": "x", "v": 1}, sequence=1000 + index)
            for index, (event_type, time) in enumerate(
                [("A", huge), ("B", huge), ("A", math.nextafter(huge, math.inf))]
            )
        ]
        reference = build(names, "drop")
        runtime = build(names, "drop")
        assert stamped(runtime.process_batch(stream)) == stamped(
            reference_ingest_per_push(reference, stream)
        )
        assert_same_after("slice", reference, runtime)
        assert stamped(runtime.flush()) == stamped(reference.flush())
        reference = build(names, "drop")
        runtime = build(names, "drop")
        stream = sort_events(stream)
        assert stamped(runtime.process_ordered(stream, huge)) == stamped(
            reference_process_ordered(reference, stream, huge)
        )
        assert_same_after("batch", reference, runtime)

    def test_a_step_is_applied_once_however_many_pushes_it_took(self, monkeypatch):
        """Between two window boundaries the executors are called once per slice."""
        runtime = StreamingRuntime(lateness=0.0)
        runtime.register(
            "RETURN g, COUNT(*) PATTERN A+ SEMANTICS skip-till-any-match "
            "GROUP-BY g WITHIN 4 seconds",
            name="tumbling",
        )
        calls = []
        original = QueryExecutor.process_batch

        def recording(executor, events):
            calls.append([event.time for event in events])
            return original(executor, events)

        monkeypatch.setattr(QueryExecutor, "process_batch", recording)
        times = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.5, 5.0, 5.5, 9.0]
        events = [
            Event("A", time, {"g": "x", "v": 1}, sequence=index)
            for index, time in enumerate(times)
        ]
        records = runtime.process_batch(events)
        # lateness 0: a push releases everything before its event; the push
        # of 4.5 lifts the watermark past the window end 4.0 and is applied
        # alone, as is the push of 9.0 (past 8.0)
        assert calls == [[0.5, 1.0, 1.5, 2.0, 2.5, 3.0], [3.5], [4.5, 5.0], [5.5]]
        assert [record.result.window_id for record in records] == [0, 1]
        assert [record.watermark for record in records] == [4.5, 9.0]


class TestNextBoundary:
    @settings(max_examples=200, deadline=None)
    @given(
        size=st.sampled_from([0.1, 0.3, 1.0, 2.5, 4.0, 7.0, 60.0]),
        slide=st.sampled_from([0.1, 0.7, 1.0, 3.0, 5.0, 7.0]),
        time=st.one_of(
            st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
            st.integers(min_value=0, max_value=5000).map(lambda tick: tick * 0.1),
        ),
    )
    def test_it_is_the_smallest_start_or_end_after_the_time(self, size, slide, time):
        window = WindowSpec(size, slide)
        bound = window.next_boundary(time)
        assert bound > time
        edges = [window.window_start(k) for k in range(0, int(time / slide) + 3)]
        edges += [window.window_end(k) for k in range(0, int(time / slide) + 3)]
        assert bound == min(edge for edge in edges if edge > time)

    @pytest.mark.parametrize(
        "time", [2.0**53, 1e16, 1e18, 1e22, 1e300, sys.float_info.max]
    )
    @pytest.mark.parametrize("slide", [0.001, 1.0, 3.0])
    def test_beyond_float_resolution_it_is_the_next_float(self, time, slide):
        """No search for an edge the floats around ``time`` cannot tell apart."""
        window = WindowSpec(7.0, slide)
        assert window.next_boundary(time) == math.nextafter(time, math.inf)

    def test_before_the_origin_and_at_infinity(self):
        window = WindowSpec(4.0, 2.0, origin=10.0)
        assert window.next_boundary(float("-inf")) == 10.0
        assert window.next_boundary(3.0) == 10.0
        assert window.next_boundary(10.0) == 12.0
        assert window.next_boundary(float("inf")) == float("inf")


class TestQuietRun:
    def test_a_run_ends_where_the_windows_change_and_nowhere_else(self):
        """With WITHIN 0.9 SLIDE 0.7 window 1135 starts at 794.5, not a float before."""
        query = (
            "RETURN COUNT(*) PATTERN A+ SEMANTICS skip-till-any-match "
            "WITHIN 0.9 seconds SLIDE 0.7 seconds"
        )
        times = [793.9999999999999, 794.4999999999999, 794.5]
        events = [Event("A", time, sequence=index) for index, time in enumerate(times)]
        whole, single = (QueryExecutor(parse_query(query)) for _ in range(2))
        assert whole.quiet_run(events) == 2
        got = [r for _, closed in whole.process_batch(events) for r in closed]
        got += whole.flush()
        expected = [r for e in events for r in single.process(e)] + single.flush()
        assert [repr(result) for result in got] == [repr(result) for result in expected]

    def test_a_count_window_run_ends_at_the_next_ordinal_edge(self):
        """``WITHIN 3 events``: a run ends where the ordinal meets a multiple of 3."""
        query = parse_query(
            "RETURN g, COUNT(*), MAX(A.v) PATTERN SEQ(A+, B) "
            "SEMANTICS skip-till-any-match GROUP-BY g WITHIN 3 events"
        )
        events = [
            Event("AB"[i % 3 == 2], float(i), {"g": "xy"[i % 2], "v": i}, sequence=i)
            for i in range(11)
        ]
        whole = QueryExecutor(query)
        assert whole.quiet_run(events) == 3
        assert whole.quiet_run(events, 9) == 11
        got = [r for _, closed in whole.process_batch(events) for r in closed]
        got += whole.flush()
        single = QueryExecutor(query)
        expected = [r for e in events for r in single.process(e)] + single.flush()
        assert len(expected) > 1
        assert [repr(result) for result in got] == [repr(result) for result in expected]
        # handed the state after 4 events (one past an edge), the next run
        # ends at ordinal 6, two events on, and the rest folds as fed singly
        fed, single = QueryExecutor(query), QueryExecutor(query)
        fed.process_batch(events[:4])
        for event in events[:4]:
            single.process(event)
        adopted = QueryExecutor(query)
        adopted.adopt(fed.events_seen, fed.last_time, list(fed.open_aggregators()))
        assert adopted.quiet_run(events, 4) == 6
        assert adopted.quiet_run(events[4:]) == 2
        got = [r for _, closed in adopted.process_batch(events[4:]) for r in closed]
        got += adopted.flush()
        expected = [r for e in events[4:] for r in single.process(e)] + single.flush()
        assert [repr(result) for result in got] == [repr(result) for result in expected]
