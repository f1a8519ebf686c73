"""Tests for the runtime executor, the engine facade and window/group handling."""

import pytest

from repro.core.engine import CograEngine
from repro.core.executor import QueryExecutor
from repro.errors import StreamOrderError
from repro.events.event import Event
from repro.query.aggregates import count_star
from repro.query.ast import atom, kleene_plus, sequence
from repro.query.builder import QueryBuilder
from repro.query.windows import WindowSpec
from helpers import assert_results_equal, total_trend_count


def simple_query(window=None, group_by=(), semantics="skip-till-any-match", pattern=None):
    builder = (
        QueryBuilder("test")
        .pattern(pattern or kleene_plus("A"))
        .semantics(semantics)
        .aggregate(count_star())
        .window(window)
    )
    if group_by:
        builder.group_by(*group_by)
    return builder.build()


class TestWindows:
    def test_tumbling_windows_partition_the_stream(self):
        query = simple_query(window=WindowSpec(10.0))
        events = [Event("A", t) for t in (1, 2, 11, 12, 13)]
        results = QueryExecutor(query).run(events)
        by_window = {r.window_id: r.trend_count for r in results}
        # window 0 has 2 A's -> 3 trends; window 1 has 3 A's -> 7 trends
        assert by_window == {0: 3, 1: 7}

    def test_sliding_windows_replicate_events(self):
        query = simple_query(window=WindowSpec(10.0, 5.0))
        events = [Event("A", 7.0)]
        results = QueryExecutor(query, emit_empty_groups=True).run(events)
        assert sorted(r.window_id for r in results) == [0, 1]

    def test_window_bounds_reported(self):
        query = simple_query(window=WindowSpec(10.0, 5.0))
        results = QueryExecutor(query).run([Event("A", 7.0)])
        windows = {r.window_id: (r.window_start, r.window_end) for r in results}
        assert windows[0] == (0.0, 10.0)
        assert windows[1] == (5.0, 15.0)

    def test_results_emitted_when_window_expires(self):
        query = simple_query(window=WindowSpec(10.0))
        executor = QueryExecutor(query)
        assert executor.process(Event("A", 1.0)) == []
        emitted = executor.process(Event("A", 15.0))
        assert len(emitted) == 1 and emitted[0].window_id == 0
        final = executor.flush()
        assert len(final) == 1 and final[0].window_id == 1

    def test_no_window_means_single_unbounded_window(self):
        query = simple_query(window=None)
        results = QueryExecutor(query).run([Event("A", 1.0), Event("A", 1e6)])
        assert len(results) == 1
        assert results[0].window_id == 0
        assert results[0].window_start is None

    def test_expired_aggregators_are_released(self):
        query = simple_query(window=WindowSpec(10.0))
        executor = QueryExecutor(query)
        executor.process(Event("A", 1.0))
        assert executor.open_window_count() == 1
        executor.process(Event("A", 25.0))
        assert executor.open_window_count() == 1  # only the latest window remains


class TestOpenAggregatorIndex:
    """A window's table exists exactly while it holds an aggregator."""

    @staticmethod
    def assert_nothing_open(executor):
        assert executor.open_window_count() == 0
        assert executor.open_group_count() == 0
        assert list(executor.open_aggregators()) == []
        assert executor._windows == {}  # no empty table survives either

    def test_nothing_survives_a_flush(self):
        executor = QueryExecutor(
            simple_query(window=WindowSpec(10.0, 2.0), group_by=("g",))
        )
        events = [Event("A", float(t), {"g": t % 3}) for t in range(30)]
        executor.process_batch(events[:7])
        for event in events[7:]:
            executor.process(event)
        assert executor.open_window_count() == 5
        assert executor.open_group_count() == len(list(executor.open_aggregators()))
        assert all(executor._windows.values())
        executor.flush()
        self.assert_nothing_open(executor)

    def test_nothing_survives_200_closed_windows(self):
        executor = QueryExecutor(
            simple_query(window=WindowSpec(10.0, 5.0), group_by=("g",))
        )
        results = []
        for index in range(1005):
            results.extend(executor.process(Event("A", float(index), {"g": index % 4})))
            assert executor.open_window_count() <= 2
            assert all(executor._windows.values())
        assert len({result.window_id for result in results}) >= 199
        results.extend(executor.advance_time(2000.0))
        assert len({result.window_id for result in results}) > 200
        self.assert_nothing_open(executor)

    def test_a_run_rejected_by_local_predicates_opens_no_window(self):
        query = (
            QueryBuilder()
            .pattern(kleene_plus("A"))
            .semantics("skip-till-any-match")
            .aggregate(count_star())
            .where_attribute_equals("A", "keep", True)
            .window(WindowSpec(10.0, 5.0))
            .build()
        )
        executor = QueryExecutor(query, emit_empty_groups=True)
        rejected = [Event("A", float(t), {"keep": False}) for t in range(1, 4)]
        assert executor.process_batch(rejected) == []
        assert executor.process(Event("A", 4.0, {"keep": False})) == []
        assert executor.events_seen == 4
        self.assert_nothing_open(executor)
        assert executor.flush() == []

    def test_empty_groups_include_one_whose_events_bound_to_nothing(self):
        # a Z event is not rejected (no local predicate is about it), it
        # just binds to no variable: its group exists, with no trend
        query = simple_query(window=WindowSpec(10.0, 5.0), group_by=("g",))
        events = [Event("Z", 6.0, {"g": "idle"}), Event("A", 7.0, {"g": "busy"})]
        hidden = QueryExecutor(query).run(events)
        assert [(r.window_id, r.group["g"]) for r in hidden] == [(0, "busy"), (1, "busy")]
        shown = QueryExecutor(query, emit_empty_groups=True).run(events)
        assert [(r.window_id, r.group["g"], r.trend_count) for r in shown] == [
            (0, "busy", 1), (0, "idle", 0), (1, "busy", 1), (1, "idle", 0),
        ]


class TestGrouping:
    def test_group_by_partitions_results(self):
        query = simple_query(group_by=("g",))
        events = [Event("A", 1, {"g": "x"}), Event("A", 2, {"g": "y"}), Event("A", 3, {"g": "x"})]
        results = QueryExecutor(query).run(events)
        counts = {r.group["g"]: r.trend_count for r in results}
        assert counts == {"x": 3, "y": 1}

    def test_groups_do_not_interact(self):
        query = simple_query(group_by=("g",), pattern=sequence(atom("A"), atom("B")))
        events = [Event("A", 1, {"g": 1}), Event("B", 2, {"g": 2})]
        results = QueryExecutor(query).run(events)
        assert results == []  # the A and the B are in different groups

    def test_empty_groups_hidden_by_default_but_available(self):
        query = simple_query(group_by=("g",), pattern=sequence(atom("A"), atom("B")))
        events = [Event("A", 1, {"g": 1}), Event("B", 2, {"g": 2})]
        shown = QueryExecutor(query, emit_empty_groups=True).run(events)
        assert len(shown) == 2
        assert all(r.trend_count == 0 for r in shown)

    def test_group_result_accessors(self):
        query = simple_query(group_by=("g",))
        result = QueryExecutor(query).run([Event("A", 1, {"g": "x"})])[0]
        assert result["g"] == "x"
        assert result["COUNT(*)"] == 1
        assert result.group_key == ("x",)
        assert result.as_dict()["COUNT(*)"] == 1
        assert "GroupResult" in repr(result)


class TestStreamingBehaviour:
    def test_out_of_order_events_rejected(self):
        executor = QueryExecutor(simple_query())
        executor.process(Event("A", 10.0))
        with pytest.raises(StreamOrderError):
            executor.process(Event("A", 5.0))

    def test_local_predicate_filtering_happens_before_aggregation(self):
        query = (
            QueryBuilder()
            .pattern(kleene_plus("A"))
            .semantics("contiguous")
            .aggregate(count_star())
            .where_attribute_equals("A", "keep", True)
            .build()
        )
        # the filtered-out A must not break contiguity (Section 7: local
        # predicates filter the stream before COGRA applies)
        events = [Event("A", 1, {"keep": True}), Event("A", 2, {"keep": False}), Event("A", 3, {"keep": True})]
        results = QueryExecutor(query).run(events)
        assert total_trend_count(results) == 3  # [a1], [a3], [a1,a3]

    def test_events_seen_counts_every_input(self):
        executor = QueryExecutor(simple_query())
        for event in [Event("A", 1), Event("Z", 2), Event("A", 3)]:
            executor.process(event)
        assert executor.events_seen == 3

    def test_storage_accounting_exposed(self):
        executor = QueryExecutor(simple_query(group_by=("g",)))
        executor.process(Event("A", 1, {"g": 1}))
        executor.process(Event("A", 2, {"g": 2}))
        assert executor.open_group_count() == 2
        assert executor.storage_units() > 0
        assert executor.stored_event_count() == 0  # type-grained keeps no events

    def test_invalid_query_type_rejected(self):
        with pytest.raises(TypeError):
            QueryExecutor("not a query")


class TestEngineFacade:
    Q1_TEXT = """
        RETURN patient, MIN(M.rate), MAX(M.rate)
        PATTERN Measurement M+
        SEMANTICS contiguous
        WHERE [patient] AND M.rate < NEXT(M).rate
        GROUP-BY patient
        WITHIN 10 minutes SLIDE 30 seconds
    """

    def test_from_text_and_explain(self):
        engine = CograEngine.from_text(self.Q1_TEXT, name="q1")
        assert engine.granularity == "pattern"
        assert "granularity : pattern" in engine.explain()

    def test_run_is_repeatable(self, figure2_stream, any_count_query):
        engine = CograEngine(any_count_query)
        first = engine.run(figure2_stream)
        second = engine.run(figure2_stream)
        assert_results_equal(first, second)
        assert total_trend_count(first) == 43

    def test_incremental_process_and_flush(self, figure2_stream, any_count_query):
        engine = CograEngine(any_count_query)
        emitted = []
        for event in figure2_stream:
            emitted.extend(engine.process(event))
        emitted.extend(engine.flush())
        assert total_trend_count(emitted) == 43

    def test_reset_clears_state(self, figure2_stream, any_count_query):
        engine = CograEngine(any_count_query)
        for event in figure2_stream:
            engine.process(event)
        engine.reset()
        assert engine.flush() == []

    def test_storage_introspection(self, figure2_stream, any_count_query):
        engine = CograEngine(any_count_query)
        for event in figure2_stream:
            engine.process(event)
        assert engine.storage_units() > 0
        assert engine.stored_event_count() == 0
        assert "CograEngine" in repr(engine)

    def test_engine_accepts_query_text_directly(self):
        engine = CograEngine("RETURN COUNT(*) PATTERN A+")
        results = engine.run([Event("A", 1), Event("A", 2)])
        assert total_trend_count(results) == 3
