"""Tests for the multi-query streaming runtime.

The central property: a :class:`StreamingRuntime` fed a *shuffled* stream
with bounded disorder emits exactly the results of :meth:`CograEngine.run`
on the sorted stream -- for every granularity -- while emitting each window
as soon as the watermark passes it, not at end of stream.
"""

import math

import pytest

from repro.core.engine import CograEngine
from repro.errors import ConfigError, LateEventError
from repro.events.event import Event
from repro.streaming.config import late_replay_reason
from repro.streaming.ingest import LatePolicy, PunctuationWatermark
from repro.streaming.runtime import StreamingRuntime, group_results
from differential import bounded_shuffle, stream
from helpers import assert_results_equal

LATENESS = 5.0

PATTERN_QUERY = """
RETURN g, COUNT(*)
PATTERN SEQ(A+, B)
SEMANTICS skip-till-next-match
GROUP-BY g
WITHIN 20 seconds SLIDE 10 seconds
"""

TYPE_QUERY = """
RETURN g, COUNT(*), MAX(A.v)
PATTERN SEQ(A+, B)
SEMANTICS skip-till-any-match
GROUP-BY g
WITHIN 20 seconds SLIDE 10 seconds
"""

MIXED_QUERY = """
RETURN g, COUNT(*), SUM(A.v)
PATTERN SEQ(A+, B)
SEMANTICS skip-till-any-match
WHERE A.v < NEXT(A).v
GROUP-BY g
WITHIN 20 seconds SLIDE 10 seconds
"""

CONTIGUOUS_QUERY = """
RETURN g, COUNT(*)
PATTERN SEQ(A+, B)
SEMANTICS contiguous
GROUP-BY g
WITHIN 20 seconds SLIDE 10 seconds
"""


class TestBatchParity:
    @pytest.mark.parametrize(
        "query_text,granularity",
        [
            (PATTERN_QUERY, "pattern"),
            (TYPE_QUERY, "type"),
            (MIXED_QUERY, "mixed"),
            (CONTIGUOUS_QUERY, "pattern"),
        ],
    )
    def test_shuffled_stream_matches_batch_run(self, query_text, granularity):
        ordered = stream(count=250)
        batch = CograEngine.from_text(query_text).run(ordered)

        runtime = StreamingRuntime(lateness=LATENESS)
        runtime.register(query_text, name="q")
        assert runtime.engine("q").granularity == granularity
        records = runtime.run(bounded_shuffle(ordered, LATENESS))
        assert_results_equal(group_results(records), batch)
        assert runtime.metrics.late_events == 0

    def test_forced_event_granularity_matches_batch_run(self):
        ordered = stream(count=150)
        batch = CograEngine(TYPE_QUERY, granularity="event").run(ordered)

        runtime = StreamingRuntime(lateness=LATENESS)
        runtime.register(TYPE_QUERY, name="q", granularity="event")
        assert runtime.engine("q").granularity == "event"
        records = runtime.run(bounded_shuffle(ordered, LATENESS))
        assert_results_equal(group_results(records), batch)

    def test_in_order_stream_with_zero_lateness(self):
        ordered = stream(count=250)
        batch = CograEngine.from_text(TYPE_QUERY).run(ordered)
        runtime = StreamingRuntime(lateness=0.0)
        runtime.register(TYPE_QUERY, name="q")
        assert_results_equal(group_results(runtime.run(ordered)), batch)

    def test_negation_query_matches_batch_run(self):
        # negated event types are not part of the positive pattern, so this
        # guards the routing rule that still delivers them (C invalidates)
        negation_query = """
            RETURN g, COUNT(*)
            PATTERN SEQ(A+, NOT C, B)
            SEMANTICS skip-till-any-match
            GROUP-BY g
            WITHIN 20 seconds SLIDE 10 seconds
        """
        ordered = stream(count=250)
        batch = CograEngine.from_text(negation_query).run(ordered)
        runtime = StreamingRuntime(lateness=LATENESS)
        runtime.register(negation_query, name="q")
        records = runtime.run(bounded_shuffle(ordered, LATENESS))
        assert_results_equal(group_results(records), batch)

    def test_emit_empty_groups_matches_batch_run(self):
        # emit_empty_groups forces broadcast routing (every event creates
        # its group); guard that against type-routing regressions
        ordered = stream(count=250)
        batch = CograEngine(TYPE_QUERY, emit_empty_groups=True).run(ordered)
        runtime = StreamingRuntime(lateness=LATENESS)
        runtime.register(TYPE_QUERY, name="q", emit_empty_groups=True)
        records = runtime.run(bounded_shuffle(ordered, LATENESS))
        assert_results_equal(group_results(records), batch)


class TestIncrementalEmission:
    def test_windows_emitted_before_end_of_stream(self):
        runtime = StreamingRuntime(lateness=LATENESS)
        runtime.register(TYPE_QUERY, name="q")
        records = runtime.run(stream(count=250))
        early = [r for r in records if not r.is_final_flush]
        assert early, "no window was emitted before the final flush"
        # an emitted window is evicted: its aggregate state is gone
        assert runtime.engine("q").executor.open_window_count() == 0

    def test_emission_respects_watermark_and_window_order(self):
        runtime = StreamingRuntime(lateness=LATENESS)
        runtime.register(TYPE_QUERY, name="q")
        records = runtime.run(stream(count=250))
        previous_window = -1
        for record in records:
            # a window is only emitted once the watermark passed its end
            assert record.watermark >= record.result.window_end
            # windows are emitted in ascending window-id order
            assert record.result.window_id >= previous_window
            previous_window = record.result.window_id

    def test_windows_closed_by_drained_events_are_final_flush_records(self):
        # with a large lateness everything is still buffered at flush();
        # windows closed while routing the drained events must carry the
        # end-of-stream context, not the stale pre-flush watermark
        runtime = StreamingRuntime(lateness=20.0)
        runtime.register(TYPE_QUERY, name="q")
        for t in (12.0, 14.0, 25.0):
            assert runtime.process(Event("A", t, {"g": "x", "v": 1})) == []
        records = runtime.flush()
        for record in records:
            assert record.is_final_flush
            assert record.watermark >= record.result.window_end

    def test_punctuation_watermarks_drive_emission(self):
        ordered = stream(count=250, types="AB")
        batch = CograEngine.from_text(TYPE_QUERY).run(ordered)
        runtime = StreamingRuntime(
            watermark_strategy=PunctuationWatermark("Tick")
        )
        runtime.register(TYPE_QUERY, name="q")
        records = []
        for index, event in enumerate(ordered):
            records.extend(runtime.process(event))
            if index % 25 == 24:
                records.extend(runtime.process(Event("Tick", event.time)))
        records.extend(runtime.flush())
        assert_results_equal(group_results(records), batch)
        assert any(not r.is_final_flush for r in records)
        assert runtime.metrics.punctuations_seen == len(ordered) // 25


class TestMultiQuery:
    def test_runtime_matches_independent_engine_runs(self):
        ordered = stream(count=250)
        queries = {"p": PATTERN_QUERY, "t": TYPE_QUERY, "m": MIXED_QUERY, "c": CONTIGUOUS_QUERY}
        expected = {
            name: CograEngine.from_text(text).run(ordered)
            for name, text in queries.items()
        }

        runtime = StreamingRuntime(lateness=LATENESS)
        for name, text in queries.items():
            runtime.register(text, name=name)
        records = runtime.run(bounded_shuffle(ordered, LATENESS))
        for name in queries:
            assert_results_equal(group_results(records, query=name), expected[name])

    def test_type_routing_skips_irrelevant_events(self):
        ordered = stream(count=250)  # C and D are no type of TYPE_QUERY's
        runtime = StreamingRuntime(lateness=LATENESS)
        runtime.register(TYPE_QUERY, name="routed")
        runtime.register(CONTIGUOUS_QUERY, name="broadcast")
        runtime.run(ordered)
        routed_seen = runtime.engine("routed").executor.events_seen
        broadcast_seen = runtime.engine("broadcast").executor.events_seen
        # the contiguous query must see every event (any event breaks
        # contiguity); the skip-till-any-match query only sees A and B
        assert broadcast_seen == len(ordered)
        assert routed_seen == sum(1 for e in ordered if e.event_type in "AB")

    def test_duplicate_names_rejected(self):
        runtime = StreamingRuntime()
        runtime.register(TYPE_QUERY, name="q")
        with pytest.raises(ValueError):
            runtime.register(PATTERN_QUERY, name="q")

    def test_registration_after_first_event_rejected(self):
        runtime = StreamingRuntime()
        runtime.register(TYPE_QUERY, name="q")
        runtime.process(Event("A", 1.0, {"g": "x", "v": 1}))
        with pytest.raises(RuntimeError):
            runtime.register(PATTERN_QUERY, name="late")

    def test_registration_after_punctuation_rejected(self):
        # a punctuation advances the watermark without counting as a data
        # event; registering behind it would make everything earlier late
        runtime = StreamingRuntime(watermark_strategy=PunctuationWatermark("Tick"))
        runtime.register(TYPE_QUERY, name="q")
        runtime.process(Event("Tick", 100.0))
        with pytest.raises(RuntimeError):
            runtime.register(PATTERN_QUERY, name="late")

    def test_processing_without_queries_rejected(self):
        with pytest.raises(RuntimeError):
            StreamingRuntime().process(Event("A", 1.0))

    def test_processing_after_flush_rejected(self):
        runtime = StreamingRuntime()
        runtime.register(TYPE_QUERY, name="q")
        runtime.run([Event("A", 1.0, {"g": "x", "v": 1})])
        with pytest.raises(RuntimeError):
            runtime.process(Event("A", 2.0, {"g": "x", "v": 1}))

    def test_same_engine_instance_cannot_back_two_queries(self):
        engine = CograEngine.from_text(TYPE_QUERY)
        runtime = StreamingRuntime()
        runtime.register(engine, name="first")
        with pytest.raises(ValueError):
            runtime.register(engine, name="second")

    def test_engine_registration_rejects_overrides(self):
        engine = CograEngine.from_text(TYPE_QUERY)
        with pytest.raises(ValueError):
            StreamingRuntime().register(engine, name="q", granularity="event")
        with pytest.raises(ValueError):
            StreamingRuntime().register(engine, name="q", emit_empty_groups=True)


class TestLatePolicies:
    def _late_stream(self):
        # the 50.0 event pushes the watermark to 45.0; the 10.0 event is late
        return [
            Event("A", 50.0, {"g": "x", "v": 1}, sequence=0),
            Event("A", 10.0, {"g": "x", "v": 1}, sequence=1),
        ]

    def test_drop_policy_counts_late_events(self):
        runtime = StreamingRuntime(lateness=LATENESS, late_policy=LatePolicy.DROP)
        runtime.register(TYPE_QUERY, name="q")
        for event in self._late_stream():
            runtime.process(event)
        assert runtime.metrics.late_events_dropped == 1
        assert runtime.late_events == []
        # the late event never entered the buffer, so it is not in the peak
        assert runtime.metrics.events_buffered_peak == 1

    def test_raise_policy_raises(self):
        runtime = StreamingRuntime(lateness=LATENESS, late_policy="raise")
        runtime.register(TYPE_QUERY, name="q")
        events = self._late_stream()
        runtime.process(events[0])
        with pytest.raises(LateEventError):
            runtime.process(events[1])
        # the raising event is still accounted for in the metrics
        assert runtime.metrics.late_events == 1
        assert runtime.metrics.events_ingested == 2

    def test_side_channel_policy_collects_late_events(self):
        runtime = StreamingRuntime(lateness=LATENESS, late_policy="side-channel")
        runtime.register(TYPE_QUERY, name="q")
        for event in self._late_stream():
            runtime.process(event)
        assert [e.time for e in runtime.late_events] == [10.0]
        assert runtime.metrics.late_events_rerouted == 1


class TestReprocessLate:
    QUERY = """
        RETURN g, COUNT(*)
        PATTERN A+
        SEMANTICS skip-till-any-match
        GROUP-BY g
        WITHIN 10 seconds SLIDE 10 seconds
    """

    def _runtime(self):
        runtime = StreamingRuntime(lateness=0.0, late_policy="side-channel")
        runtime.register(self.QUERY, name="q")
        return runtime

    def test_corrections_carry_the_late_contribution(self):
        runtime = self._runtime()
        records = []
        for time in (1.0, 2.0, 15.0):  # 15.0 emits and evicts window 0
            records.extend(runtime.process(Event("A", time, {"g": "x"})))
        # two A events => trends {a1}, {a2}, {a1 a2}
        assert [r.result.values["COUNT(*)"] for r in records] == [3]
        runtime.process(Event("A", 3.0, {"g": "x"}))  # late for window 0
        runtime.process(Event("A", 4.0, {"g": "y"}))  # late, new group

        corrections = runtime.reprocess_late()
        assert all(record.is_correction for record in corrections)
        assert all(record.as_dict()["is_correction"] for record in corrections)
        by_group = {
            record.result.group["g"]: record.result.values["COUNT(*)"]
            for record in corrections
        }
        # the additional contribution of the late events, to merge downstream
        assert by_group == {"x": 1, "y": 1}
        assert {record.result.window_id for record in corrections} == {0}
        # the side channel was drained; a second call is a no-op
        assert runtime.late_events == []
        assert runtime.reprocess_late() == []

    def test_reprocess_late_works_after_flush(self):
        runtime = self._runtime()
        runtime.process(Event("A", 20.0, {"g": "x"}))
        runtime.process(Event("A", 1.0, {"g": "x"}))  # late
        runtime.flush()
        corrections = runtime.reprocess_late()
        assert [record.result.window_id for record in corrections] == [0]

    def test_corrections_count_toward_emission_metrics(self):
        runtime = self._runtime()
        runtime.process(Event("A", 20.0, {"g": "x"}))
        runtime.process(Event("A", 1.0, {"g": "x"}))
        before = runtime.metrics.results_emitted
        emitted = len(runtime.reprocess_late())
        assert emitted == 1
        assert runtime.metrics.results_emitted == before + emitted

    def test_live_state_is_untouched_by_reprocessing(self):
        runtime = self._runtime()
        runtime.process(Event("A", 20.0, {"g": "x"}))
        runtime.process(Event("A", 1.0, {"g": "x"}))  # late
        runtime.reprocess_late()
        # the live window (starting at 20) still emits normally afterwards
        records = runtime.flush()
        assert [r.result.window_id for r in records] == [2]
        assert records[0].result.values["COUNT(*)"] == 1

    def test_ordinary_records_do_not_carry_the_flag(self):
        runtime = self._runtime()
        runtime.process(Event("A", 1.0, {"g": "x"}))
        records = runtime.flush()
        assert records and not records[0].is_correction
        assert "is_correction" not in records[0].as_dict()

    def test_sharded_runtime_reprocesses_late_events_too(self):
        from repro.streaming.sharded import ShardedRuntime

        runtime = ShardedRuntime(
            workers=2, lateness=0.0, late_policy="side-channel", ship_interval=1
        )
        runtime.register(self.QUERY, name="q")
        runtime.process(Event("A", 20.0, {"g": "x"}))
        runtime.process(Event("A", 1.0, {"g": "x"}))  # late
        corrections = runtime.reprocess_late()
        runtime.flush()
        assert [record.result.window_id for record in corrections] == [0]
        assert all(record.is_correction for record in corrections)

    @pytest.mark.parametrize("sharded", [False, True])
    def test_count_windows_are_not_corrected(self, sharded):
        """A replay restarts event ordinals at 0.

        Corrected, the late A@2.2 and B@2.5 below would patch window 0
        (ordinals 0-3) with ``COUNT(*) = 1``, a window they never belonged to.
        """
        from repro.streaming.sharded import ShardedRuntime

        kind = ShardedRuntime if sharded else StreamingRuntime
        # one worker: a count window would fall back to one shard anyway
        extra = {"workers": 1} if sharded else {}
        runtime = kind(lateness=0.0, late_policy="side-channel", **extra)
        runtime.register(
            "RETURN COUNT(*) PATTERN SEQ(A+, B) SEMANTICS skip-till-any-match "
            "WITHIN 4 events",
            name="q",
        )
        events = [Event("A", float(time)) for time in range(1, 11)]
        runtime.process_batch(events + [Event("A", 2.2), Event("B", 2.5)])
        late = runtime.late_events
        assert len(late) == 2
        with pytest.raises(ConfigError) as error:
            runtime.reprocess_late()
        assert str(error.value) == late_replay_reason({"q": True})
        assert runtime.late_events == late  # nothing was drained
        runtime.flush()


class TestEngineStream:
    def test_engine_stream_yields_batch_results_incrementally(self):
        ordered = stream(count=250)
        engine = CograEngine.from_text(TYPE_QUERY)
        batch = engine.run(ordered)
        streamed = list(
            engine.stream(bounded_shuffle(ordered, LATENESS), lateness=LATENESS)
        )
        assert_results_equal(streamed, batch)

    def test_engine_stream_raises_on_disorder_by_default(self):
        # run() raises StreamOrderError on disorder; stream() with the
        # default policy must not silently drop instead
        engine = CograEngine.from_text(TYPE_QUERY)
        events = [
            Event("A", 2.0, {"g": "x", "v": 1}, sequence=1),
            Event("A", 1.0, {"g": "x", "v": 1}, sequence=0),
        ]
        with pytest.raises(LateEventError):
            list(engine.stream(events, lateness=0.0))

    def test_engine_stream_is_lazy(self):
        engine = CograEngine.from_text(TYPE_QUERY)
        iterator = engine.stream([], lateness=0.0)
        assert hasattr(iterator, "__next__")
        assert list(iterator) == []

    def test_concurrent_streams_on_one_engine_rejected(self):
        engine = CograEngine.from_text(TYPE_QUERY)
        ordered = stream(count=250, types="AB")
        first = engine.stream(ordered, lateness=LATENESS)
        # the stream claims the engine at the call, before any iteration
        with pytest.raises(RuntimeError):
            engine.stream(ordered, lateness=LATENESS)
        next(first)
        with pytest.raises(RuntimeError):
            engine.run(ordered)  # run() resets too
        with pytest.raises(RuntimeError):
            engine.flush()  # flushing mid-stream would corrupt the results
        with pytest.raises(RuntimeError):
            engine.process(ordered[0])
        with pytest.raises(RuntimeError):
            engine.advance_time(1e9)
        first.close()
        # once the first stream is closed the engine is free again
        assert engine.run(ordered)

    def test_unstarted_stream_claims_and_releases_the_engine(self):
        engine = CograEngine.from_text(TYPE_QUERY)
        iterator = engine.stream([], lateness=0.0)
        with pytest.raises(RuntimeError):
            engine.process(Event("A", 1.0, {"g": "x", "v": 1}))
        iterator.close()  # closing a never-started stream frees the engine
        assert engine.run([]) == []


class TestMetrics:
    def test_counters_are_consistent_after_a_run(self):
        runtime = StreamingRuntime(lateness=LATENESS)
        runtime.register(TYPE_QUERY, name="q")
        ordered = stream(count=250)
        records = runtime.run(bounded_shuffle(ordered, LATENESS))
        metrics = runtime.metrics
        assert metrics.events_ingested == len(ordered)
        assert metrics.events_released == len(ordered)  # nothing late
        assert metrics.results_emitted == len(records)
        assert metrics.throughput() > 0
        assert metrics.mean_latency_ms() >= 0
        assert not math.isinf(metrics.watermark)
        describe = metrics.describe()
        assert "throughput" in describe and "watermark" in describe

    def test_watermark_lag_is_unbounded_without_a_watermark(self):
        runtime = StreamingRuntime(watermark_strategy=PunctuationWatermark("Tick"))
        runtime.register(TYPE_QUERY, name="q")
        assert runtime.metrics.watermark_lag() == 0.0  # nothing ingested yet
        runtime.process(Event("A", 100.0, {"g": "x", "v": 1}))
        # events seen but the source never punctuated: emission is stalled
        assert runtime.metrics.watermark_lag() == math.inf

    def test_injected_clock_makes_rates_deterministic(self):
        from repro.streaming.metrics import StreamingMetrics

        ticks = iter([100.0, 104.0, 104.0])
        metrics = StreamingMetrics(clock=lambda: next(ticks))
        assert metrics.elapsed_seconds() == 0.0  # before the first event
        metrics.record_ingest_batch(1, 1.0, 0)  # starts the clock at 100.0
        metrics.record_ingest_batch(1, 2.0, 0)  # does not consult the clock again
        assert metrics.elapsed_seconds() == 4.0
        assert metrics.throughput() == pytest.approx(0.5)  # 2 events / 4 s

    def test_runtime_accepts_a_replaced_clocked_metrics(self):
        from repro.streaming.metrics import StreamingMetrics

        runtime = StreamingRuntime(lateness=0.0)
        runtime.register(TYPE_QUERY, name="q")
        clock = iter([0.0, 10.0])
        runtime.metrics = StreamingMetrics(clock=lambda: next(clock))
        runtime.process(Event("A", 1.0, {"g": "x", "v": 1}))
        assert runtime.metrics.throughput() == pytest.approx(0.1)
