"""Tests for the multi-process sharded streaming runtime.

The central property: a :class:`ShardedRuntime` with any worker count fed a
shuffled bounded-disorder stream emits exactly the results of the
single-process :class:`StreamingRuntime` -- and its checkpoints are
topology independent (they restore across worker counts and into the
single-process runtime, and vice versa).
"""

import json
import math
import queue
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import CograEngine
from repro.errors import CheckpointError, WorkerCrashError
from repro.events.event import Event
from repro.events.stream import sort_events
from repro.streaming.ingest import PunctuationWatermark
from repro.streaming.runtime import StreamingRuntime, group_results
from repro.streaming.sharded import (
    ShardedRuntime,
    _QuerySpec,
    _decode_record_blob,
    _encode_event_blob,
    _worker_loop,
)
from repro.query.parser import parse_query
from helpers import assert_results_equal

LATENESS = 5.0

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

UNPARTITIONED_QUERY = """
RETURN COUNT(*)
PATTERN SEQ(A+, B)
SEMANTICS skip-till-any-match
WITHIN 20 seconds SLIDE 10 seconds
"""


def make_stream(count=220, seed=13, types="ABC", groups="xyzw"):
    rng = random.Random(seed)
    return sort_events(
        Event(
            rng.choice(types),
            rng.uniform(0.0, 100.0),
            {"g": rng.choice(groups), "v": rng.randint(1, 9)},
        )
        for _ in range(count)
    )


def bounded_shuffle(events, disorder, seed=29):
    rng = random.Random(seed)
    return sorted(
        events, key=lambda e: (e.time + rng.uniform(0.0, disorder), e.sequence)
    )


def single_process_records(query_text, events, lateness=LATENESS):
    runtime = StreamingRuntime(lateness=lateness)
    runtime.register(query_text, name="q")
    return runtime.run(events)


def canonical(records):
    """Canonical byte form of emitted results (order independent)."""
    rows = sorted(
        json.dumps(
            {"query": r.query, "result": r.result.as_dict(), "trends": r.result.trend_count},
            sort_keys=True,
            default=str,
        )
        for r in records
    )
    return "\n".join(rows).encode("utf-8")


class TestParity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize(
        "query_text", [TYPE_QUERY, MIXED_QUERY, CONTIGUOUS_QUERY]
    )
    def test_matches_single_process(self, query_text, workers):
        shuffled = bounded_shuffle(make_stream(), LATENESS)
        expected = single_process_records(query_text, shuffled)

        runtime = ShardedRuntime(workers=workers, lateness=LATENESS, ship_interval=7)
        runtime.register(query_text, name="q")
        records = runtime.run(shuffled)

        assert_results_equal(group_results(records), group_results(expected))
        assert canonical(records) == canonical(expected)

    def test_byte_identical_records_at_ship_interval_one(self):
        """With per-push shipping even the watermark stamps match."""
        shuffled = bounded_shuffle(make_stream(), LATENESS)
        expected = single_process_records(TYPE_QUERY, shuffled)

        runtime = ShardedRuntime(workers=3, lateness=LATENESS, ship_interval=1)
        runtime.register(TYPE_QUERY, name="q")
        records = runtime.run(shuffled)

        def full(records):
            return sorted(
                json.dumps(
                    {"watermark": repr(r.watermark), **r.as_dict()},
                    sort_keys=True,
                    default=str,
                ).encode("utf-8")
                for r in records
            )

        assert full(records) == full(expected)

    def test_multi_query_shared_signature(self):
        shuffled = bounded_shuffle(make_stream(), LATENESS)
        single = StreamingRuntime(lateness=LATENESS)
        single.register(TYPE_QUERY, name="a")
        single.register(MIXED_QUERY, name="b")
        expected = single.run(shuffled)

        runtime = ShardedRuntime(workers=2, lateness=LATENESS)
        runtime.register(TYPE_QUERY, name="a")
        runtime.register(MIXED_QUERY, name="b")
        records = runtime.run(shuffled)

        assert runtime.query_names == ["a", "b"]
        for name in ("a", "b"):
            assert_results_equal(
                group_results(records, name), group_results(expected, name)
            )

    def test_punctuation_watermarks(self):
        events = make_stream(count=120)
        with_punctuation = []
        for index, event in enumerate(events):
            with_punctuation.append(event)
            if index % 10 == 9:
                with_punctuation.append(Event("WM", event.time))

        single = StreamingRuntime(watermark_strategy=PunctuationWatermark("WM"))
        single.register(TYPE_QUERY, name="q")
        expected = single.run(with_punctuation)

        runtime = ShardedRuntime(
            workers=2, watermark_strategy=PunctuationWatermark("WM")
        )
        runtime.register(TYPE_QUERY, name="q")
        records = runtime.run(with_punctuation)

        assert_results_equal(group_results(records), group_results(expected))
        assert runtime.metrics.punctuations_seen == 12

    def test_emit_empty_groups(self):
        shuffled = bounded_shuffle(make_stream(), LATENESS)
        single = StreamingRuntime(lateness=LATENESS, emit_empty_groups=True)
        single.register(TYPE_QUERY, name="q")
        expected = single.run(shuffled)

        runtime = ShardedRuntime(
            workers=2, lateness=LATENESS, emit_empty_groups=True
        )
        runtime.register(TYPE_QUERY, name="q")
        records = runtime.run(shuffled)
        assert_results_equal(group_results(records), group_results(expected))

    def test_metrics_aggregation(self):
        shuffled = bounded_shuffle(make_stream(), LATENESS)
        runtime = ShardedRuntime(workers=2, lateness=LATENESS)
        runtime.register(TYPE_QUERY, name="q")
        records = runtime.run(shuffled)

        metrics = runtime.metrics
        assert metrics.events_ingested == len(shuffled)
        assert metrics.events_released == len(shuffled)
        assert metrics.results_emitted == len(records)
        assert metrics.watermark > 0
        # per-shard routing stats cover the whole stream exactly once
        assert sum(s.events_sent for s in runtime.shard_stats) == len(shuffled)
        assert sum(s.records_merged for s in runtime.shard_stats) == len(records)
        report = runtime.shard_report()
        assert "shard 0" in report and "shard 1" in report
        for stats in runtime.shard_stats:
            assert stats.as_dict()["events_sent"] == stats.events_sent
        assert "workers=2" in repr(runtime)


class TestSingleShardFallback:
    def test_unpartitioned_query_falls_back(self):
        shuffled = bounded_shuffle(make_stream(), LATENESS)
        expected = single_process_records(UNPARTITIONED_QUERY, shuffled)

        runtime = ShardedRuntime(workers=4, lateness=LATENESS)
        runtime.register(UNPARTITIONED_QUERY, name="q")
        with pytest.warns(RuntimeWarning, match="no partition attributes"):
            records = runtime.run(shuffled)

        assert runtime.shard_count == 1
        assert "no partition attributes" in runtime.fallback_reason
        assert_results_equal(group_results(records), group_results(expected))

    def test_mixed_partition_signatures_fall_back(self):
        other = """
        RETURN h, COUNT(*)
        PATTERN SEQ(A+, B)
        SEMANTICS skip-till-any-match
        GROUP-BY h
        WITHIN 20 seconds SLIDE 10 seconds
        """
        runtime = ShardedRuntime(workers=4, lateness=LATENESS)
        runtime.register(TYPE_QUERY, name="a")
        runtime.register(other, name="b")
        rng = random.Random(5)
        events = sort_events(
            Event("A", rng.uniform(0, 50), {"g": "x", "h": "y", "v": 1})
            for _ in range(30)
        )
        with pytest.warns(RuntimeWarning, match="different attributes"):
            runtime.run(events)
        assert runtime.shard_count == 1
        assert "different attributes" in runtime.fallback_reason

    def test_single_worker_fallback_does_not_warn(self):
        import warnings

        runtime = ShardedRuntime(workers=1, lateness=LATENESS)
        runtime.register(UNPARTITIONED_QUERY, name="q")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            runtime.run(make_stream(count=40))
        assert runtime.shard_count == 1


class TestValidation:
    def test_rejects_invalid_configuration(self):
        with pytest.raises(ValueError, match="shards.workers"):
            ShardedRuntime(workers=0)
        with pytest.raises(ValueError, match="ship_interval"):
            ShardedRuntime(ship_interval=0)
        with pytest.raises(ValueError, match="max_batch"):
            ShardedRuntime(max_batch=0)

    def test_rejects_prepared_engine(self):
        runtime = ShardedRuntime(workers=2)
        with pytest.raises(TypeError, match="CograEngine"):
            runtime.register(CograEngine(TYPE_QUERY))

    def test_rejects_duplicate_names(self):
        runtime = ShardedRuntime(workers=2)
        runtime.register(TYPE_QUERY, name="q")
        with pytest.raises(ValueError, match="already registered"):
            runtime.register(MIXED_QUERY, name="q")

    def test_rejects_registration_after_start(self):
        runtime = ShardedRuntime(workers=2, lateness=LATENESS)
        runtime.register(TYPE_QUERY, name="q")
        runtime.process(Event("A", 1.0, {"g": "x", "v": 1}))
        with pytest.raises(RuntimeError, match="before the first event"):
            runtime.register(MIXED_QUERY, name="other")
        runtime.close()

    def test_rejects_processing_without_queries(self):
        runtime = ShardedRuntime(workers=2)
        with pytest.raises(RuntimeError, match="no queries"):
            runtime.process(Event("A", 1.0, {"g": "x"}))

    def test_rejects_processing_after_flush(self):
        runtime = ShardedRuntime(workers=2, lateness=LATENESS)
        runtime.register(TYPE_QUERY, name="q")
        runtime.run(make_stream(count=30))
        with pytest.raises(RuntimeError, match="flushed"):
            runtime.process(Event("A", 200.0, {"g": "x", "v": 1}))
        with pytest.raises(RuntimeError, match="flushed"):
            runtime.checkpoint()

    def test_context_manager_closes_workers(self):
        with ShardedRuntime(workers=2, lateness=LATENESS) as runtime:
            runtime.register(TYPE_QUERY, name="q")
            runtime.process(Event("A", 1.0, {"g": "x", "v": 1}))
            procs = list(runtime._procs)
            assert all(proc.is_alive() for proc in procs)
        assert all(not proc.is_alive() for proc in procs)


class TestCheckpoint:
    def test_roundtrip_across_worker_counts(self):
        shuffled = bounded_shuffle(make_stream(count=260), LATENESS)
        expected = single_process_records(TYPE_QUERY, shuffled)
        half = len(shuffled) // 2

        first = ShardedRuntime(workers=2, lateness=LATENESS, ship_interval=5)
        first.register(TYPE_QUERY, name="q")
        records = []
        for event in shuffled[:half]:
            records.extend(first.process(event))
        snapshot = json.loads(json.dumps(first.checkpoint()))
        records.extend(first.drain_pending())
        first.close()
        assert snapshot["sharded"]["workers"] == 2
        # the router map travels with the topology record (seed version 0)
        assert snapshot["sharded"]["router"]["version"] == 0
        assert len(snapshot["sharded"]["router"]["assignment"]) % 2 == 0

        resumed = ShardedRuntime(workers=4, lateness=LATENESS, ship_interval=5)
        resumed.register(TYPE_QUERY, name="q")
        resumed.restore(snapshot)
        for event in shuffled[half:]:
            records.extend(resumed.process(event))
        records.extend(resumed.flush())

        assert_results_equal(group_results(records), group_results(expected))

    def test_sharded_snapshot_restores_into_single_process(self):
        shuffled = bounded_shuffle(make_stream(count=260), LATENESS)
        expected = single_process_records(TYPE_QUERY, shuffled)
        half = len(shuffled) // 2

        sharded = ShardedRuntime(workers=3, lateness=LATENESS, ship_interval=5)
        sharded.register(TYPE_QUERY, name="q")
        records = []
        for event in shuffled[:half]:
            records.extend(sharded.process(event))
        snapshot = sharded.checkpoint()
        records.extend(sharded.drain_pending())
        sharded.close()

        single = StreamingRuntime(lateness=LATENESS)
        single.register(TYPE_QUERY, name="q")
        single.restore(snapshot)
        for event in shuffled[half:]:
            records.extend(single.process(event))
        records.extend(single.flush())
        assert_results_equal(group_results(records), group_results(expected))

    def test_single_process_snapshot_restores_into_sharded(self):
        shuffled = bounded_shuffle(make_stream(count=260), LATENESS)
        expected = single_process_records(TYPE_QUERY, shuffled)
        half = len(shuffled) // 2

        single = StreamingRuntime(lateness=LATENESS)
        single.register(TYPE_QUERY, name="q")
        records = []
        for event in shuffled[:half]:
            records.extend(single.process(event))
        snapshot = single.checkpoint()

        sharded = ShardedRuntime(workers=2, lateness=LATENESS, ship_interval=5)
        sharded.register(TYPE_QUERY, name="q")
        sharded.restore(snapshot)
        for event in shuffled[half:]:
            records.extend(sharded.process(event))
        records.extend(sharded.flush())
        assert_results_equal(group_results(records), group_results(expected))

    def test_restore_rejects_wrong_version(self):
        runtime = ShardedRuntime(workers=2)
        runtime.register(TYPE_QUERY, name="q")
        with pytest.raises(CheckpointError, match="version"):
            runtime.restore({"version": 999})
        runtime.close()

    def test_failed_restore_stops_workers(self):
        source = ShardedRuntime(workers=2, lateness=LATENESS)
        source.register(TYPE_QUERY, name="q")
        source.process(Event("A", 1.0, {"g": "x", "v": 1}))
        snapshot = source.checkpoint()
        source.close()

        snapshot["ingest"] = {"bogus": True}  # corrupt the parent state
        target = ShardedRuntime(workers=2, lateness=LATENESS)
        target.register(TYPE_QUERY, name="q")
        target.process(Event("A", 1.0, {"g": "x", "v": 1}))
        procs = list(target._procs)
        with pytest.raises(CheckpointError, match="cannot restore"):
            target.restore(snapshot)
        assert all(not proc.is_alive() for proc in procs), (
            "a failed restore must not leak idle worker processes"
        )
        with pytest.raises(RuntimeError):
            target.process(Event("A", 2.0, {"g": "x", "v": 1}))

    def test_restore_rejects_different_queries(self):
        source = ShardedRuntime(workers=2, lateness=LATENESS)
        source.register(TYPE_QUERY, name="q")
        source.process(Event("A", 1.0, {"g": "x", "v": 1}))
        snapshot = source.checkpoint()
        source.close()

        other = ShardedRuntime(workers=2, lateness=LATENESS)
        other.register(MIXED_QUERY, name="q")
        with pytest.raises(CheckpointError, match="do not match"):
            other.restore(snapshot)
        other.close()


class TestCrashDetection:
    def test_dead_worker_raises_cleanly(self):
        runtime = ShardedRuntime(workers=2, lateness=0.0, ship_interval=1)
        runtime.register(TYPE_QUERY, name="q")
        runtime.process(Event("A", 1.0, {"g": "x", "v": 1}))
        # simulate an OOM kill of one worker
        victim = runtime._procs[1]
        victim.terminate()
        victim.join(timeout=10)
        with pytest.raises(WorkerCrashError) as excinfo:
            deadline = 500
            for index in range(deadline):
                runtime.process(
                    Event("A", 2.0 + index, {"g": "xyzw"[index % 4], "v": 1})
                )
            runtime.flush()
        assert excinfo.value.shard == 1
        with pytest.raises(RuntimeError, match="closed after a failure"):
            runtime.process(Event("A", 999.0, {"g": "x", "v": 1}))

    def test_worker_error_surfaces_traceback(self):
        # an unknown operation makes the worker report an error ack
        runtime = ShardedRuntime(workers=1, lateness=0.0)
        runtime.register(TYPE_QUERY, name="q")
        runtime.process(Event("A", 1.0, {"g": "x", "v": 1}))
        runtime._ship("explode", range(runtime.shard_count))
        with pytest.raises(WorkerCrashError, match="unknown worker operation"):
            runtime._drain_acks(block=True)


class TestWorkerLoopInProcess:
    """The worker body run synchronously with plain queues."""

    def _specs(self):
        return [_QuerySpec("q", parse_query(TYPE_QUERY, name="q"), None, False)]

    def test_batch_flush_cycle(self):
        inbox, outbox = queue.Queue(), queue.Queue()
        events = [
            Event("A", 1.0, {"g": "x", "v": 2}),
            Event("B", 2.0, {"g": "x", "v": 1}, sequence=1),
        ]
        inbox.put(("batch", 0, _encode_event_blob(events), None))
        inbox.put(("flush", 1, []))
        inbox.put(None)
        _worker_loop(0, self._specs(), inbox, outbox)

        ready = outbox.get_nowait()
        assert ready == ("ok", -1, 0, "ready", 0.0)
        ok, epoch, shard, records, _ = outbox.get_nowait()
        assert (ok, epoch, shard, records) == ("ok", 0, 0, [])
        ok, epoch, shard, records, _ = outbox.get_nowait()
        assert (ok, epoch) == ("ok", 1)
        records = _decode_record_blob(records)
        assert [r.result.trend_count for r in records] == [1]
        assert all(math.isinf(r.watermark) for r in records)

    def test_checkpoint_and_restore_ops(self):
        inbox, outbox = queue.Queue(), queue.Queue()
        wave = _encode_event_blob([Event("A", 1.0, {"g": "x", "v": 2})])
        inbox.put(("batch", 0, wave, 0.5))
        inbox.put(("checkpoint", 1))
        inbox.put(None)
        _worker_loop(0, self._specs(), inbox, outbox)
        outbox.get_nowait()  # ready
        outbox.get_nowait()  # batch ack
        _, _, _, payload, _ = outbox.get_nowait()
        assert payload["executors"]["q"]["events_seen"] == 1

        inbox2, outbox2 = queue.Queue(), queue.Queue()
        inbox2.put(("restore", 0, payload["executors"]))
        inbox2.put(("flush", 1, []))
        inbox2.put(None)
        _worker_loop(0, self._specs(), inbox2, outbox2)
        outbox2.get_nowait()  # ready
        assert outbox2.get_nowait()[:4] == ("ok", 0, 0, None)
        ok, epoch, _, records, _ = outbox2.get_nowait()
        assert (ok, epoch) == ("ok", 1)
        # the restored A at t=1 forms one (incomplete) trend: no B yet
        assert records == []

    def test_broken_spec_reports_error(self):
        inbox, outbox = queue.Queue(), queue.Queue()
        _worker_loop(0, [object()], inbox, outbox)
        status, epoch, shard, text = outbox.get_nowait()
        assert (status, epoch, shard) == ("error", -1, 0)
        assert "Traceback" in text

    def test_unknown_operation_reports_error_and_stops(self):
        inbox, outbox = queue.Queue(), queue.Queue()
        inbox.put(("warp", 0))
        _worker_loop(0, self._specs(), inbox, outbox)
        outbox.get_nowait()  # ready
        status, epoch, _, text = outbox.get_nowait()
        assert (status, epoch) == ("error", 0)
        assert "unknown worker operation" in text


class TestEngineAndProperty:
    def test_engine_stream_workers_matches_run(self):
        events = make_stream(count=150)
        engine = CograEngine(TYPE_QUERY)
        batch = engine.run(events)

        streamed = list(engine.stream(events, lateness=LATENESS, workers=2))
        assert_results_equal(streamed, batch)
        # the engine claim is released after exhaustion
        assert engine.run(events) == batch

    def test_engine_stream_workers_early_close_releases(self):
        events = make_stream(count=80)
        engine = CograEngine(TYPE_QUERY)
        run = engine.stream(events, lateness=LATENESS, workers=2)
        run.close()
        assert engine.run(events)  # engine usable again

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        disorder=st.floats(min_value=0.0, max_value=LATENESS),
        count=st.integers(min_value=20, max_value=120),
    )
    def test_property_any_worker_count_matches_single_process(
        self, seed, disorder, count
    ):
        ordered = make_stream(count=count, seed=seed)
        shuffled = bounded_shuffle(ordered, disorder, seed=seed + 1)
        expected = single_process_records(TYPE_QUERY, shuffled)
        for workers in (1, 2, 4):
            runtime = ShardedRuntime(
                workers=workers, lateness=LATENESS, ship_interval=9
            )
            runtime.register(TYPE_QUERY, name="q")
            records = runtime.run(shuffled)
            assert canonical(records) == canonical(expected)

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        source_workers=st.sampled_from([1, 2, 4]),
        target_workers=st.sampled_from([1, 2, 3]),
    )
    def test_property_checkpoint_across_worker_counts(
        self, seed, source_workers, target_workers
    ):
        shuffled = bounded_shuffle(make_stream(count=120, seed=seed), LATENESS)
        expected = single_process_records(TYPE_QUERY, shuffled)
        half = len(shuffled) // 2

        first = ShardedRuntime(
            workers=source_workers, lateness=LATENESS, ship_interval=9
        )
        first.register(TYPE_QUERY, name="q")
        records = []
        for event in shuffled[:half]:
            records.extend(first.process(event))
        snapshot = first.checkpoint()
        records.extend(first.drain_pending())
        first.close()

        resumed = ShardedRuntime(
            workers=target_workers, lateness=LATENESS, ship_interval=9
        )
        resumed.register(TYPE_QUERY, name="q")
        resumed.restore(snapshot)
        for event in shuffled[half:]:
            records.extend(resumed.process(event))
        records.extend(resumed.flush())
        assert canonical(records) == canonical(expected)
