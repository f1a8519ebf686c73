"""Tests for the multi-process sharded streaming runtime.

A :class:`ShardedRuntime` with any worker count fed a shuffled
bounded-disorder stream emits exactly the end-to-end oracle's results, and
its checkpoints are topology independent (they restore across worker
counts and into the single-process runtime, and vice versa); the
configuration matrix (``test_differential_matrix.py``) samples those
combinations.  This file pins down the runtime's own pieces: the fallback,
validation, the driver accessors, checkpoint records, crash detection and
the pipe transport.
"""

import contextlib
import gc
import json
import math
import multiprocessing
import os
import pickle
import random
import signal
import struct
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

from differential import bounded_shuffle, canonical, stream
from repro.baselines.oracle import expected_records
from repro.core.engine import CograEngine
from repro.datasets.physical_activity import (
    PhysicalActivityConfig,
    generate_physical_activity_stream,
)
from repro.datasets.queries import (
    healthcare_query,
    stock_trend_query,
    transportation_query,
)
from repro.datasets.stock import StockConfig, generate_stock_stream
from repro.datasets.transportation import (
    TransportationConfig,
    generate_transportation_stream,
)
from repro.errors import CheckpointError, WorkerCrashError
from repro.events.event import Event
from repro.events.stream import sort_events
from repro.streaming.ingest import PunctuationWatermark
from repro.streaming.runtime import StreamingRuntime, group_results
from repro.streaming import sharded
from repro.streaming.sources import JsonlFileSource
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


#: equality classes the executor's ``==`` merges across int, float and bool
MIXED_KEYS = (1, 1.0, True, 0, 0.0, False, 2, 2.0, -5, -5.0, 7, 7.0)


def resumed_halfway(events, first, second):
    """Run ``first`` on half of ``events``, then ``second`` from its checkpoint.

    The checkpoint goes through JSON, as it does on disk; ``first`` is
    closed once its pending records are drained.
    """
    half = len(events) // 2
    records = []
    for event in events[:half]:
        records.extend(first.process(event))
    snapshot = json.loads(json.dumps(first.checkpoint()))
    records.extend(first.drain_pending())
    first.close()
    second.restore(snapshot)
    for event in events[half:]:
        records.extend(second.process(event))
    records.extend(second.flush())
    return records


def registered(runtime, query_text=TYPE_QUERY):
    runtime.register(query_text, name="q")
    return runtime


class TestParity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize(
        "query_text", [TYPE_QUERY, MIXED_QUERY, CONTIGUOUS_QUERY]
    )
    def test_matches_the_oracle(self, query_text, workers):
        shuffled = bounded_shuffle(stream(count=220), LATENESS)
        runtime = ShardedRuntime(workers=workers, lateness=LATENESS, ship_interval=7)
        runtime.register(query_text, name="q")
        expected = expected_records([("q", query_text)], shuffled, LATENESS)
        assert canonical(runtime.run(shuffled)) == canonical(expected)

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_mixed_numeric_keys_stay_one_group(self, workers):
        # the executor groups by ==, so 1, 1.0 and True are one sub-stream
        # in one process; the router must not split them over workers
        events = stream(17, 160, types="AB", groups=MIXED_KEYS)
        runtime = ShardedRuntime(workers=workers, lateness=LATENESS, ship_interval=7)
        runtime.register(TYPE_QUERY, name="q")
        expected = expected_records([("q", TYPE_QUERY)], events, LATENESS)
        assert canonical(runtime.run(events)) == canonical(expected)

    def test_multi_query_shared_signature(self):
        shuffled = bounded_shuffle(stream(count=220), LATENESS)
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
        events = stream(count=120)
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
        shuffled = bounded_shuffle(stream(count=220), LATENESS)
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
        shuffled = bounded_shuffle(stream(count=220), LATENESS)
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


def stamped(records):
    """Each record as one JSON line, its watermark stamp included."""
    return [
        json.dumps(
            {"watermark": repr(r.watermark), **r.as_dict()},
            sort_keys=True,
            default=str,
        )
        for r in records
    ]


#: a second query on another window grid: 7.5 s tumbling windows put edges
#: between the 10 s edges of TYPE_QUERY
TUMBLING_QUERY = MIXED_QUERY.replace(
    "WITHIN 20 seconds SLIDE 10 seconds", "WITHIN 7.5 seconds"
)

COUNT_QUERY = TYPE_QUERY.replace(
    "WITHIN 20 seconds SLIDE 10 seconds", "WITHIN 25 events"
)


class TestSteps:
    """The sharded parent ingests in the single-process runtime's steps.

    A step ends where a window of any query starts or ends, in time or in
    event ordinals, so the push reaching an edge ships alone with its own
    watermark: the stamps match the single-process run whatever the ship
    cadence and the slicing.
    """

    @staticmethod
    def _run(runtime, queries, events, slicing):
        for name, text in queries:
            runtime.register(text, name=name)
        return stamped(runtime.run(events, decode_batch_size=slicing or len(events)))

    @pytest.mark.parametrize("slicing", [1, 7, None])
    @pytest.mark.parametrize("ship_interval", [1, 7, 64, 100_000])
    def test_stamps_and_order_at_every_cadence(self, ship_interval, slicing):
        events = stream(count=400, span=120.0, disorder=LATENESS)

        def both(queries):
            single = StreamingRuntime(lateness=LATENESS)
            sharded = ShardedRuntime(
                workers=3, lateness=LATENESS, ship_interval=ship_interval
            )
            return (
                self._run(sharded, queries, events, slicing),
                self._run(single, queries, events, slicing),
            )

        records, expected = both([("q", TYPE_QUERY)])
        assert len(expected) > 40
        assert records == expected
        # records of several queries in one emission may interleave
        # differently, so the two-query run is compared as a set of lines
        records, expected = both([("a", TYPE_QUERY), ("b", TUMBLING_QUERY)])
        assert sorted(records) == sorted(expected)

    @pytest.mark.parametrize("slicing", [1, 7, None])
    @pytest.mark.parametrize(
        "queries",
        [
            [("a", TYPE_QUERY), ("b", TUMBLING_QUERY)],
            [("a", TYPE_QUERY), ("c", COUNT_QUERY)],
        ],
        ids=["time", "time+count"],
    )
    def test_one_step_definition(self, monkeypatch, queries, slicing):
        events = stream(count=300, span=90.0, disorder=LATENESS)
        steps = {}
        for kind in (StreamingRuntime, ShardedRuntime):
            original = kind._apply_push

            def counted(self, *args, _kind=kind, _original=original):
                steps[_kind] = steps.get(_kind, 0) + 1
                return _original(self, *args)

            monkeypatch.setattr(kind, "_apply_push", counted)
        single = StreamingRuntime(lateness=LATENESS)
        sharded = ShardedRuntime(workers=2, lateness=LATENESS)
        expected = self._run(single, queries, events, slicing)
        with warnings.catch_warnings():
            # a count window keeps the sharded run on one shard
            warnings.simplefilter("ignore", RuntimeWarning)
            records = self._run(sharded, queries, events, slicing)
        assert sorted(records) == sorted(expected)
        assert steps[ShardedRuntime] == steps[StreamingRuntime]
        if slicing != 1:
            assert steps[ShardedRuntime] < len(events)

    def test_a_slice_crossing_no_window_edge_ships_one_wave(self):
        def ticks(start, stop):
            return [
                Event("AB"[i % 2], start + i * 0.25, {"g": "uvwx"[i % 4], "v": i % 9})
                for i in range(int((stop - start) / 0.25))
            ]

        with ShardedRuntime(workers=2, lateness=0.0, ship_interval=1) as runtime:
            runtime.register(TYPE_QUERY, name="q")
            runtime.process_batch(ticks(0.0, 10.5))  # crosses the edge at 10
            shipped = [stats.batches_sent for stats in runtime.shard_stats]
            sent = sum(stats.events_sent for stats in runtime.shard_stats)
            runtime.process_batch(ticks(11.0, 19.75))  # stays below 20
            waves = [
                stats.batches_sent - before
                for stats, before in zip(runtime.shard_stats, shipped)
            ]
            assert max(waves) == 1
            assert sum(stats.events_sent for stats in runtime.shard_stats) > sent


def sharded_results(query, events, workers):
    """Group results of ``query`` over in-order ``events`` on ``workers``."""
    runtime = ShardedRuntime(workers=workers, lateness=0.0)
    runtime.register(query, name="q")
    return group_results(runtime.run(events)), runtime


@pytest.fixture(scope="module")
def stock_stream():
    return list(generate_stock_stream(StockConfig(event_count=600, seed=41)))


@pytest.fixture(scope="module")
def transportation_stream():
    return list(
        generate_transportation_stream(TransportationConfig(event_count=600, seed=42))
    )


class TestDatasetParity:
    """The paper's partitioned workloads: sharded == sequential batch run."""

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_stock_query_any_semantics(self, stock_stream, workers):
        query = stock_trend_query(window=None)
        sequential = CograEngine(query).run(stock_stream)
        sharded, _ = sharded_results(query, stock_stream, workers)
        assert_results_equal(sequential, sharded)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_transportation_query_next_semantics(self, transportation_stream, workers):
        query = transportation_query(semantics="skip-till-next-match", window=None)
        sequential = CograEngine(query).run(transportation_stream)
        sharded, _ = sharded_results(query, transportation_stream, workers)
        assert_results_equal(sequential, sharded)

    def test_healthcare_query_with_sliding_window(self):
        stream = list(
            generate_physical_activity_stream(
                PhysicalActivityConfig(event_count=400, seed=43)
            )
        )
        query = healthcare_query(semantics="contiguous")
        sequential = CograEngine(query).run(stream)
        sharded, _ = sharded_results(query, stream, 4)
        assert sequential
        assert_results_equal(sequential, sharded)

    def test_results_are_deterministically_ordered(self, stock_stream):
        query = stock_trend_query(window=None)
        first, _ = sharded_results(query, stock_stream, 4)
        second, _ = sharded_results(query, stock_stream, 2)
        assert [r.group for r in first] == [r.group for r in second]
        assert [r.window_id for r in first] == [r.window_id for r in second]

    def test_shard_stats_cover_every_partition(self, stock_stream):
        query = stock_trend_query(window=None)
        _, runtime = sharded_results(query, stock_stream, 2)
        assert runtime.shard_count == 2
        sent = [stats.events_sent for stats in runtime.shard_stats]
        assert sum(sent) == len(stock_stream)
        assert all(count > 0 for count in sent), "19 companies span both workers"

    def test_empty_stream_returns_no_results(self):
        results, runtime = sharded_results(stock_trend_query(window=None), [], 2)
        assert results == []
        assert sum(stats.events_sent for stats in runtime.shard_stats) == 0

    def test_accepts_query_object_and_text_alike(self):
        from_text, _ = sharded_results(TYPE_QUERY, stream(count=220), 2)
        from_object, _ = sharded_results(parse_query(TYPE_QUERY), stream(count=220), 2)
        assert from_text
        assert_results_equal(from_text, from_object)


class TestMixedNumericKeys:
    """``1``, ``1.0`` and ``True`` are one group, whatever the topology."""

    def test_alternating_int_and_float_key_is_one_group(self):
        query = """
        RETURN g, COUNT(*)
        PATTERN SEQ(A+, B)
        SEMANTICS skip-till-any-match
        GROUP-BY g
        """
        events = [
            Event("AAB"[index % 3], float(index), {"g": 1 if index % 2 else 1.0})
            for index in range(40)
        ]
        batch = CograEngine(query).run(events)
        assert len(batch) == 1
        for workers in (2, 3):
            sharded, runtime = sharded_results(query, events, workers)
            assert len(sharded) == 1
            assert sharded[0].trend_count == batch[0].trend_count
            assert sorted(s.events_sent for s in runtime.shard_stats)[:-1] == [0] * (
                workers - 1
            ), "the one group's events must all reach one worker"

    @pytest.mark.parametrize(
        "query_text", [MIXED_QUERY, CONTIGUOUS_QUERY], ids=["mixed", "contiguous"]
    )
    def test_other_granularities_keep_one_owner(self, query_text):
        events = stream(23, 160, types="AB", groups=MIXED_KEYS)
        expected = expected_records([("q", query_text)], events, LATENESS)

        runtime = ShardedRuntime(workers=3, lateness=LATENESS, ship_interval=7)
        runtime.register(query_text, name="q")
        assert canonical(runtime.run(events)) == canonical(expected)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_multi_attribute_keys(self, workers):
        query = """
        RETURN g, h, COUNT(*), SUM(A.v)
        PATTERN SEQ(A+, B)
        SEMANTICS skip-till-any-match
        GROUP-BY g, h
        WITHIN 20 seconds SLIDE 10 seconds
        """
        rng = random.Random(31)
        events = sort_events(
            Event(
                rng.choice("AB"),
                rng.uniform(0.0, 60.0),
                {
                    "g": rng.choice(["x", "y"]),
                    "h": rng.choice([0, 0.0, False, 1, 1.0, True, 3, 3.0]),
                    "v": rng.randint(1, 9),
                },
            )
            for _ in range(160)
        )
        expected = expected_records([("q", query)], events, LATENESS)

        runtime = ShardedRuntime(workers=workers, lateness=LATENESS)
        runtime.register(query, name="q")
        assert canonical(runtime.run(events)) == canonical(expected)

    def test_jsonl_float_key_joins_the_int_group(self, tmp_path):
        path = tmp_path / "events.jsonl"
        lines = [
            json.dumps({"type": "AAB"[index % 3], "time": float(index), "g": g, "v": 1})
            for index, g in enumerate([1, 1.0] * 15)
        ]
        path.write_text("\n".join(lines) + "\n")
        events = list(JsonlFileSource(path))
        assert {type(event.get("g")) for event in events} == {int, float}
        expected = expected_records([("q", TYPE_QUERY)], events, 0.0)

        runtime = ShardedRuntime(workers=2, lateness=0.0)
        runtime.register(TYPE_QUERY, name="q")
        assert canonical(runtime.run(events)) == canonical(expected)

    def test_sharded_snapshot_restores_into_single_process(self):
        events = stream(9, 200, types="AB", groups=MIXED_KEYS)
        records = resumed_halfway(
            events,
            registered(ShardedRuntime(workers=3, lateness=LATENESS, ship_interval=5)),
            registered(StreamingRuntime(lateness=LATENESS)),
        )
        expected = expected_records([("q", TYPE_QUERY)], events, LATENESS)
        assert canonical(records) == canonical(expected)

    def test_single_process_snapshot_restores_into_sharded(self):
        events = stream(11, 200, types="AB", groups=MIXED_KEYS)
        records = resumed_halfway(
            events,
            registered(StreamingRuntime(lateness=LATENESS)),
            registered(ShardedRuntime(workers=4, lateness=LATENESS, ship_interval=5)),
        )
        expected = expected_records([("q", TYPE_QUERY)], events, LATENESS)
        assert canonical(records) == canonical(expected)


class TestSingleShardFallback:
    def test_unpartitioned_query_falls_back(self):
        shuffled = bounded_shuffle(stream(count=220), LATENESS)
        expected = expected_records([("q", UNPARTITIONED_QUERY)], shuffled, LATENESS)

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
        runtime = ShardedRuntime(workers=1, lateness=LATENESS)
        runtime.register(UNPARTITIONED_QUERY, name="q")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            runtime.run(stream(count=40))
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
        runtime.run(stream(count=30))
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


def either_runtime(kind, **options):
    if kind == "sharded":
        return ShardedRuntime(workers=2, ship_interval=8, **options)
    return StreamingRuntime(**options)


BOTH_RUNTIMES = pytest.mark.parametrize("kind", ["single", "sharded"])


class TestDriverAccessors:
    """The introspection members both runtimes share answer alike."""

    @BOTH_RUNTIMES
    def test_plan_versions_list_every_registered_query(self, kind):
        runtime = either_runtime(kind, lateness=LATENESS)
        runtime.register(TYPE_QUERY, name="a")
        runtime.register(MIXED_QUERY, name="b")
        try:
            assert runtime.plan_versions == {"a": 0, "b": 0}
            assert runtime.replan_log == []
            assert runtime.query_observations() == {}
        finally:
            runtime.close()

    @BOTH_RUNTIMES
    def test_a_migration_versions_only_its_query(self, kind):
        runtime = either_runtime(kind, lateness=LATENESS)
        runtime.register(TYPE_QUERY, name="a", granularity="type")
        runtime.register(MIXED_QUERY, name="b")
        try:
            assert runtime.migrate_granularity("a", "event")
            assert runtime.plan_versions == {"a": 1, "b": 0}
            assert [
                (r["query"], r["from"], r["to"], r["version"])
                for r in runtime.replan_log
            ] == [("a", "type", "event", 1)]
        finally:
            runtime.close()

    @BOTH_RUNTIMES
    def test_watermark_and_buffered_events_follow_the_reorder_buffer(self, kind):
        runtime = either_runtime(kind, lateness=LATENESS)
        runtime.register(TYPE_QUERY, name="q")
        try:
            assert runtime.watermark == -math.inf
            assert runtime.buffered_events == 0
            for time_ in (10.0, 12.0, 13.0, 20.0):
                runtime.process(Event("A", time_, {"g": "x", "v": 1}))
            # the watermark trails the latest time by the lateness bound;
            # only the event at 20 is not yet below it
            assert runtime.watermark == 15.0
            assert runtime.buffered_events == 1
            runtime.flush()
            assert runtime.buffered_events == 0
        finally:
            runtime.close()

    @BOTH_RUNTIMES
    def test_take_late_events_drains_the_side_channel(self, kind):
        runtime = either_runtime(kind, lateness=0.0, late_policy="side-channel")
        runtime.register(TYPE_QUERY, name="q")
        try:
            runtime.process(Event("A", 50.0, {"g": "x", "v": 1}))
            runtime.process(Event("B", 1.0, {"g": "x", "v": 2}))
            runtime.process(Event("A", 2.0, {"g": "y", "v": 3}))
            # reading the side channel leaves it in place; taking drains it
            assert [e.time for e in runtime.late_events] == [1.0, 2.0]
            assert [e.time for e in runtime.take_late_events()] == [1.0, 2.0]
            assert runtime.late_events == []
            assert runtime.take_late_events() == []
            assert runtime.metrics.late_events_rerouted == 2
        finally:
            runtime.close()


class TestCheckpoint:
    def test_roundtrip_across_worker_counts(self):
        shuffled = bounded_shuffle(stream(count=260), LATENESS)
        expected = expected_records([("q", TYPE_QUERY)], shuffled, LATENESS)
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
        assert canonical(records) == canonical(expected)

    def test_sharded_snapshot_restores_into_single_process(self):
        shuffled = bounded_shuffle(stream(count=260), LATENESS)
        records = resumed_halfway(
            shuffled,
            registered(ShardedRuntime(workers=3, lateness=LATENESS, ship_interval=5)),
            registered(StreamingRuntime(lateness=LATENESS)),
        )
        expected = expected_records([("q", TYPE_QUERY)], shuffled, LATENESS)
        assert canonical(records) == canonical(expected)

    def test_single_process_snapshot_restores_into_sharded(self):
        shuffled = bounded_shuffle(stream(count=260), LATENESS)
        records = resumed_halfway(
            shuffled,
            registered(StreamingRuntime(lateness=LATENESS)),
            registered(ShardedRuntime(workers=2, lateness=LATENESS, ship_interval=5)),
        )
        expected = expected_records([("q", TYPE_QUERY)], shuffled, LATENESS)
        assert canonical(records) == canonical(expected)

    def test_mixed_numeric_keys_restore_across_worker_counts(self):
        # (1,), (1.0,) and (True,) are one group: the checkpoint splitter
        # must re-home its aggregator to the worker the router sends the
        # group's later events to, whichever form they carry
        events = stream(5, 200, types="AB", groups=MIXED_KEYS)
        records = resumed_halfway(
            events,
            registered(ShardedRuntime(workers=2, lateness=LATENESS, ship_interval=5)),
            registered(ShardedRuntime(workers=3, lateness=LATENESS, ship_interval=5)),
        )
        expected = expected_records([("q", TYPE_QUERY)], events, LATENESS)
        assert canonical(records) == canonical(expected)

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


@contextlib.contextmanager
def deadline(seconds):
    """Turn a hang into a test failure after ``seconds``."""

    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class _TearingPipes:
    """A worker's pipe ends; the worker dies halfway into its flush ack frame.

    The parent is then blocked reading that frame: nothing else is left to
    ship, so only the end of the pipe can tell it the worker is gone.
    """

    def __init__(self, inbox, outbox):
        self._inbox = inbox
        self._outbox = outbox
        self._op = None

    def recv_bytes(self):
        body = self._inbox.recv_bytes()
        message = pickle.loads(body)
        self._op = message and message[0]
        return body

    def send_bytes(self, body):
        if self._op == "flush":
            frame = struct.pack("!i", len(body)) + body
            os.write(self._outbox.fileno(), frame[: 4 + len(body) // 2])
            os._exit(9)
        self._outbox.send_bytes(body)


def _tearing_worker_loop(shard, specs, inbox, outbox):
    """The worker body, except that shard 1's first incarnation tears a frame."""
    if multiprocessing.current_process().name == "cogra-shard-1":
        inbox = outbox = _TearingPipes(inbox, outbox)
    _worker_loop(shard, specs, inbox, outbox)


class TestPipeTransport:
    """The parent talks to its workers over plain pipes from its own thread."""

    def test_acks_larger_than_a_pipe_buffer_do_not_deadlock(self, monkeypatch):
        # one tumbling window over 3,000 groups closes at t=11: each worker's
        # ack of that wave carries ~1,500 records, while up to 64 waves of
        # one 2 KiB event each wait in its inbox
        query = """
        RETURN g, COUNT(*)
        PATTERN SEQ(A+, B)
        SEMANTICS skip-till-any-match
        GROUP-BY g
        WITHIN 10 seconds SLIDE 10 seconds
        """
        pad = "x" * 2048
        groups = 3000
        events = sort_events(
            [Event("A", 1.0 + g * 1e-4, {"g": g, "pad": pad}) for g in range(groups)]
            + [Event("B", 2.0 + g * 1e-4, {"g": g, "pad": pad}) for g in range(groups)]
            + [Event("A", 11.0 + i * 0.01, {"g": i, "pad": pad}) for i in range(200)]
        )
        expected = expected_records([("q", query)], events, 0.0)
        blob_sizes = []

        def decode(blob):
            blob_sizes.append(len(blob))
            return _decode_record_blob(blob)

        monkeypatch.setattr(sharded, "_decode_record_blob", decode)
        runtime = ShardedRuntime(
            workers=2, lateness=0.0, ship_interval=1, max_inflight=64
        )
        runtime.register(query, name="q")
        with deadline(120):
            records = runtime.run(events)
        assert max(blob_sizes) > 64 * 1024
        assert canonical(records) == canonical(expected)

    @pytest.mark.parametrize("max_restarts", [1, 0])
    def test_worker_dying_halfway_into_an_ack_frame(self, monkeypatch, max_restarts):
        shuffled = bounded_shuffle(stream(count=220), LATENESS)

        def run():
            runtime = ShardedRuntime(
                workers=2, lateness=LATENESS, ship_interval=4, max_restarts=max_restarts
            )
            runtime.register(TYPE_QUERY, name="q")
            return runtime, runtime.run(shuffled)

        _, uncrashed = run()
        monkeypatch.setattr(sharded, "_worker_loop", _tearing_worker_loop)
        with deadline(60):
            if max_restarts == 0:
                with pytest.raises(WorkerCrashError) as excinfo:
                    run()
                assert excinfo.value.shard == 1
                return
            runtime, records = run()
        assert runtime.restart_counts == [0, 1]
        assert [r.as_dict() for r in records] == [r.as_dict() for r in uncrashed]

    def test_no_helper_threads(self):
        shuffled = bounded_shuffle(stream(count=220), LATENESS)
        before = threading.active_count()
        runtime = ShardedRuntime(workers=2, lateness=LATENESS, ship_interval=4)
        runtime.register(TYPE_QUERY, name="q")
        records = runtime.process_batch(shuffled[:100])
        assert threading.active_count() == before
        records += runtime.process_batch(shuffled[100:])
        records += runtime.flush()
        runtime.close()
        assert threading.active_count() == before
        assert canonical(records) == canonical(
            expected_records([("q", TYPE_QUERY)], shuffled, LATENESS)
        )

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_fifty_cycles_leave_the_descriptor_count_flat(self):
        events = stream(count=60)

        def cycle():
            runtime = ShardedRuntime(workers=2, lateness=LATENESS)
            runtime.register(TYPE_QUERY, name="q")
            runtime.run(events)
            runtime.close()

        cycle()
        # garbage left by earlier tests may hold descriptors: collect it on
        # both sides, so only what the cycles leave open is counted
        gc.collect()
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(50):
            cycle()
        gc.collect()
        assert len(os.listdir("/proc/self/fd")) == before

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
    def test_workers_of_a_killed_parent_exit(self):
        script = (
            "import sys, time\n"
            "from repro.events.event import Event\n"
            "from repro.streaming.sharded import ShardedRuntime\n"
            "runtime = ShardedRuntime(workers=2)\n"
            "runtime.register(sys.argv[1], name='q')\n"
            "runtime.process(Event('A', 1.0, {'g': 'x', 'v': 1}))\n"
            "print(*(proc.pid for proc in runtime._procs), flush=True)\n"
            "time.sleep(60)\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        parent = subprocess.Popen(
            [sys.executable, "-c", script, TYPE_QUERY],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        workers = [int(pid) for pid in parent.stdout.readline().split()]
        parent.stdout.close()
        parent.kill()
        parent.wait(timeout=10)

        def running(pid):
            try:
                state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
            except OSError:
                return False
            return state != "Z"

        give_up = time.monotonic() + 10.0
        while any(map(running, workers)) and time.monotonic() < give_up:
            time.sleep(0.02)
        orphans = [pid for pid in workers if running(pid)]
        for pid in orphans:
            os.kill(pid, signal.SIGKILL)
        assert len(workers) == 2 and not orphans

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
    )
    def test_spawn_start_method_matches_fork(self):
        shuffled = bounded_shuffle(stream(count=220), LATENESS)
        rows = {}
        for method in ("fork", "spawn"):
            runtime = ShardedRuntime(
                workers=2, lateness=LATENESS, ship_interval=7, start_method=method
            )
            runtime.register(TYPE_QUERY, name="q")
            rows[method] = [record.as_dict() for record in runtime.run(shuffled)]
        assert rows["spawn"] == rows["fork"]
        assert rows["fork"]


class TestWorkerLoopInProcess:
    """The worker body run synchronously over pre-loaded pipes."""

    def _specs(self):
        return [_QuerySpec("q", parse_query(TYPE_QUERY, name="q"), None, False)]

    def _run(self, specs, *messages):
        """Run the worker loop over ``messages``; return its ack pipe's reader."""
        inbox, inbox_writer = multiprocessing.Pipe(duplex=False)
        acks, outbox = multiprocessing.Pipe(duplex=False)
        for message in messages:
            inbox_writer.send(message)
        _worker_loop(0, specs, inbox, outbox)
        return acks

    def test_batch_flush_cycle(self):
        events = [
            Event("A", 1.0, {"g": "x", "v": 2}),
            Event("B", 2.0, {"g": "x", "v": 1}, sequence=1),
        ]
        acks = self._run(
            self._specs(),
            ("batch", 0, _encode_event_blob(events), None),
            ("flush", 1, []),
            None,
        )

        ready = acks.recv()
        assert ready == ("ok", -1, 0, "ready", 0.0)
        ok, epoch, shard, records, _ = acks.recv()
        assert (ok, epoch, shard, records) == ("ok", 0, 0, [])
        ok, epoch, shard, records, _ = acks.recv()
        assert (ok, epoch) == ("ok", 1)
        records = _decode_record_blob(records)
        assert [r.result.trend_count for r in records] == [1]
        assert all(math.isinf(r.watermark) for r in records)

    def test_checkpoint_and_restore_ops(self):
        wave = _encode_event_blob([Event("A", 1.0, {"g": "x", "v": 2})])
        acks = self._run(
            self._specs(), ("batch", 0, wave, 0.5), ("checkpoint", 1), None
        )
        acks.recv()  # ready
        acks.recv()  # batch ack
        _, _, _, payload, _ = acks.recv()
        assert payload["executors"]["q"]["events_seen"] == 1

        acks = self._run(
            self._specs(),
            ("restore", 0, payload["executors"]),
            ("flush", 1, []),
            None,
        )
        acks.recv()  # ready
        assert acks.recv()[:4] == ("ok", 0, 0, None)
        ok, epoch, _, records, _ = acks.recv()
        assert (ok, epoch) == ("ok", 1)
        # the restored A at t=1 forms one (incomplete) trend: no B yet
        assert records == []

    def test_broken_spec_reports_error(self):
        acks = self._run([object()])
        status, epoch, shard, text = acks.recv()
        assert (status, epoch, shard) == ("error", -1, 0)
        assert "Traceback" in text

    def test_unknown_operation_reports_error_and_stops(self):
        acks = self._run(self._specs(), ("warp", 0))
        acks.recv()  # ready
        status, epoch, _, text = acks.recv()
        assert (status, epoch) == ("error", 0)
        assert "unknown worker operation" in text


class TestEngineStream:
    def test_engine_stream_workers_matches_run(self):
        events = stream(count=150)
        engine = CograEngine(TYPE_QUERY)
        batch = engine.run(events)

        streamed = list(engine.stream(events, lateness=LATENESS, workers=2))
        assert_results_equal(streamed, batch)
        # the engine claim is released after exhaustion
        assert engine.run(events) == batch

    def test_engine_stream_workers_early_close_releases(self):
        events = stream(count=80)
        engine = CograEngine(TYPE_QUERY)
        run = engine.stream(events, lateness=LATENESS, workers=2)
        run.close()
        assert engine.run(events)  # engine usable again
