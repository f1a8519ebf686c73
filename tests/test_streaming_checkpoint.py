"""Tests for checkpoint/restore of the streaming runtime.

The central property: interrupting a runtime mid-stream (mid-window!),
snapshotting it, and resuming a fresh runtime from the snapshot yields
exactly the emission sequence of an uninterrupted run -- for every
granularity, through an actual JSON round trip.
"""

import json
import random
from pathlib import Path

import pytest

from differential import bounded_shuffle, stream
from repro.core.aggregate_state import TrendAccumulator
from repro.errors import CheckpointError
from repro.events.event import Event
from repro.query.parser import parse_query
from repro.streaming.checkpoint import (
    load_checkpoint,
    restore_accumulator,
    restore_event,
    save_checkpoint,
    snapshot_accumulator,
    snapshot_aggregator,
    snapshot_event,
)
from repro.streaming.jsonl import record_to_json_line
from repro.streaming.runtime import StreamingRuntime

QUERIES = {
    "pattern": """
        RETURN g, COUNT(*)
        PATTERN SEQ(A+, B)
        SEMANTICS skip-till-next-match
        GROUP-BY g
        WITHIN 20 seconds SLIDE 10 seconds
    """,
    "type": """
        RETURN g, COUNT(*), MAX(A.v)
        PATTERN SEQ(A+, B)
        SEMANTICS skip-till-any-match
        GROUP-BY g
        WITHIN 20 seconds SLIDE 10 seconds
    """,
    "mixed": """
        RETURN g, COUNT(*), SUM(A.v)
        PATTERN SEQ(A+, B)
        SEMANTICS skip-till-any-match
        WHERE A.v < NEXT(A).v
        GROUP-BY g
        WITHIN 20 seconds SLIDE 10 seconds
    """,
    "negation": """
        RETURN g, COUNT(*)
        PATTERN SEQ(A+, NOT C, B)
        SEMANTICS skip-till-any-match
        GROUP-BY g
        WITHIN 20 seconds SLIDE 10 seconds
    """,
}


def emission_signature(records):
    """Comparable rendering of an emission sequence (order matters)."""
    return [
        (
            record.query,
            record.result.window_id,
            tuple(sorted(record.result.group.items())),
            tuple(sorted(record.result.values.items())),
        )
        for record in records
    ]


def build_runtime(query_text, granularity=None):
    runtime = StreamingRuntime(lateness=3.0)
    runtime.register(query_text, name="q", granularity=granularity)
    return runtime


def run_with_interruption(query_text, events, cut, granularity=None):
    """Process ``events[:cut]``, checkpoint through JSON, resume, finish."""
    first = build_runtime(query_text, granularity)
    records = []
    for event in events[:cut]:
        records.extend(first.process(event))
    # force an actual serialisation round trip, not just a dict copy
    state = json.loads(json.dumps(first.checkpoint()))

    resumed = build_runtime(query_text, granularity)
    resumed.restore(state)
    for event in events[cut:]:
        records.extend(resumed.process(event))
    records.extend(resumed.flush())
    return records


class TestRuntimeCheckpoint:
    @pytest.mark.parametrize("granularity_name", sorted(QUERIES))
    def test_mid_stream_restore_matches_uninterrupted_run(self, granularity_name):
        events = stream(count=200, span=80.0)
        query_text = QUERIES[granularity_name]
        uninterrupted = build_runtime(query_text).run(events)
        # cut mid-stream, well inside an open window
        interrupted = run_with_interruption(query_text, events, cut=len(events) // 2)
        assert emission_signature(interrupted) == emission_signature(uninterrupted)

    def test_forced_event_granularity_restore(self):
        events = stream(count=120, span=80.0)
        query_text = QUERIES["type"]
        uninterrupted = build_runtime(query_text, granularity="event").run(events)
        interrupted = run_with_interruption(
            query_text, events, cut=47, granularity="event"
        )
        assert emission_signature(interrupted) == emission_signature(uninterrupted)

    def test_checkpoint_preserves_reorder_buffer(self):
        events = stream(count=200, span=80.0)
        query_text = QUERIES["type"]
        uninterrupted = build_runtime(query_text).run(events)
        # shuffle within the lateness bound so the buffer is non-empty at the cut
        shuffled = bounded_shuffle(events, 3.0, seed=5)
        interrupted = run_with_interruption(query_text, shuffled, cut=101)
        assert emission_signature(interrupted) == emission_signature(uninterrupted)

    def test_checkpoint_file_round_trip(self, tmp_path):
        events = stream(count=200, span=80.0)
        runtime = build_runtime(QUERIES["mixed"])
        for event in events[:80]:
            runtime.process(event)
        path = save_checkpoint(runtime.checkpoint(), tmp_path / "ckpt.json")

        resumed = build_runtime(QUERIES["mixed"])
        resumed.restore(load_checkpoint(path))
        records = []
        for event in events[80:]:
            records.extend(resumed.process(event))
        records.extend(resumed.flush())

        tail = build_runtime(QUERIES["mixed"])
        for event in events[:80]:
            tail.process(event)
        expected = []
        for event in events[80:]:
            expected.extend(tail.process(event))
        expected.extend(tail.flush())
        assert emission_signature(records) == emission_signature(expected)

    def test_rate_metrics_use_post_restore_deltas(self):
        runtime = build_runtime(QUERIES["type"])
        for index in range(50):
            runtime.process(Event("A", float(index), {"g": "x", "v": 1}))
        state = runtime.checkpoint()

        resumed = build_runtime(QUERIES["type"])
        resumed.restore(state)
        assert resumed.metrics.events_ingested == 50  # totals carried over
        assert resumed.metrics.throughput() == 0.0  # but rates start fresh
        resumed.process(Event("A", 50.0, {"g": "x", "v": 1}))
        # one post-restore event over a sub-second elapsed time: far less
        # than the 50-event total a naive totals-based rate would claim
        assert 0.0 < resumed.metrics.throughput()
        assert resumed.metrics.events_ingested == 51

    def test_metrics_and_side_channel_survive_restore(self):
        runtime = StreamingRuntime(lateness=0.0, late_policy="side-channel")
        runtime.register(QUERIES["type"], name="q")
        runtime.process(Event("A", 50.0, {"g": "x", "v": 1}))
        runtime.process(Event("A", 10.0, {"g": "x", "v": 1}))  # late
        state = json.loads(json.dumps(runtime.checkpoint()))

        resumed = StreamingRuntime(lateness=0.0, late_policy="side-channel")
        resumed.register(QUERIES["type"], name="q")
        resumed.restore(state)
        assert resumed.metrics.events_ingested == 2
        assert resumed.metrics.late_events_rerouted == 1
        assert [e.time for e in resumed.late_events] == [10.0]


class TestCheckpointValidation:
    def test_restore_rejects_wrong_version(self):
        runtime = build_runtime(QUERIES["type"])
        state = runtime.checkpoint()
        state["version"] = 999
        with pytest.raises(CheckpointError):
            build_runtime(QUERIES["type"]).restore(state)

    def test_restore_rejects_different_queries(self):
        state = build_runtime(QUERIES["type"]).checkpoint()
        other = StreamingRuntime(lateness=3.0)
        other.register(QUERIES["pattern"], name="other-name")
        with pytest.raises(CheckpointError):
            other.restore(state)

    def test_restore_rejects_same_name_different_definition(self):
        state = build_runtime(QUERIES["type"]).checkpoint()
        other = StreamingRuntime(lateness=3.0)
        # same name, same granularity, different predicate
        other.register(
            QUERIES["type"].replace("GROUP-BY g", "WHERE A.v > 5\n        GROUP-BY g"),
            name="q",
        )
        with pytest.raises(CheckpointError):
            other.restore(state)

    def test_restore_rejects_changed_granularity(self):
        state = build_runtime(QUERIES["type"]).checkpoint()
        forced = build_runtime(QUERIES["type"], granularity="event")
        with pytest.raises(CheckpointError):
            forced.restore(state)

    def test_restore_rejects_changed_emit_empty_groups(self):
        state = build_runtime(QUERIES["type"]).checkpoint()
        other = StreamingRuntime(lateness=3.0)
        other.register(QUERIES["type"], name="q", emit_empty_groups=True)
        with pytest.raises(CheckpointError):
            other.restore(state)

    def test_failed_mid_restore_poisons_the_runtime(self):
        runtime = StreamingRuntime(lateness=3.0)
        runtime.register(QUERIES["type"], name="a")
        runtime.register(QUERIES["pattern"], name="b")
        runtime.process(Event("A", 5.0, {"g": "x", "v": 1}))
        state = json.loads(json.dumps(runtime.checkpoint()))
        # corrupt the SECOND query's executor: the first restores fine, then
        # the failure would otherwise leave a silently mixed state
        state["executors"]["b"]["aggregators"] = [["bad"]]

        fresh = StreamingRuntime(lateness=3.0)
        fresh.register(QUERIES["type"], name="a")
        fresh.register(QUERIES["pattern"], name="b")
        with pytest.raises(CheckpointError):
            fresh.restore(state)
        with pytest.raises(RuntimeError):
            fresh.process(Event("A", 6.0, {"g": "x", "v": 1}))
        with pytest.raises(RuntimeError):
            fresh.flush()
        # a successful restore un-poisons the runtime
        good = json.loads(json.dumps(runtime.checkpoint()))
        fresh.restore(good)
        fresh.process(Event("A", 6.0, {"g": "x", "v": 1}))

    def test_truncated_snapshot_surfaces_as_checkpoint_error(self):
        runtime = build_runtime(QUERIES["type"])
        with pytest.raises(CheckpointError):
            runtime.restore({"version": 1})

    def test_corrupt_snapshot_data_surfaces_as_checkpoint_error(self):
        runtime = build_runtime(QUERIES["type"])
        runtime.process(Event("A", 5.0, {"g": "x", "v": 1}))
        state = json.loads(json.dumps(runtime.checkpoint()))
        # hand-edit a buffered event to carry a malformed timestamp
        state["ingest"]["buffered"][0]["time"] = "not-a-number"
        fresh = build_runtime(QUERIES["type"])
        with pytest.raises(CheckpointError):
            fresh.restore(state)

    def test_checkpoint_after_flush_rejected(self):
        runtime = build_runtime(QUERIES["type"])
        runtime.run(stream(count=20, span=80.0))
        with pytest.raises(CheckpointError):
            runtime.checkpoint()

    def test_unknown_aggregator_class_rejected(self):
        class Mystery:
            events_processed = 0

        with pytest.raises(CheckpointError):
            snapshot_aggregator(Mystery())


class TestPrimitiveSnapshots:
    def test_event_round_trip(self):
        event = Event("A", 3.5, {"g": "x", "v": 7, "ok": True, "w": None}, sequence=9)
        assert restore_event(json.loads(json.dumps(snapshot_event(event)))) == event

    def test_accumulator_round_trip(self):
        targets = (("A", "v"), ("A", None))
        accumulator = TrendAccumulator.singleton(
            Event("A", 1.0, {"v": 4}), "A", targets
        )
        accumulator.merge(
            TrendAccumulator.singleton(Event("A", 2.0, {"v": 9}), "A", targets)
        )
        restored = restore_accumulator(
            json.loads(json.dumps(snapshot_accumulator(accumulator)))
        )
        assert snapshot_accumulator(restored) == snapshot_accumulator(accumulator)
        assert restored.trend_count == accumulator.trend_count == 2
        assert restored.targets == accumulator.targets
        assert restored.occurrence_count("A") == accumulator.occurrence_count("A") == 2
        query = parse_query(
            "RETURN COUNT(*), COUNT(A), SUM(A.v), AVG(A.v), MIN(A.v), MAX(A.v) "
            "PATTERN A+ SEMANTICS skip-till-any-match"
        )
        expected = [2, 2, 13, 6.5, 4, 9]
        assert [restored.result_value(spec) for spec in query.aggregates] == expected
        assert [accumulator.result_value(spec) for spec in query.aggregates] == expected


# ---------------------------------------------------------------------------
# wire compatibility with checkpoints written by earlier aggregator code
# ---------------------------------------------------------------------------

DATA = Path(__file__).parent / "data"
WIRE_CUT = 150


class WireFixture:
    """A committed checkpoint cut mid-window and the job that wrote it."""

    def __init__(self, file_name, written_at, types, queries, classes):
        self.path = DATA / file_name
        #: the commit whose ``src/`` wrote the committed file
        self.written_at = written_at
        self.types = types
        self.queries = queries
        #: aggregator classes the file must hold (what makes it worth keeping)
        self.classes = classes

    def __repr__(self):
        return self.path.stem

    def stream(self):
        """The arrival-ordered stream the committed file was cut from."""
        rng = random.Random(41)
        return [
            Event(
                rng.choice(self.types),
                round(index * 0.2 + rng.uniform(0.0, 2.0), 3),
                {"g": rng.choice("xyz"), "v": round(rng.uniform(1.0, 90.0), 2)},
                sequence=index,
            )
            for index in range(300)
        ]

    def runtime(self):
        runtime = StreamingRuntime(lateness=3.0)
        for name, text in self.queries.items():
            runtime.register(text, name=name)
        return runtime

    def write(self):
        """Regenerate the file: ``python tests/test_streaming_checkpoint.py NAME``.

        Regenerating it with code later than ``written_at`` would only prove
        that the code can read what it writes itself.
        """
        runtime = self.runtime()
        runtime.process_batch(self.stream()[:WIRE_CUT])
        self.path.parent.mkdir(exist_ok=True)
        self.path.write_text(
            json.dumps(runtime.checkpoint(), indent=1, sort_keys=True) + "\n"
        )


def _wire_query(returns, pattern, semantics, where=None, slide=5):
    text = f"RETURN g, {returns} PATTERN {pattern} SEMANTICS {semantics} "
    if where:
        text += f"WHERE {where} "
    return text + f"GROUP-BY g WITHIN 20 seconds SLIDE {slide} seconds"


WIRE_FIXTURES = [
    # written by the dict-of-lists accumulators
    WireFixture(
        "checkpoint_v1_type_grained.json",
        "d941543",
        "AAB",
        {
            "pairs": _wire_query("COUNT(*), MAX(A.v)", "SEQ(A+, B)", "skip-till-any-match"),
            "kleene": _wire_query(
                "COUNT(*), COUNT(A), SUM(A.v), AVG(A.v), MIN(A.v), MAX(A.v)",
                "A+",
                "skip-till-any-match",
            ),
        },
        {"TypeGrainedAggregator"},
    ),
    # written by the literal zero/merge/extended/singleton recurrences of the
    # event-storing aggregators, before their in-place kernels
    WireFixture(
        "checkpoint_v1_event_storing.json",
        "fcd6c0f",
        "AAAABBC",
        {
            "mixed": _wire_query(
                "COUNT(*), SUM(A.v), MAX(B.v)",
                "SEQ(A+, B)",
                "skip-till-any-match",
                "A.v < NEXT(A).v",
                slide=10,
            ),
            "event": _wire_query(
                "COUNT(*), COUNT(A), AVG(A.v), MIN(A.v)",
                "A+",
                "skip-till-any-match",
                "A.v < NEXT(A).v",
                slide=10,
            ),
            "pattern": _wire_query(
                "COUNT(*), SUM(A.v), MIN(B.v)", "SEQ(A+, B)", "skip-till-next-match"
            ),
            "negation_type": _wire_query(
                "COUNT(*), SUM(A.v), MAX(A.v)", "SEQ(A+, NOT C, B)", "skip-till-any-match"
            ),
            "negation_event": _wire_query(
                "COUNT(*), AVG(A.v)",
                "SEQ(A+, NOT C, B)",
                "skip-till-any-match",
                "A.v < NEXT(A).v",
                slide=10,
            ),
        },
        {
            "MixedGrainedAggregator",
            "EventGrainedAggregator",
            "PatternGrainedAggregator",
            "NegationTypeGrainedAggregator",
            "NegationEventGrainedAggregator",
        },
    ),
]


@pytest.mark.parametrize("fixture", WIRE_FIXTURES, ids=repr)
class TestCheckpointWireCompatibility:
    def test_checkpoint_written_by_earlier_code_restores_byte_identically(self, fixture):
        events = fixture.stream()
        state = json.loads(fixture.path.read_text())
        assert state["version"] == 1
        classes = {
            aggregator["class"]
            for executor in state["executors"].values()
            for _window, _key, aggregator in executor["aggregators"]
        }
        assert classes == fixture.classes

        resumed = fixture.runtime()
        resumed.restore(state)
        records = resumed.process_batch(events[WIRE_CUT:])
        records.extend(resumed.flush())

        uninterrupted = fixture.runtime()
        expected = uninterrupted.process_batch(events[:WIRE_CUT])
        # the fixture's cut is mid-window: everything before it is still open
        expected.extend(uninterrupted.process_batch(events[WIRE_CUT:]))
        expected.extend(uninterrupted.flush())
        emitted_before_cut = len(expected) - len(records)
        assert emitted_before_cut >= 0
        assert [record_to_json_line(r) for r in records] == [
            record_to_json_line(r) for r in expected[emitted_before_cut:]
        ]
        assert len(records) > 20

    def test_current_code_writes_what_the_fixture_holds(self, fixture):
        runtime = fixture.runtime()
        runtime.process_batch(fixture.stream()[:WIRE_CUT])
        current = json.loads(json.dumps(runtime.checkpoint()))
        committed = json.loads(fixture.path.read_text())
        # "metrics" and "registry" carry wall-clock readings; the rest is state
        for section in ("version", "queries", "ingest", "emitted_counts"):
            assert current[section] == committed[section], section

        def keyed(executors):
            """An executor's entries are a set keyed by (window, group):
            the fixture lists them in the order its writer's index had."""
            comparable = {}
            for name, executor in executors.items():
                entries = executor["aggregators"]
                by_key = {(window, tuple(key)): state for window, key, state in entries}
                assert len(by_key) == len(entries), name
                comparable[name] = dict(executor, aggregators=by_key)
            return comparable

        assert keyed(current["executors"]) == keyed(committed["executors"])
        for executor in current["executors"].values():
            order = [(window, repr(key)) for window, key, _ in executor["aggregators"]]
            assert order == sorted(order)


if __name__ == "__main__":
    import sys

    {repr(fixture): fixture for fixture in WIRE_FIXTURES}[sys.argv[1]].write()
