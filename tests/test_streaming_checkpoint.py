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

from differential import ADMITTED, bounded_shuffle, canonical, stream
from differential import QUERIES as CATALOGUE
from repro.analyzer.plan import plan_query
from repro.baselines.oracle import expected_records
from repro.core.aggregate_state import TrendAccumulator
from repro.core.base import aggregator_class
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
from repro.streaming.sharded import ShardedRuntime

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

    def test_restore_rejects_an_event_snapshot_into_a_type_registration(self):
        runtime = build_runtime(QUERIES["type"], granularity="event")
        runtime.process_batch(stream(count=40))
        state = json.loads(json.dumps(runtime.checkpoint()))
        with pytest.raises(CheckpointError, match="granularit"):
            build_runtime(QUERIES["type"], granularity="type").restore(state)

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


#: the restore error names the recorded class and the class the plan builds
MESSAGE_PATTERN = (
    "'EventGrainedAggregator' aggregator but the plan builds 'TypeGrainedAggregator'"
)


def mixed_class_snapshot(label="type", other="event"):
    """A snapshot labelled ``label`` whose first entry an ``other`` plan built.

    Checkpoints once held such entries: a query live-migrated from type to
    event granularity kept its open windows' aggregators of the old class.
    A plan builds one class, so restoring one must fail.
    """
    events = stream(count=120)
    labelled = build_runtime(QUERIES["type"], granularity=label)
    built_by_other = build_runtime(QUERIES["type"], granularity=other)
    labelled.process_batch(events)
    built_by_other.process_batch(events)
    state = json.loads(json.dumps(labelled.checkpoint()))
    entries = state["executors"]["q"]["aggregators"]
    (window, key, _), *_ = entries
    for other_window, other_key, other_state in built_by_other.checkpoint()[
        "executors"
    ]["q"]["aggregators"]:
        if (other_window, other_key) == (window, key):
            entries[0] = [window, key, json.loads(json.dumps(other_state))]
    assert state["executors"]["q"]["granularity"] == label
    assert entries[0][2]["class"] == aggregator_name(other)
    return state


def aggregator_name(granularity):
    """The aggregator class a ``granularity`` plan of the ANY query builds."""
    plan = plan_query(parse_query(QUERIES["type"]), forced_granularity=granularity)
    return aggregator_class(plan).__name__


class TestMixedClassCheckpoints:
    def test_single_process_restore_names_both_classes(self):
        runtime = build_runtime(QUERIES["type"], granularity="type")
        with pytest.raises(CheckpointError, match=MESSAGE_PATTERN):
            runtime.restore(mixed_class_snapshot())
        with pytest.raises(RuntimeError):
            runtime.process(Event("A", 500.0, {"g": "x", "v": 1}))

    def test_sharded_restore_names_both_classes_and_stops_the_workers(self):
        runtime = ShardedRuntime(workers=2, lateness=3.0)
        runtime.register(QUERIES["type"], name="q", granularity="type")
        runtime.process(Event("A", 1.0, {"g": "x", "v": 1}))
        workers = list(runtime._procs)
        assert len(workers) == 2
        with pytest.raises(CheckpointError, match=MESSAGE_PATTERN):
            runtime.restore(mixed_class_snapshot())
        assert runtime._poisoned
        assert runtime._procs == []
        assert not any(worker.is_alive() for worker in workers)

    @pytest.mark.parametrize(
        "label, other",
        [
            (label, other)
            for label in ("type", "mixed", "event")
            for other in ("type", "mixed", "event")
            if label != other
        ],
    )
    def test_restore_rejects_an_entry_another_plan_built(self, label, other):
        runtime = build_runtime(QUERIES["type"], granularity=label)
        message = (
            f"'{aggregator_name(other)}' aggregator but the plan "
            f"builds '{aggregator_name(label)}'"
        )
        with pytest.raises(CheckpointError, match=message):
            runtime.restore(mixed_class_snapshot(label, other))


#: every (catalogue query, granularity it admits) pair
ADMITTED_CELLS = [(name, g) for name in sorted(CATALOGUE) for g in ADMITTED[name]]


class TestEveryAdmittedGranularity:
    """A query keeps the plan it was registered with for its whole life:
    run, checkpointed and resumed at every granularity it admits, it emits
    what the oracle says, and a snapshot resumes only into that plan."""

    @pytest.mark.parametrize("name, granularity", ADMITTED_CELLS)
    def test_forced_run_matches_the_oracle(self, name, granularity):
        events = stream(count=160)
        records = build_runtime(CATALOGUE[name], granularity).run(events)
        expected = expected_records([("q", CATALOGUE[name])], events, 3.0)
        assert canonical(records) == canonical(expected)

    @pytest.mark.parametrize("name, granularity", ADMITTED_CELLS)
    def test_checkpoint_records_the_plan_and_resumes_it(self, name, granularity):
        events = stream(count=160)
        text = CATALOGUE[name]
        first = build_runtime(text, granularity)
        records = []
        for event in events[:80]:
            records.extend(first.process(event))
        state = json.loads(json.dumps(first.checkpoint()))
        assert [query["granularity"] for query in state["queries"]] == [granularity]
        assert state["executors"]["q"]["granularity"] == granularity

        resumed = build_runtime(text, granularity)
        resumed.restore(state)
        for event in events[80:]:
            records.extend(resumed.process(event))
        records.extend(resumed.flush())
        uninterrupted = build_runtime(text, granularity).run(events)
        assert emission_signature(records) == emission_signature(uninterrupted)

    @pytest.mark.parametrize(
        "name, taken, registered",
        [
            (name, taken, registered)
            for name in sorted(CATALOGUE)
            for taken in ADMITTED[name]
            for registered in ADMITTED[name]
            if taken != registered
        ],
    )
    def test_restore_into_another_granularity_is_rejected(
        self, name, taken, registered
    ):
        runtime = build_runtime(CATALOGUE[name], taken)
        runtime.process_batch(stream(count=80))
        state = json.loads(json.dumps(runtime.checkpoint()))
        with pytest.raises(CheckpointError, match="granularit"):
            build_runtime(CATALOGUE[name], registered).restore(state)


def run_split(first, second, events, cut):
    """Process ``events[:cut]`` on ``first``, resume the rest on ``second``."""
    records = []
    for event in events[:cut]:
        records.extend(first.process(event))
    state = json.loads(json.dumps(first.checkpoint()))
    if isinstance(first, ShardedRuntime):
        records.extend(first.drain_pending())
        first.close()
    second.restore(state)
    for event in events[cut:]:
        records.extend(second.process(event))
    records.extend(second.flush())
    if isinstance(second, ShardedRuntime):
        second.close()
    return records


def sharded_runtime(granularity):
    runtime = ShardedRuntime(workers=2, lateness=3.0, ship_interval=8)
    runtime.register(QUERIES["type"], name="q", granularity=granularity)
    return runtime


class TestSnapshotsAcrossTopologies:
    """Checkpoints are topology-independent at every granularity: a sharded
    snapshot resumes on one process and a single-process one on shards."""

    @pytest.mark.parametrize("granularity", ["type", "mixed", "event"])
    def test_sharded_snapshot_resumes_on_one_process(self, granularity):
        events = stream(count=200)
        records = run_split(
            sharded_runtime(granularity),
            build_runtime(QUERIES["type"], granularity),
            events,
            cut=100,
        )
        expected = expected_records([("q", QUERIES["type"])], events, 3.0)
        assert canonical(records) == canonical(expected)

    @pytest.mark.parametrize("granularity", ["type", "mixed", "event"])
    def test_single_process_snapshot_resumes_on_shards(self, granularity):
        events = stream(count=200)
        records = run_split(
            build_runtime(QUERIES["type"], granularity),
            sharded_runtime(granularity),
            events,
            cut=100,
        )
        expected = expected_records([("q", QUERIES["type"])], events, 3.0)
        assert canonical(records) == canonical(expected)


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
