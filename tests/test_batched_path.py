"""Parity properties for the batched hot path.

The batched pipeline -- sliced JSONL decode, :meth:`StreamingRuntime.
process_batch`, the executor's key-grouped quiet-run batching, the
accumulators' one-frame folds, and the sharded runtime's pre-pickled blob
shipping -- is a pure performance layout.  Every test here pins the same
contract: for any stream and any slicing, the batched path produces
byte-identical records (and identical counter totals) to the per-event
path, including under worker SIGKILL recovery and mid-stream rebalancing
with blob shipping on.
"""

import os
import random
import signal

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregate_state import TrendAccumulator
from repro.core.executor import QueryExecutor
from repro.events.event import Event
from repro.events.stream import sort_events
from repro.streaming.checkpoint import CheckpointStore
from repro.streaming.jsonl import read_jsonl_event_batches, read_jsonl_events
from repro.streaming.runtime import StreamingRuntime
from repro.streaming.sharded import ShardedRuntime

QUERY_ANY = """
RETURN g, COUNT(*), MAX(A.v)
PATTERN SEQ(A+, B)
SEMANTICS skip-till-any-match
GROUP-BY g
WITHIN 20 seconds SLIDE 10 seconds
"""

QUERY_NEXT = """
RETURN g, COUNT(*), SUM(A.v)
PATTERN SEQ(A+, B)
SEMANTICS skip-till-next-match
GROUP-BY g
WITHIN 20 seconds SLIDE 10 seconds
"""


def make_stream(count=400, seed=13, groups="uvwxyz"):
    rng = random.Random(seed)
    return sort_events(
        Event(
            rng.choice("AB"),
            rng.uniform(0.0, 90.0),
            {"g": rng.choice(groups), "v": rng.randint(1, 9)},
        )
        for _ in range(count)
    )


def shuffle_within(events, lateness, seed):
    """Bounded out-of-order arrival: each event slips at most ``lateness``."""
    rng = random.Random(seed)
    return sorted(
        events, key=lambda e: (e.time + rng.uniform(0.0, lateness), e.sequence)
    )


def chunked(events, sizes):
    """Split ``events`` into slices following the cyclic ``sizes`` pattern."""
    slices = []
    index = 0
    cursor = 0
    while cursor < len(events):
        size = sizes[index % len(sizes)]
        slices.append(events[cursor : cursor + size])
        cursor += size
        index += 1
    return slices


def record_dicts(records):
    return [record.as_dict() for record in records]


def canonical(records):
    return sorted(
        (
            record.query,
            record.result.window_id,
            tuple(sorted(record.result.group.items())),
            tuple(sorted(record.result.values.items())),
        )
        for record in records
    )


def counter_totals(runtime):
    metrics = runtime.metrics
    return {
        "ingested": metrics.events_ingested,
        "released": metrics.events_released,
        "late_dropped": metrics.late_events_dropped,
        "results": metrics.results_emitted,
    }


def kill_worker(runtime, shard):
    victim = runtime._procs[shard]
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(timeout=10)


# ---------------------------------------------------------------------------
# the accumulator fold
# ---------------------------------------------------------------------------


class TestAccumulatorBatchOps:
    @settings(max_examples=30, deadline=None)
    @given(
        values=st.lists(
            st.integers(min_value=-9, max_value=9) | st.floats(-5.0, 5.0),
            min_size=1,
            max_size=20,
        ),
        trends=st.integers(min_value=1, max_value=5),
    )
    def test_extend_batch_equals_folded_extended(self, values, trends):
        targets = (("A", None), ("A", "v"))
        events = [
            Event("A", float(index), {"v": value})
            for index, value in enumerate(values)
        ]
        seeded = TrendAccumulator.singleton(events[0], "A", targets)
        seeded.trend_count = trends

        folded = seeded
        for event in events:
            folded = folded.extended(event, "A")
        batched = seeded.extend_batch(events, "A")

        assert repr(batched) == repr(folded)


# ---------------------------------------------------------------------------
# the executor: key-grouped quiet runs
# ---------------------------------------------------------------------------


class TestExecutorBatchParity:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        sizes=st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=4),
        query=st.sampled_from([QUERY_ANY, QUERY_NEXT]),
    )
    def test_any_slicing_matches_per_event(self, seed, sizes, query):
        from repro.query.parser import parse_query

        events = make_stream(count=200, seed=seed)
        reference = QueryExecutor(parse_query(query))
        expected = []
        for event in events:
            expected.extend(reference.process(event))
        expected.extend(reference.flush())

        batched = QueryExecutor(parse_query(query))
        got = []
        for group in chunked(events, sizes):
            got.extend(batched.process_batch(group))
        got.extend(batched.flush())

        assert [repr(result) for result in got] == [
            repr(result) for result in expected
        ]
        assert batched.events_seen == reference.events_seen


# ---------------------------------------------------------------------------
# the single-process runtime
# ---------------------------------------------------------------------------


class TestRuntimeBatchParity:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        lateness=st.sampled_from([0.0, 3.0]),
        sizes=st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=3),
    )
    def test_process_batch_is_byte_identical_to_process(self, seed, lateness, sizes):
        events = shuffle_within(make_stream(count=300, seed=seed), lateness, seed)

        per_event = StreamingRuntime(lateness=lateness)
        per_event.register(QUERY_ANY, name="any")
        per_event.register(QUERY_NEXT, name="next")
        expected = []
        for event in events:
            expected.extend(per_event.process(event))
        expected.extend(per_event.flush())

        batched = StreamingRuntime(lateness=lateness)
        batched.register(QUERY_ANY, name="any")
        batched.register(QUERY_NEXT, name="next")
        got = []
        for group in chunked(events, sizes):
            got.extend(batched.process_batch(group))
        got.extend(batched.flush())

        assert record_dicts(got) == record_dicts(expected)
        assert counter_totals(batched) == counter_totals(per_event)

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        decode_batch_size=st.sampled_from([1, 7, 64, 256, 1024]),
    )
    def test_drive_decode_batch_size_never_changes_records(
        self, seed, decode_batch_size
    ):
        events = shuffle_within(make_stream(count=250, seed=seed), 3.0, seed)
        reference = StreamingRuntime(lateness=3.0)
        reference.register(QUERY_ANY, name="q")
        expected = record_dicts(reference.run(events, decode_batch_size=1))

        runtime = StreamingRuntime(lateness=3.0)
        runtime.register(QUERY_ANY, name="q")
        got = record_dicts(
            runtime.run(events, decode_batch_size=decode_batch_size)
        )
        assert got == expected


# ---------------------------------------------------------------------------
# the JSONL batch decoder
# ---------------------------------------------------------------------------


class TestJsonlBatchDecode:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        batch_size=st.integers(min_value=1, max_value=17),
    )
    def test_batched_decode_equals_per_line_decode(self, seed, batch_size):
        rng = random.Random(seed)
        lines = []
        for index in range(rng.randint(1, 40)):
            choice = rng.random()
            if choice < 0.1:
                lines.append("")  # blank
            elif choice < 0.2:
                lines.append("# comment")
            elif choice < 0.3:
                # the alias/nested shapes take the slow validation path
                lines.append(
                    '{"event_type": "A", "time": %d, '
                    '"attributes": {"v": %d}}' % (index, rng.randint(1, 9))
                )
            elif choice < 0.4:
                lines.append(
                    '{"type": "A", "time": %d, "sequence": %d, "v": 1}'
                    % (index, rng.randint(0, 99))
                )
            else:
                lines.append(
                    '{"type": "%s", "time": %s, "g": "%s", "v": %d}'
                    % (
                        rng.choice("AB"),
                        round(rng.uniform(0.0, 50.0), 3),
                        rng.choice("xyz"),
                        rng.randint(1, 9),
                    )
                )
        expected = list(read_jsonl_events(list(lines)))
        batches = list(read_jsonl_event_batches(list(lines), batch_size))
        flattened = [event for batch in batches for event in batch]
        assert [
            (e.event_type, e.time, e.attributes, e.sequence) for e in flattened
        ] == [(e.event_type, e.time, e.attributes, e.sequence) for e in expected]
        assert all(len(batch) <= batch_size for batch in batches)


# ---------------------------------------------------------------------------
# the sharded runtime: blob shipping
# ---------------------------------------------------------------------------


class TestShardedBlobParity:
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_blob_shipping_matches_plain_and_single_process(self, seed):
        events = make_stream(count=300, seed=seed)
        single = StreamingRuntime(lateness=0.0)
        single.register(QUERY_ANY, name="q")
        expected = canonical(single.run(events))

        for ship_serialized in (True, False):
            runtime = ShardedRuntime(
                workers=2,
                lateness=0.0,
                ship_interval=8,
                ship_serialized=ship_serialized,
            )
            runtime.register(QUERY_ANY, name="q")
            records = runtime.run(events)
            assert canonical(records) == expected, (
                f"sharded results diverge with ship_serialized={ship_serialized}"
            )

    @settings(max_examples=3, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        kill_at=st.integers(min_value=80, max_value=200),
        shard=st.integers(min_value=0, max_value=1),
    )
    def test_sigkill_recovery_under_blob_shipping(
        self, tmp_path_factory, seed, kill_at, shard
    ):
        events = make_stream(count=300, seed=seed)
        single = StreamingRuntime(lateness=0.0)
        single.register(QUERY_ANY, name="q")
        expected = canonical(single.run(events))

        directory = tmp_path_factory.mktemp("blob-chaos")
        store = CheckpointStore(directory, compact_every=3)
        runtime = ShardedRuntime(
            workers=2,
            lateness=0.0,
            ship_interval=8,
            max_restarts=2,
            ship_serialized=True,
        )
        runtime.register(QUERY_ANY, name="q")

        def feed():
            for index, event in enumerate(events):
                if index == kill_at:
                    kill_worker(runtime, shard)
                yield event

        records = runtime.run(
            feed(), checkpoint_store=store, checkpoint_interval=100
        )
        assert runtime.restart_counts[shard] == 1
        assert canonical(records) == expected

    @settings(max_examples=3, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        move_at=st.integers(min_value=40, max_value=200),
        slot_seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_mid_stream_rebalance_under_blob_shipping(
        self, seed, move_at, slot_seed
    ):
        events = make_stream(count=300, seed=seed)
        single = StreamingRuntime(lateness=0.0)
        single.register(QUERY_ANY, name="q")
        expected = canonical(single.run(events))

        runtime = ShardedRuntime(
            workers=2, lateness=0.0, ship_interval=8, ship_serialized=True
        )
        runtime.register(QUERY_ANY, name="q")
        rng = random.Random(slot_seed)
        records = []
        for index, event in enumerate(events):
            records.extend(runtime.process(event))
            if index == move_at:
                slots = rng.sample(range(runtime._router.slots), 6)
                runtime.rebalance(
                    [(slot, rng.randrange(runtime.shard_count)) for slot in slots]
                )
        records.extend(runtime.flush())
        assert canonical(records) == expected
