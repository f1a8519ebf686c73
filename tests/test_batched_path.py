"""Parity properties for the batched hot path.

The batched pipeline -- sliced JSONL decode, :meth:`StreamingRuntime.
process_batch`, the executor's key-grouped quiet-run batching and the
sharded runtime's pre-pickled blob shipping -- is a pure performance
layout.  Every test here pins the same contract: for any stream and any
slicing, down to slices of one, the records (and the counter totals) are
byte-identical -- with tracing on or off, when a raising late policy aborts
a slice, under worker SIGKILL recovery and under mid-stream rebalancing.
"""

import os
import random
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.executor import QueryExecutor
from repro.errors import LateEventError
from repro.events.event import Event
from repro.events.stream import sort_events
from repro.streaming.checkpoint import CheckpointStore
from repro.streaming.jsonl import read_jsonl_event_batches, read_jsonl_events
from repro.streaming.observability import Observability, Tracer
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


def traced(sample_rate, spans):
    """Runtime keyword arguments for one tracer arm (``None`` = no tracer)."""
    if sample_rate is None:
        return {}
    tracer = Tracer(sample_rate=sample_rate, sink=spans.append, rng=random.Random(5))
    return {"observability": Observability(tracer=tracer)}


def with_late_event(events, lateness, raising):
    """``events`` with, when ``raising``, one event far behind the watermark."""
    if not raising:
        return events
    late = Event("A", events[150].time - lateness - 25.0, {"g": "u", "v": 1})
    return events[:200] + [late] + events[200:]


def feed(runtime, slices):
    """Push ``slices``; returns (records, the LateEventError that ended it)."""
    records = []
    for group in slices:
        try:
            records.extend(runtime.process_batch(group))
        except LateEventError as error:
            return records, error
    return records, None


class TestRuntimeBatchParity:
    @pytest.mark.parametrize("raising", [False, True])
    @pytest.mark.parametrize("sample_rate", [None, 0.0, 1.0])
    @settings(max_examples=5, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        lateness=st.sampled_from([0.0, 3.0]),
        sizes=st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=3),
    )
    def test_process_batch_is_byte_identical_to_process(
        self, seed, lateness, sizes, sample_rate, raising
    ):
        events = with_late_event(
            shuffle_within(make_stream(count=300, seed=seed), lateness, seed),
            lateness,
            raising,
        )
        policy = "raise" if raising else "drop"

        per_event = StreamingRuntime(lateness=lateness, late_policy=policy)
        per_event.register(QUERY_ANY, name="any")
        per_event.register(QUERY_NEXT, name="next")
        expected = []
        expected_error = None
        for event in events:
            try:
                expected.extend(per_event.process(event))
            except LateEventError as error:
                expected_error = error
                break

        spans = []
        batched = StreamingRuntime(
            lateness=lateness, late_policy=policy, **traced(sample_rate, spans)
        )
        batched.register(QUERY_ANY, name="any")
        batched.register(QUERY_NEXT, name="next")
        got, error = feed(batched, chunked(events, sizes))

        assert (error is None) == (expected_error is None) == (not raising)
        if error is not None:
            # the slice's earlier events emitted before the late one raised
            assert error.event is expected_error.event
            assert expected_error.records == []
            got.extend(error.records)
            # the driver loop delivers them before the error propagates
            driven = StreamingRuntime(lateness=lateness, late_policy=policy)
            driven.register(QUERY_ANY, name="any")
            driven.register(QUERY_NEXT, name="next")
            delivered = []
            with pytest.raises(LateEventError):
                for record in driven.drive(events, decode_batch_size=sizes[0]):
                    delivered.append(record)
            assert record_dicts(delivered) == record_dicts(expected)
        else:
            expected.extend(per_event.flush())
            got.extend(batched.flush())
        assert record_dicts(got) == record_dicts(expected)
        assert counter_totals(batched) == counter_totals(per_event)
        if sample_rate == 1.0:
            roots = [span for span in spans if span["parent"] is None]
            assert len(roots) == batched.metrics.events_ingested
            assert {"event", "ingest", "route"} <= {span["name"] for span in spans}
        else:
            assert spans == []

    @pytest.mark.parametrize("raising", [False, True])
    @pytest.mark.parametrize("sample_rate", [None, 0.0, 1.0])
    @settings(max_examples=2, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        sizes=st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=3),
    )
    def test_sharded_process_batch_matches_process(
        self, seed, sizes, sample_rate, raising
    ):
        events = with_late_event(make_stream(count=300, seed=seed), 0.0, raising)
        policy = "raise" if raising else "drop"

        def run(slices, **kwargs):
            runtime = ShardedRuntime(
                workers=2, lateness=0.0, ship_interval=8, late_policy=policy, **kwargs
            )
            runtime.register(QUERY_ANY, name="q")
            try:
                records, error = feed(runtime, slices)
                if error is not None:
                    # the parent keeps what was ready for the next call instead
                    assert error.records == []
                records.extend(runtime.flush())
            finally:
                runtime.close()
            return runtime, records, error

        per_event, expected, expected_error = run([[event] for event in events])
        spans = []
        batched, got, error = run(chunked(events, sizes), **traced(sample_rate, spans))

        assert (error is None) == (expected_error is None) == (not raising)
        assert canonical(got) == canonical(expected)
        assert counter_totals(batched) == counter_totals(per_event)
        if sample_rate == 1.0:
            roots = [span for span in spans if span["name"] == "event"]
            assert len(roots) == batched.metrics.events_ingested
            assert {"event", "ingest", "route"} <= {span["name"] for span in spans}
        else:
            assert spans == []

    @pytest.mark.parametrize("sample_rate", [0.0, 1e-9, 1.0])
    def test_tracing_never_changes_the_executor_calls(self, monkeypatch, sample_rate):
        """Sampling adds spans; it must not select a different processing path."""
        calls = []
        for name in ("process", "process_batch"):
            original = getattr(QueryExecutor, name)

            def recording(executor, fed, *args, _name=name, _call=original, **kwargs):
                calls.append((_name, len(fed) if _name == "process_batch" else 1))
                return _call(executor, fed, *args, **kwargs)

            monkeypatch.setattr(QueryExecutor, name, recording)
        events = shuffle_within(make_stream(count=300, seed=7), 3.0, 7)

        def entry_calls(**kwargs):
            del calls[:]
            runtime = StreamingRuntime(lateness=3.0, **kwargs)
            runtime.register(QUERY_ANY, name="any")
            runtime.register(QUERY_NEXT, name="next")
            runtime.run(events, decode_batch_size=32)
            return list(calls)

        untraced = entry_calls()
        spans = []
        assert entry_calls(**traced(sample_rate, spans)) == untraced
        assert any(length > 1 for _name, length in untraced)
        if sample_rate < 1.0:
            assert spans == []  # 1e-9 is enabled, yet samples nothing here

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

        runtime = ShardedRuntime(workers=2, lateness=0.0, ship_interval=8)
        runtime.register(QUERY_ANY, name="q")
        assert canonical(runtime.run(events)) == expected

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

        runtime = ShardedRuntime(workers=2, lateness=0.0, ship_interval=8)
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
