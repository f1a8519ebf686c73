"""The exactly-once delivery drill: crash a pipeline, recover it, diff bytes.

A job reading a :class:`~repro.streaming.PartitionedLogSource` and writing
through a :class:`~repro.streaming.TransactionalSink` survives a crash at
*any* point without losing or duplicating a single output row, because

1. the source's consumer offsets and the sink's committed byte offset are
   checkpointed atomically with executor state,
2. recovery truncates the sink back to the committed offset and seeks the
   log to the committed offsets (skipping whole segments), and
3. a dedup keyset over ``(query, window, group)`` swallows replayed rows
   that already made it to disk.

This example runs the whole drill in-process -- write a partitioned log,
crash a job mid-stream, recover, and assert the recovered sink file is
**byte-identical** to an uninterrupted run -- then demonstrates the
backpressure side: a slow consumer throttles ingestion (visible in the
``cogra_backpressure_*`` counters) without changing the results.

Run with::

    PYTHONPATH=src python examples/exactly_once_pipeline.py
"""

import random
import tempfile
from pathlib import Path

from repro.events.event import Event
from repro.events.stream import sort_events
from repro.streaming import (
    BackpressureConfig,
    CheckpointStore,
    EventSource,
    MemorySink,
    PartitionedLogSource,
    PartitionedLogWriter,
    StreamingRuntime,
    TransactionalSink,
    resume_job,
)
from repro.streaming.observability import snapshot_value

QUERY = (
    "RETURN g, COUNT(*), MAX(A.v) PATTERN SEQ(A+, B) "
    "SEMANTICS skip-till-any-match GROUP-BY g "
    "WITHIN 20 seconds SLIDE 10 seconds"
)

CRASH_AT = 1700  # injected failure: event index inside the stream


class Crash(RuntimeError):
    """The injected mid-stream failure."""


class CrashingSource(EventSource):
    """Delegates to an inner source, raising :class:`Crash` at one index."""

    def __init__(self, inner, crash_at):
        self._inner = inner
        self._crash_at = crash_at

    def events(self):
        for index, event in enumerate(self._inner.events()):
            if index == self._crash_at:
                raise Crash(f"injected crash at event {index}")
            yield event

    def offsets(self):
        return self._inner.offsets()

    def close(self):
        self._inner.close()


class SlowSink(MemorySink):
    """A consumer that reports "not ready" on a fixed cadence."""

    def __init__(self):
        super().__init__()
        self._calls = 0

    def ready(self):
        self._calls += 1
        return self._calls % 3 != 0  # stalled every third poll


def make_stream(count=3000, seed=13):
    rng = random.Random(seed)
    return sort_events(
        Event(
            rng.choice("AB"),
            rng.uniform(0.0, 90.0),
            {"g": rng.choice("uvwxyz"), "v": rng.randint(1, 9)},
        )
        for _ in range(count)
    )


def new_runtime():
    runtime = StreamingRuntime(lateness=0.0)
    runtime.register(QUERY, name="trends")
    return runtime


def main() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        events = make_stream()

        # == the log side: hash-partitioned, append-only segments ==
        log_dir = root / "events-log"
        with PartitionedLogWriter(
            log_dir, partitions=3, segment_records=256
        ) as writer:
            writer.extend(events, key_by="g")
        segments = sorted(p.name for p in log_dir.rglob("*.jsonl"))
        print(f"log                 : {len(events)} events, "
              f"{len(segments)} segments across 3 partitions")

        # == reference: one uninterrupted run ==
        reference = root / "reference.jsonl"
        sink = TransactionalSink(reference)
        new_runtime().run(PartitionedLogSource(log_dir), sink)
        sink.close()
        expected = reference.read_bytes()
        print(f"reference run       : {len(expected)} bytes of results")

        # == crash: SIGKILL-equivalent at event {CRASH_AT} ==
        out = root / "results.jsonl"
        store = CheckpointStore(root / "ckpt", background=False)
        sink = TransactionalSink(out)
        try:
            new_runtime().run(
                CrashingSource(PartitionedLogSource(log_dir), CRASH_AT),
                sink,
                checkpoint_store=store,
                checkpoint_interval=250,
            )
        except Crash as exc:
            print(f"crash               : {exc}")
        sink.close()
        print(f"crashed sink        : {out.stat().st_size} bytes "
              "(committed prefix + uncommitted tail)")

        # == recover: truncate the sink, seek the log, replay ==
        resumed = new_runtime()
        recovered_sink = TransactionalSink(out, recover=True)
        info = resume_job(
            resumed, store, PartitionedLogSource(log_dir), sink=recovered_sink
        )
        for note in info.notes:
            print(f"recovery            : {note}")
        resumed.run(
            info.source,
            recovered_sink,
            checkpoint_store=store,
            checkpoint_interval=250,
        )
        recovered_sink.close()
        store.close()

        assert out.read_bytes() == expected, "recovered output diverged"
        print(f"recovered sink      : {out.stat().st_size} bytes -- "
              "byte-identical to the uninterrupted reference")

        # == backpressure: a slow consumer throttles, results unchanged ==
        slow = SlowSink()
        runtime = new_runtime()
        runtime.run(
            PartitionedLogSource(log_dir),
            slow,
            backpressure=BackpressureConfig(poll_interval_seconds=0.0005),
        )
        snapshot = runtime.registry_snapshot()
        waits = snapshot_value(snapshot, "cogra_backpressure_waits_total")
        fast_rows = expected.decode("utf-8").splitlines()
        assert len(slow.records) == len(fast_rows)
        print(f"backpressure        : {waits:.0f} ingestion waits on the "
              f"slow consumer, {len(slow.records)} identical results")


if __name__ == "__main__":
    main()
