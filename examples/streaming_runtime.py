"""Streaming pipeline demo: sources, sinks, checkpoints, recovery.

Simulates a live stock feed with bounded disorder and runs it through the
pipeline driver (source -> ingest/watermark -> route -> execute -> emit ->
sink) instead of a hand-rolled ingestion loop:

1. two queries registered against one out-of-order stream, emitted into an
   in-memory sink while a :class:`CheckpointStore` snapshots the runtime
   every 500 events (each save a full snapshot replacing the last);
2. the run is *abandoned mid-stream* -- as if the process had died -- and a
   fresh runtime resumes from the newest on-disk checkpoint, replaying only
   the events the checkpoint had not ingested yet;
3. the union of results (pre-crash + resumed, deduplicated by window like
   any at-least-once consumer would) is identical to an uninterrupted run.

Run with::

    PYTHONPATH=src python examples/streaming_runtime.py
"""

import json
import random
import tempfile

from repro import (
    CheckpointStore,
    CograEngine,
    JobConfig,
    LatenessConfig,
    MemorySink,
    QueryConfig,
    StreamingRuntime,
    WatermarkConfig,
    group_results,
)
from repro.datasets.stock import StockConfig, generate_stock_stream
from repro.events.stream import sort_events

LATENESS = 5.0

RISING_RUNS = """
RETURN company, COUNT(*), MAX(S.price)
PATTERN Stock S+
SEMANTICS skip-till-any-match
WHERE S.price < NEXT(S).price
GROUP-BY company
WITHIN 10 seconds SLIDE 5 seconds
"""

TRADE_VOLUME = """
RETURN sector, COUNT(*), SUM(S.volume)
PATTERN Stock S+
SEMANTICS skip-till-next-match
GROUP-BY sector
WITHIN 10 seconds SLIDE 10 seconds
"""


#: the declarative description of the job; every rebuilt runtime (reference
#: run, crashed run, recovered run) resolves from this one spec
CONFIG = JobConfig(
    queries=(
        QueryConfig(text=RISING_RUNS, name="rising-runs"),
        QueryConfig(text=TRADE_VOLUME, name="trade-volume"),
    ),
    watermark=WatermarkConfig(lateness=LATENESS),
    late=LatenessConfig(policy="side-channel", reprocess=True),
)


def build_runtime() -> StreamingRuntime:
    return CONFIG.build_runtime()


def distinct(records):
    """At-least-once consumers deduplicate by window identity."""
    return {
        (r.query, r.result.window_id, tuple(sorted(r.result.group.items())),
         tuple(sorted(r.result.values.items())))
        for r in records
    }


def main() -> None:
    ordered = sort_events(generate_stock_stream(StockConfig(event_count=3000, seed=9)))
    # a "network" that delivers events up to LATENESS seconds out of order
    rng = random.Random(41)
    feed = sorted(ordered, key=lambda e: (e.time + rng.uniform(0.0, LATENESS), e.sequence))

    # == 1: the uninterrupted pipeline run (the reference) ==
    reference = build_runtime()
    sink = MemorySink()
    reference.run(feed, sink)
    print("== live emission (first 8 window results) ==")
    for record in sink.records[:8]:
        print(f"  wm={record.watermark:7.1f}  "
              f"{json.dumps(record.as_dict(), default=str)}")
    incremental = sum(1 for r in sink.records if not r.is_final_flush)
    print(f"total results: {len(sink.records)} "
          f"({incremental} emitted before end of stream)")
    print()
    print("== runtime metrics ==")
    print(reference.metrics.describe())
    print()

    # == 2: the same job, checkpointing every 500 events -- then it "dies" ==
    store_dir = tempfile.mkdtemp(prefix="cogra-ckpt-")
    with CheckpointStore(store_dir) as store:
        crashed = build_runtime()
        survivors = []
        for record in crashed.drive(
            feed, checkpoint_store=store, checkpoint_interval=500
        ):
            survivors.append(record)
            if len(survivors) >= len(sink.records) // 2:
                break  # the "process dies" here: no flush, windows lost
        print("== checkpoint chain at the moment of the crash ==")
        for entry in store.entries:
            print(f"  #{entry.checkpoint_id}  {entry.kind:<5}  "
                  f"{entry.bytes_written:6d} bytes")

        # == 3: recover from the newest on-disk checkpoint ==
        snapshot = store.load_latest()
        ingested = snapshot["metrics"]["events_ingested"]
        resumed = build_runtime()
        resumed.restore(snapshot)
        replay = list(resumed.drive(feed[ingested:]))
        print()
        print(f"== recovery: resumed from checkpoint at event {ingested}, "
              f"replayed {len(feed) - ingested} events ==")

        # at-least-once: windows emitted between the checkpoint and the crash
        # are re-emitted by the resumed run; a consumer dedups by window
        assert distinct(survivors) | distinct(replay) == distinct(sink.records)
        print("pre-crash + resumed results == uninterrupted run (after dedup)")

    # sanity: the streaming run agrees with the batch engine on sorted input
    batch = CograEngine.from_text(RISING_RUNS).run(ordered)
    streamed = group_results(sink.records, query="rising-runs")
    assert {(r.window_id, tuple(r.group.items())) for r in batch} == {
        (r.window_id, tuple(r.group.items())) for r in streamed
    }
    print("batch parity check passed")


if __name__ == "__main__":
    main()
