"""Tests for backpressure: bounded inboxes and the sink ready() signal.

The invariants: a slow (not-ready) sink pauses ingestion instead of letting
records pile up without bound; the pauses are surfaced as
``backpressure_waits`` / ``backpressure_seconds``; and throttling NEVER
changes what the pipeline computes -- only when.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from differential import canonical, stream
from repro.errors import SourceError
from repro.streaming.config import BackpressureConfig
from repro.streaming.observability import snapshot_value
from repro.streaming.runtime import StreamingRuntime
from repro.streaming.sharded import ShardedRuntime
from repro.streaming.sources import MemorySink, Sink

QUERY = """
RETURN g, COUNT(*), MAX(A.v)
PATTERN SEQ(A+, B)
SEMANTICS skip-till-any-match
GROUP-BY g
WITHIN 20 seconds SLIDE 10 seconds
"""

FAST = BackpressureConfig(poll_interval_seconds=0.0005)


def new_runtime():
    runtime = StreamingRuntime(lateness=0.0)
    runtime.register(QUERY, name="q")
    return runtime


class StallingSink(MemorySink):
    """Reports not-ready on a fixed schedule of ``ready()`` polls.

    ``pattern[i]`` answers the i-th poll (cycled); ``False`` entries force
    the driver into its backpressure wait loop before the next event.
    """

    def __init__(self, pattern=(False, True)):
        super().__init__()
        self._pattern = pattern
        self._polls = 0

    def ready(self):
        answer = self._pattern[self._polls % len(self._pattern)]
        self._polls += 1
        return answer


class StuckSink(MemorySink):
    """Not ready for ``polls`` polls, then ready for good.

    At the default 2,000 polls of 0.5 ms it is stuck for over a second,
    a hundred times the 0.01 s wait limit the test sets: the limit fails
    the drive long before, and a drive that ignored it would finish (and
    fail the test) instead of hanging.
    """

    def __init__(self, polls=2000):
        super().__init__()
        self._stuck_for = polls

    def ready(self):
        self._stuck_for -= 1
        return self._stuck_for < 0


class TestSinkReadySignal:
    def test_default_sink_is_always_ready(self):
        assert Sink().ready() is True
        assert MemorySink().ready() is True

    def test_stalling_sink_pauses_ingestion_and_counts_waits(self):
        events = stream(count=200)
        expected = new_runtime().run(list(events))

        runtime = new_runtime()
        sink = StallingSink()
        runtime.run(list(events), sink, backpressure=FAST)
        assert runtime.metrics.backpressure_waits > 0
        assert runtime.metrics.backpressure_seconds > 0.0
        assert canonical(sink.records) == canonical(expected)

    def test_throttled_results_are_identical_in_order_too(self):
        events = stream(7, 120)
        fast_sink, slow_sink = MemorySink(), StallingSink((False, False, True))
        new_runtime().run(list(events), fast_sink)
        new_runtime().run(list(events), slow_sink, backpressure=FAST)
        assert [r.as_dict() for r in fast_sink.records] == [
            r.as_dict() for r in slow_sink.records
        ]

    def test_waits_counter_is_monotonic_across_the_run(self):
        runtime = new_runtime()
        sink = StallingSink()
        samples = []
        for _ in runtime.drive(  # which emits into the sink itself
            list(stream(count=150)), sink=sink, backpressure=FAST
        ):
            samples.append(runtime.metrics.backpressure_waits)
        assert samples == sorted(samples)
        assert samples[-1] > 0

    def test_always_ready_sink_records_no_waits(self):
        runtime = new_runtime()
        runtime.run(list(stream(count=80)), MemorySink())
        assert runtime.metrics.backpressure_waits == 0
        assert runtime.metrics.backpressure_seconds == 0.0

    def test_permanently_stalled_sink_fails_loudly(self):
        runtime = new_runtime()
        guarded = BackpressureConfig(
            poll_interval_seconds=0.0005, max_wait_seconds=0.01
        )
        with pytest.raises(SourceError, match="downstream consumer stuck"):
            runtime.run(
                list(stream(count=40)), StuckSink(), backpressure=guarded
            )
        assert runtime.metrics.backpressure_waits > 0

    def test_backpressure_metrics_appear_in_registry_and_describe(self):
        runtime = new_runtime()
        runtime.run(list(stream(count=100)), StallingSink(), backpressure=FAST)
        snapshot = runtime.registry_snapshot()
        assert snapshot_value(snapshot, "cogra_backpressure_waits_total") > 0
        assert snapshot_value(snapshot, "cogra_backpressure_seconds_total") > 0.0
        assert "backpressure" in runtime.metrics.describe()

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        pattern=st.lists(st.booleans(), min_size=1, max_size=6).filter(any),
    )
    def test_throttling_never_changes_results(self, seed, pattern):
        events = stream(seed, 100)
        expected = new_runtime().run(list(events))

        runtime = new_runtime()
        sink = StallingSink(tuple(pattern))
        runtime.run(list(events), sink, backpressure=FAST)
        assert canonical(sink.records) == canonical(expected)


class TestShardedBoundedInbox:
    def test_tight_inbox_bound_throttles_without_changing_results(self):
        events = stream(count=300)
        expected = new_runtime().run(list(events))

        runtime = ShardedRuntime(
            workers=2, lateness=0.0, ship_interval=1, max_inflight=1
        )
        runtime.register(QUERY, name="q")
        peak_inflight = 0

        def feed():
            nonlocal peak_inflight
            for event in events:
                peak_inflight = max(peak_inflight, len(runtime._inflight))
                yield event

        records = runtime.run(feed())
        assert canonical(records) == canonical(expected)
        assert runtime.metrics.backpressure_waits > 0
        assert runtime.metrics.backpressure_seconds >= 0.0
        # the bound is the memory guarantee: unacked epochs never exceed
        # the configured inbox size plus the one batch being shipped
        assert peak_inflight <= 2

    def test_default_inbox_is_loose_enough_to_avoid_waits(self):
        events = stream(count=200)
        runtime = ShardedRuntime(workers=2, lateness=0.0, ship_interval=8)
        runtime.register(QUERY, name="q")
        runtime.run(list(events))
        assert runtime.metrics.backpressure_waits == 0

    def test_invalid_max_inflight_rejected(self):
        with pytest.raises(Exception, match="max_inflight"):
            ShardedRuntime(workers=2, max_inflight=0)
