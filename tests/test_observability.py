"""Tests for the observability subsystem (registry, tracing, exporters).

Three layers, mirroring the package:

* the :class:`MetricsRegistry` storage layer -- labeled families, cached
  children, snapshot/restore/merge round trips, and the fixed-bucket
  histogram quantile math that makes cross-process merging exact;
* the :class:`Tracer` and the exporters (JSONL time series, Prometheus
  text endpoint) with injectable clocks so every timing decision is
  deterministic;
* the integration property (this PR's acceptance criterion): the merged
  parent view of a sharded run -- including one that survives a worker
  SIGKILL and a forced mid-stream rebalance -- reports exactly the
  per-query event / result / latency-sample counts of an uninterrupted
  single-process run over the same stream.  ``cogra_query_matched_total``
  is deliberately excluded: inline match output is watermark-timing
  sensitive (documented in its help text), which is why the derived
  selectivity gauge is defined over results, not matches.
"""

import json
import random
import socket
import time
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from differential import kill_worker, stream
from repro.events.event import Event
from repro.streaming.checkpoint import CheckpointStore
from repro.streaming.ingest import PunctuationWatermark
from repro.streaming.metrics import REGISTRY_FAMILIES, RUNTIME_METRICS
from repro.streaming.observability import (
    DEFAULT_LATENCY_BUCKETS,
    JsonlMetricsExporter,
    JsonlTraceSink,
    MetricsRegistry,
    Observability,
    PrometheusTextServer,
    Tracer,
    histogram_quantile,
    merge_snapshots,
    render_prometheus,
    snapshot_quantile,
    snapshot_value,
)
from repro.streaming.runtime import StreamingRuntime
from repro.streaming.sharded import ShardedRuntime

QUERY = """
RETURN g, COUNT(*), MAX(A.v)
PATTERN SEQ(A+, B)
SEMANTICS skip-till-any-match
GROUP-BY g
WITHIN 20 seconds SLIDE 10 seconds
"""


#: runtime families whose totals do not depend on the worker count
INVARIANT_FAMILIES = (
    "cogra_events_ingested_total",
    "cogra_events_released_total",
    "cogra_results_emitted_total",
    "cogra_punctuations_total",
    "cogra_late_events_dropped_total",
    "cogra_late_events_rerouted_total",
)


def disordered_stream(punctuated):
    """A stream with every tenth event arriving eight places late.

    ``punctuated`` adds a ``Tick`` punctuation one second ahead of every
    fifteenth event, so the events of that second arrive behind it.
    """
    events = stream(count=300, types="AB")
    for index in range(0, len(events) - 8, 10):
        events.insert(index + 8, events.pop(index))
    if punctuated:
        for index in range(len(events) - 15, 0, -15):
            events.insert(index, Event("Tick", events[index].time + 1.0, {}))
    return events


def query_totals(snapshot, query="q"):
    """The layout-invariant per-query numbers a parity check compares."""
    families = snapshot["families"]
    latency = next(
        child
        for child in families["cogra_query_latency_seconds"]["children"]
        if child["labels"] == [query]
    )
    return {
        "events": snapshot_value(snapshot, "cogra_query_events_total", [query]),
        "results": snapshot_value(snapshot, "cogra_query_results_total", [query]),
        "selectivity": snapshot_value(snapshot, "cogra_query_selectivity", [query]),
        "latency_samples": latency["count"],
    }


# ---------------------------------------------------------------------------
# the registry storage layer
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_counter_children_are_cached_and_independent(self):
        registry = MetricsRegistry()
        family = registry.counter("events_total", "help", ("query",))
        a = family.labels("a")
        assert family.labels("a") is a
        a.inc()
        a.inc(2.5)
        family.labels("b").inc()
        assert a.value == 3.5
        assert family.labels("b").value == 1.0

    def test_unlabeled_families_expose_a_default_child(self):
        registry = MetricsRegistry()
        counter = registry.counter("ticks_total")
        counter.inc()
        counter.inc()
        assert counter.value == 2.0
        gauge = registry.gauge("depth")
        gauge.set(7)
        gauge.inc(-2)
        assert gauge.value == 5.0

    def test_get_or_create_is_idempotent_but_conflicts_raise(self):
        registry = MetricsRegistry()
        first = registry.counter("m", "h", ("q",))
        assert registry.counter("m", "other help", ("q",)) is first
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("m", "h", ("q",))
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("m", "h", ("other",))

    def test_label_arity_and_keyword_mismatches_raise(self):
        family = MetricsRegistry().counter("m", "h", ("a", "b"))
        with pytest.raises(ValueError, match="label values"):
            family.labels("only-one")
        with pytest.raises(ValueError, match="expects labels"):
            family.labels(a="1", wrong="2")
        with pytest.raises(ValueError, match="not both"):
            family.labels("1", b="2")
        assert family.labels(a="1", b="2") is family.labels("1", "2")

    def test_histogram_counts_sum_and_overflow(self):
        registry = MetricsRegistry()
        family = registry.histogram("lat", "h", (), buckets=(0.1, 1.0, 10.0))
        family.observe(0.05)
        family.observe(0.5)
        family.observe(5000.0)  # beyond the last bound: overflow bucket
        child = family.labels()
        assert child.count == 3
        assert child.sum == pytest.approx(5000.55)
        assert child.counts == [1, 1, 0, 1]

    def test_default_latency_buckets_span_micro_to_kiloseconds(self):
        assert DEFAULT_LATENCY_BUCKETS[0] == pytest.approx(1e-6)
        assert DEFAULT_LATENCY_BUCKETS[-1] == pytest.approx(1000.0)
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)

    def test_snapshot_restore_round_trip_keeps_cached_children_live(self):
        registry = MetricsRegistry()
        child = registry.counter("m", "h", ("q",)).labels("a")
        child.inc(5)
        registry.histogram("lat", "h").observe(0.2)
        state = registry.snapshot()

        registry.reset()
        assert child.value == 0.0  # reset mutates in place
        registry.restore(state)
        # the pre-restore reference sees the restored value: restore is
        # in place, so instrumented code keeps its cached children
        assert child.value == 5.0
        assert registry.snapshot() == state

    def test_restore_none_resets_and_bad_version_raises(self):
        registry = MetricsRegistry()
        registry.counter("m").inc(3)
        registry.restore(None)
        assert registry.counter("m").value == 0.0
        with pytest.raises(ValueError, match="registry snapshot"):
            registry.restore({"version": 99, "families": {}})

    def test_merge_adds_counters_and_histograms_gauges_take_last(self):
        def build(counter, gauge, observations):
            registry = MetricsRegistry()
            registry.counter("c", "h", ("q",)).labels("a").inc(counter)
            registry.gauge("g").set(gauge)
            hist = registry.histogram("lat", "h")
            for value in observations:
                hist.observe(value)
            return registry.snapshot()

        merged = merge_snapshots(
            build(2, 10, [0.001, 0.1]), build(3, 20, [0.1, 5.0])
        )
        assert snapshot_value(merged, "c", ["a"]) == 5.0
        assert snapshot_value(merged, "g") == 20.0
        family = merged["families"]["lat"]
        assert family["children"][0]["count"] == 4
        assert family["children"][0]["sum"] == pytest.approx(5.201)

    def test_merging_mismatched_bucket_layouts_raises(self):
        one = MetricsRegistry()
        one.histogram("lat", "h", buckets=(1.0, 2.0)).observe(1.5)
        other = MetricsRegistry()
        other.histogram("lat", "h", buckets=(1.0, 2.0, 3.0)).observe(1.5)
        with pytest.raises(ValueError, match="bucket layout"):
            merge_snapshots(one.snapshot(), other.snapshot())

    def test_snapshot_helpers_return_none_for_missing_series(self):
        snapshot = MetricsRegistry().snapshot()
        assert snapshot_value(snapshot, "absent") is None
        assert snapshot_quantile(snapshot, "absent", 0.95) is None

    def test_snapshot_quantile_merges_children_without_labels(self):
        registry = MetricsRegistry()
        family = registry.histogram("lat", "h", ("q",), buckets=(1.0, 2.0, 4.0))
        for _ in range(50):
            family.labels("a").observe(0.5)
        for _ in range(50):
            family.labels("b").observe(3.0)
        snapshot = registry.snapshot()
        # per-child quantiles see only their own observations ...
        assert snapshot_quantile(snapshot, "lat", 0.5, ["a"]) <= 1.0
        assert snapshot_quantile(snapshot, "lat", 0.5, ["b"]) > 2.0
        # ... while the label-free form merges all children first
        assert snapshot_quantile(snapshot, "lat", 0.95) > 2.0


class TestHistogramQuantile:
    def test_interpolates_within_the_bucket(self):
        # 100 observations all inside (1.0, 2.0]: p50 sits mid-bucket
        assert histogram_quantile((1.0, 2.0), (0, 100, 0), 0.5) == pytest.approx(1.5)

    def test_empty_histogram_and_bound_cases(self):
        assert histogram_quantile((1.0, 2.0), (0, 0, 0), 0.95) == 0.0
        assert histogram_quantile((1.0, 2.0), (0, 0, 5), 0.5) == 2.0  # overflow
        with pytest.raises(ValueError, match="quantile"):
            histogram_quantile((1.0,), (1, 0), 1.5)

    @settings(max_examples=25, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=1e-6, max_value=500.0), min_size=1, max_size=60
        ),
        split=st.integers(min_value=0, max_value=60),
    )
    def test_merged_halves_equal_the_whole(self, values, split):
        """The mergeability property behind the sharded parent view."""

        def observe(observations):
            registry = MetricsRegistry()
            hist = registry.histogram("lat", "h")
            for value in observations:
                hist.observe(value)
            return registry.snapshot()

        split = min(split, len(values))
        merged = merge_snapshots(observe(values[:split]), observe(values[split:]))
        merged_child = merged["families"]["lat"]["children"][0]
        whole_child = observe(values)["families"]["lat"]["children"][0]
        # bucket counts merge exactly; sums only up to addition order
        assert merged_child["counts"] == whole_child["counts"]
        assert merged_child["count"] == whole_child["count"]
        assert merged_child["sum"] == pytest.approx(whole_child["sum"])


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


class TestTracer:
    def test_disabled_without_rate_or_sink(self):
        assert not Tracer().enabled
        assert not Tracer(sample_rate=1.0).enabled  # no sink
        assert not Tracer(sink=[].append).enabled  # rate 0
        assert Tracer(sample_rate=1.0, sink=[].append).enabled
        assert Tracer().start_trace("event") is None

    def test_invalid_sample_rate_raises(self):
        with pytest.raises(ValueError, match="sample rate"):
            Tracer(sample_rate=1.5)

    def test_span_tree_links_trace_and_parent_ids(self):
        spans = []
        clock = iter(range(100))
        tracer = Tracer(sample_rate=1.0, sink=spans.append, clock=lambda: next(clock))
        root = tracer.start_trace("event", event_type="A")
        with root.child("ingest") as ingest:
            ingest.annotate(released=2)
        root.finish()
        root.finish()  # idempotent: no duplicate emission
        assert [span["name"] for span in spans] == ["ingest", "event"]
        ingest_span, event_span = spans
        assert ingest_span["trace"] == event_span["trace"]
        assert ingest_span["parent"] == event_span["span"]
        assert event_span["parent"] is None
        assert ingest_span["attrs"] == {"released": 2}
        assert event_span["attrs"] == {"event_type": "A"}
        assert ingest_span["duration_ms"] == pytest.approx(1000.0)

    def test_sampling_decision_is_made_once_per_root(self):
        spans = []
        tracer = Tracer(
            sample_rate=0.5, sink=spans.append, rng=random.Random(7)
        )
        roots = [tracer.start_trace("event") for _ in range(200)]
        sampled = [root for root in roots if root is not None]
        assert 40 < len(sampled) < 160  # rate ~0.5, seeded rng
        for root in sampled:  # everything under a sampled root is recorded
            root.child("ingest").finish()
        assert sum(span["name"] == "ingest" for span in spans) == len(sampled)

    def test_jsonl_sink_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlTraceSink(str(path))
        tracer = Tracer(sample_rate=1.0, sink=sink)
        tracer.start_trace("checkpoint", seconds=0.25).finish()
        tracer.close()
        sink(({"dropped": "after close"}))  # post-close writes are ignored
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == 1
        assert lines[0]["name"] == "checkpoint"
        assert lines[0]["attrs"] == {"seconds": 0.25}


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------


def small_snapshot():
    registry = MetricsRegistry()
    registry.counter("cogra_events_total", "events seen", ("query",)).labels(
        'with"quote'
    ).inc(3)
    registry.histogram("cogra_lat", "latency", (), buckets=(0.1, 1.0)).observe(0.5)
    return registry.snapshot()


class TestRenderPrometheus:
    def test_renders_help_type_and_escaped_labels(self):
        text = render_prometheus(small_snapshot())
        assert "# HELP cogra_events_total events seen\n" in text
        assert "# TYPE cogra_events_total counter\n" in text
        assert 'cogra_events_total{query="with\\"quote"} 3\n' in text

    def test_histograms_render_cumulative_buckets_and_inf(self):
        text = render_prometheus(small_snapshot())
        assert 'cogra_lat_bucket{le="0.1"} 0\n' in text
        assert 'cogra_lat_bucket{le="1"} 1\n' in text
        assert 'cogra_lat_bucket{le="+Inf"} 1\n' in text
        assert "cogra_lat_sum 0.5\n" in text
        assert "cogra_lat_count 1\n" in text

    def test_empty_snapshot_renders_nothing(self):
        assert render_prometheus(None) == ""
        assert render_prometheus({"families": {}}) == ""


class TestJsonlMetricsExporter:
    def test_exports_on_the_interval_only(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        clock = [0.0]
        exporter = JsonlMetricsExporter(
            str(path), interval=10.0, clock=lambda: clock[0], timestamp=lambda: 123.0
        )
        provider_calls = []

        def provider():
            provider_calls.append(1)
            return small_snapshot()

        assert exporter.maybe_export(provider)  # first call is always due
        clock[0] = 5.0
        assert not exporter.maybe_export(provider)  # within the interval
        clock[0] = 10.0
        assert exporter.maybe_export(provider)
        exporter.close()
        assert len(provider_calls) == 2
        assert exporter.samples_written == 2
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["ts"] for line in lines] == [123.0, 123.0]
        assert lines[0]["metrics"] == small_snapshot()

    def test_pathless_exporter_caches_but_writes_nothing(self):
        exporter = JsonlMetricsExporter(None, interval=1.0)
        exporter.export_now(small_snapshot)
        assert exporter.latest == small_snapshot()
        assert exporter.samples_written == 0
        exporter.close()

    def test_invalid_interval_raises(self):
        with pytest.raises(ValueError, match="interval"):
            JsonlMetricsExporter(None, interval=0.0)


class TestPrometheusTextServer:
    def scrape(self, address):
        with socket.create_connection(address, timeout=5.0) as connection:
            connection.sendall(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            chunks = []
            while True:
                chunk = connection.recv(4096)
                if not chunk:
                    break
                chunks.append(chunk)
        return b"".join(chunks).decode("utf-8")

    def test_serves_the_provided_snapshot(self):
        server = PrometheusTextServer(small_snapshot).start()
        try:
            assert server.start() is server  # idempotent
            response = self.scrape(server.address)
        finally:
            server.close()
        head, _, body = response.partition("\r\n\r\n")
        assert "200 OK" in head
        assert "text/plain" in head
        assert body == render_prometheus(small_snapshot())

    def test_serves_empty_body_before_the_first_sample(self):
        server = PrometheusTextServer(lambda: None).start()
        try:
            response = self.scrape(server.address)
        finally:
            server.close()
        assert response.endswith("\r\n\r\n")

    def test_close_after_a_scrape_returns_promptly_and_stops_the_thread(self):
        server = PrometheusTextServer(small_snapshot).start()
        thread = server._thread
        self.scrape(server.address)  # the thread is back in accept() after it
        started = time.monotonic()
        server.close()
        assert time.monotonic() - started < 1.0
        assert not thread.is_alive()


# ---------------------------------------------------------------------------
# runtime integration
# ---------------------------------------------------------------------------


class TestRuntimeIntegration:
    def test_single_process_registry_reflects_the_run(self):
        events = stream(count=200, types="AB")
        runtime = StreamingRuntime(lateness=0.0)
        runtime.register(QUERY, name="q")
        records = runtime.run(events)
        snapshot = runtime.registry_snapshot()
        totals = query_totals(snapshot)
        assert totals["events"] == len(events)
        assert totals["latency_samples"] == len(events)
        assert totals["results"] == len(records)
        assert totals["selectivity"] == pytest.approx(len(records) / len(events))
        # runtime-level counters ride along in the merged snapshot
        assert snapshot_value(snapshot, "cogra_events_ingested_total") == len(events)
        runtime.close()

    def test_registry_travels_through_checkpoint_restore(self):
        events = stream(count=120, types="AB")
        first = StreamingRuntime(lateness=0.0)
        first.register(QUERY, name="q")
        for event in events[:60]:
            first.process(event)
        # routed-to-executor count at the cut (the reorder buffer may still
        # hold a tail of events that are ingested but not yet released)
        routed = snapshot_value(
            first.registry_snapshot(), "cogra_query_events_total", ["q"]
        )
        state = first.checkpoint()
        first.close()
        assert routed > 0

        resumed = StreamingRuntime(lateness=0.0)
        resumed.register(QUERY, name="q")
        resumed.restore(state)
        assert snapshot_value(
            resumed.registry_snapshot(), "cogra_query_events_total", ["q"]
        ) == routed
        for event in events[60:]:
            resumed.process(event)
        resumed.flush()
        assert snapshot_value(
            resumed.registry_snapshot(), "cogra_query_events_total", ["q"]
        ) == float(len(events))
        resumed.close()

    def test_lifecycle_and_store_timers_record_checkpoints(self, tmp_path):
        runtime = StreamingRuntime(lateness=0.0)
        runtime.register(QUERY, name="q")
        store = CheckpointStore(
            tmp_path / "ckpt", registry=runtime.observability.registry
        )
        runtime.run(stream(count=150, types="AB"), checkpoint_store=store, checkpoint_interval=50)
        store.close()
        snapshot = runtime.registry_snapshot()
        families = snapshot["families"]
        lifecycle = {
            tuple(child["labels"]): child["count"]
            for child in families["cogra_lifecycle_seconds"]["children"]
        }
        assert lifecycle[("checkpoint",)] >= 2
        writes = families["cogra_checkpoint_write_seconds"]["children"]
        assert sum(child["count"] for child in writes) >= 2
        assert snapshot_value(
            snapshot, "cogra_checkpoint_bytes_total", ["base"]
        ) > 0
        runtime.close()

    def test_sampled_traces_cover_the_event_lifecycle(self):
        spans = []
        runtime = StreamingRuntime(
            lateness=0.0,
            observability=Observability(
                tracer=Tracer(sample_rate=1.0, sink=spans.append)
            ),
        )
        runtime.register(QUERY, name="q")
        runtime.run(stream(count=40, types="AB"))
        names = {span["name"] for span in spans}
        assert {"event", "ingest", "route"} <= names
        roots = [span for span in spans if span["parent"] is None]
        assert len(roots) == 40  # one sampled root per ingested event
        by_id = {span["span"]: span for span in spans}
        for span in spans:  # every child's parent is in the same trace
            if span["parent"] is not None:
                assert by_id[span["parent"]]["trace"] == span["trace"]
        runtime.close()

    def test_drive_exports_periodic_and_final_samples(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        exporter = JsonlMetricsExporter(str(path), interval=1e-9)
        runtime = StreamingRuntime(lateness=0.0)
        runtime.register(QUERY, name="q")
        runtime.run(stream(count=30, types="AB"), metrics_exporter=exporter)
        exporter.close()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) >= 2  # per-event samples plus the final flush
        final = lines[-1]["metrics"]
        assert snapshot_value(final, "cogra_query_events_total", ["q"]) == 30.0
        runtime.close()


# ---------------------------------------------------------------------------
# the parity property: merged sharded view == single-process view
# ---------------------------------------------------------------------------


def single_process_totals(events):
    runtime = StreamingRuntime(lateness=0.0)
    runtime.register(QUERY, name="q")
    runtime.run(events)
    totals = query_totals(runtime.registry_snapshot())
    runtime.close()
    return totals


class TestShardedParity:
    def test_plain_sharded_run_matches_single_process(self):
        events = stream(count=300, types="AB")
        runtime = ShardedRuntime(workers=2, lateness=0.0, ship_interval=8)
        runtime.register(QUERY, name="q")
        runtime.run(events)
        totals = query_totals(runtime.registry_snapshot())
        runtime.close()
        assert totals == single_process_totals(events)

    @pytest.mark.parametrize("punctuated", [False, True], ids=["drop", "side-channel"])
    def test_runtime_families_match_single_process(self, punctuated):
        """Only the parent counts the runtime families: a worker that counted
        its releases or emissions too would push the merged totals past the
        single-process ones."""
        events = disordered_stream(punctuated)

        def totals(runtime):
            runtime.register(QUERY, name="q")
            runtime.run(events)
            snapshot = runtime.registry_snapshot()
            runtime.close()
            return {name: snapshot_value(snapshot, name) for name in INVARIANT_FAMILIES}

        def config():
            if punctuated:
                return {
                    "watermark_strategy": PunctuationWatermark("Tick"),
                    "late_policy": "side-channel",
                }
            return {"lateness": 0.5, "late_policy": "drop"}

        expected = totals(StreamingRuntime(**config()))
        late = "rerouted" if punctuated else "dropped"
        assert expected[f"cogra_late_events_{late}_total"] > 0
        ticks = sum(event.event_type == "Tick" for event in events)
        assert expected["cogra_punctuations_total"] == ticks
        sharded = totals(ShardedRuntime(workers=2, ship_interval=8, **config()))
        assert sharded == expected

    def test_live_snapshot_mid_stream_quiesces_and_counts(self):
        events = stream(count=200, types="AB")
        runtime = ShardedRuntime(workers=2, lateness=0.0, ship_interval=8)
        runtime.register(QUERY, name="q")
        records = []
        for event in events[:100]:
            records.extend(runtime.process(event))
        live = runtime.registry_snapshot()
        assert snapshot_value(live, "cogra_query_events_total", ["q"]) > 0
        # the pull must not disturb the stream: finish and compare
        for event in events[100:]:
            records.extend(runtime.process(event))
        records.extend(runtime.flush())
        totals = query_totals(runtime.registry_snapshot())
        runtime.close()
        assert totals == single_process_totals(events)

    @settings(max_examples=3, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        workers=st.integers(min_value=2, max_value=3),
        kill_at=st.integers(min_value=120, max_value=200),
        rebalance_at=st.integers(min_value=40, max_value=110),
        slot_seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_chaotic_sharded_totals_match_single_process(
        self, tmp_path_factory, seed, workers, kill_at, rebalance_at, slot_seed
    ):
        """Satellite acceptance property: for random streams the merged
        parent registry equals the single-process one even when a worker is
        SIGKILL'd (and recovered from checkpoints) and hash slots are
        forcibly migrated mid-stream."""
        events = stream(seed, 300, types="AB")
        expected = single_process_totals(events)
        store = CheckpointStore(tmp_path_factory.mktemp("obs-parity") / "ckpt")
        runtime = ShardedRuntime(
            workers=workers, lateness=0.0, ship_interval=8, max_restarts=2
        )
        runtime.register(QUERY, name="q")
        rng = random.Random(slot_seed)

        def feed():
            for index, event in enumerate(events):
                if index == rebalance_at:
                    slots = rng.sample(range(runtime._router.slots), 4)
                    # always pick a target other than the slot's current
                    # owner: no-op reassignments are dropped, and a purely
                    # random draw can make every move a no-op, leaving no
                    # rebalance trace in the lifecycle histogram
                    runtime.rebalance(
                        [
                            (
                                slot,
                                (
                                    runtime._router.assignment[slot]
                                    + 1
                                    + rng.randrange(runtime.shard_count - 1)
                                )
                                % runtime.shard_count,
                            )
                            for slot in slots
                        ]
                    )
                if index == kill_at:
                    kill_worker(runtime, rng.randrange(runtime.shard_count))
                yield event

        runtime.run(feed(), checkpoint_store=store, checkpoint_interval=60)
        store.close()
        assert sum(runtime.restart_counts) == 1
        totals = query_totals(runtime.registry_snapshot())
        snapshot = runtime.registry_snapshot()
        runtime.close()
        assert totals == expected
        # the chaos leaves its traces in the lifecycle histogram
        lifecycle = {
            tuple(child["labels"]): child["count"]
            for child in snapshot["families"]["cogra_lifecycle_seconds"]["children"]
        }
        assert lifecycle[("recovery",)] >= 1
        assert lifecycle[("rebalance",)] >= 1
        assert lifecycle[("checkpoint",)] >= 1

    def test_store_recovery_restores_the_merged_registry(self, tmp_path):
        """The ``--recover`` path: a fresh parent restoring from the store
        adopts the checkpointed counts and continues without double counting
        the workers' shares."""
        events = stream(count=300, types="AB")
        expected = single_process_totals(events)
        store = CheckpointStore(tmp_path / "ckpt")
        first = ShardedRuntime(workers=2, lateness=0.0, ship_interval=8)
        first.register(QUERY, name="q")
        for event in events[:150]:
            first.process(event)
        store.save(first.checkpoint())
        first.drain_pending()
        first.close()  # simulated hard stop of the whole job

        resumed = ShardedRuntime(workers=3, lateness=0.0, ship_interval=8)
        resumed.register(QUERY, name="q")
        resumed.restore(store.load_latest())
        store.close()
        for event in events[150:]:
            resumed.process(event)
        resumed.flush()
        totals = query_totals(resumed.registry_snapshot())
        resumed.close()
        assert totals["events"] == expected["events"]
        assert totals["latency_samples"] == expected["latency_samples"]
        assert totals["selectivity"] == pytest.approx(
            expected["results"] / expected["events"]
        )


# ---------------------------------------------------------------------------
# one store: the runtime families live in the observability registry
# ---------------------------------------------------------------------------


def legacy_checkpoint(queries):
    """A checkpoint in the shape written before the runtime families moved
    into the observability registry: its ``registry`` holds per-query and
    lifecycle families only, and ``metrics`` carries every runtime counter."""
    bounds = list(DEFAULT_LATENCY_BUCKETS)
    counts = [0] * (len(bounds) + 1)
    counts[bisect_left(bounds, 0.25)] = 1
    return {
        "version": 1,
        "queries": queries,
        "executors": {
            "q": {
                "query": "query",
                "granularity": "type",
                "events_seen": 0,
                "last_time": None,
                "aggregators": [],
            }
        },
        "ingest": {
            "strategy": {
                "class": "BoundedDelayWatermark",
                "state": {"delay": 0.0, "max_time": 31.452},
            },
            "late_policy": "raise",
            "buffered": [],
            "arrivals": 150,
            "dropped": 3,
            "side_channel": [],
        },
        "metrics": {
            "events_ingested": 150,
            "events_released": 136,
            "events_buffered_peak": 19,
            "punctuations_seen": 0,
            "late_events_dropped": 3,
            "late_events_rerouted": 0,
            "results_emitted": 12,
            "rebalance_cycles": 1,
            "rebalance_slots_moved": 2,
            "rebalance_keys_moved": 5,
            "backpressure_waits": 4,
            "replan_cycles": 0,
            "replan_migrations": 0,
            "watermark": 31.452,
            "max_event_time": 31.452,
        },
        "emitted_counts": {"q": 12},
        "registry": {
            "version": 1,
            "families": {
                "cogra_query_results_total": {
                    "kind": "counter",
                    "help": "result records emitted to the caller",
                    "labels": ["query"],
                    "children": [{"labels": ["q"], "value": 12.0}],
                },
                "cogra_lifecycle_seconds": {
                    "kind": "histogram",
                    "help": "durations of checkpoint/restore/recovery/rebalance "
                    "operations",
                    "labels": ["op"],
                    "bounds": bounds,
                    "children": [
                        {
                            "labels": ["rebalance"],
                            "counts": counts,
                            "sum": 0.25,
                            "count": 1,
                        }
                    ],
                },
            },
        },
    }


class TestRuntimeFamilies:
    def test_worker_registries_carry_no_runtime_family(self):
        runtime = ShardedRuntime(workers=2, lateness=0.0, ship_interval=8)
        runtime.register(QUERY, name="q")
        for event in stream(count=120, types="AB"):
            runtime.process(event)
        pulled = runtime._collect_worker_registries()
        runtime.close()
        names = {row[1] for row in RUNTIME_METRICS.values()}
        assert len(pulled) == 2
        for registry in pulled:
            assert "cogra_query_events_total" in registry["families"]
            assert names.isdisjoint(registry["families"])

    @pytest.mark.parametrize("sharded", [False, True], ids=["single", "sharded"])
    def test_legacy_checkpoint_restores_the_same_counters(self, sharded):
        probe = StreamingRuntime(lateness=0.0)
        probe.register(QUERY, name="q")
        state = legacy_checkpoint(probe.checkpoint()["queries"])
        runtime = (
            ShardedRuntime(workers=2, lateness=0.0) if sharded
            else StreamingRuntime(lateness=0.0)
        )
        runtime.register(QUERY, name="q")
        runtime.restore(json.loads(json.dumps(state)))
        try:
            # the counters of the removed re-planning loop are dropped
            assert runtime.metrics.snapshot() == {
                name: value
                for name, value in state["metrics"].items()
                if not name.startswith("replan_")
            }
            # the pause views read the restored lifecycle sums; the
            # backpressure seconds were not in the old registry
            assert runtime.metrics.rebalance_pause_seconds == 0.25
            assert runtime.metrics.backpressure_seconds == 0.0
            snapshot = runtime.registry_snapshot()
            assert snapshot_value(snapshot, "cogra_events_ingested_total") == 150
            assert snapshot_value(snapshot, "cogra_watermark") == 31.452
        finally:
            runtime.close()

    @pytest.mark.parametrize("sharded", [False, True], ids=["single", "sharded"])
    def test_a_restore_brings_back_no_series_the_code_no_longer_writes(
        self, sharded
    ):
        probe = StreamingRuntime(lateness=0.0)
        probe.register(QUERY, name="q")
        state = legacy_checkpoint(probe.checkpoint()["queries"])
        families = state["registry"]["families"]
        # what older builds wrote: the re-planning loop's counters and
        # lifecycle timer, and the store's delta children
        for name in ("cogra_replan_cycles_total", "cogra_replan_migrations_total"):
            families[name] = {
                "kind": "counter",
                "help": "",
                "labels": [],
                "children": [{"labels": [], "value": 2.0}],
            }
        lifecycle = families["cogra_lifecycle_seconds"]
        lifecycle["children"].append({**lifecycle["children"][0], "labels": ["replan"]})
        families["cogra_checkpoint_bytes_total"] = {
            "kind": "counter",
            "help": "serialized checkpoint bytes written to the store",
            "labels": ["kind"],
            "children": [
                {"labels": ["base"], "value": 900.0},
                {"labels": ["delta"], "value": 300.0},
            ],
        }
        runtime = (
            ShardedRuntime(workers=2, lateness=0.0) if sharded
            else StreamingRuntime(lateness=0.0)
        )
        runtime.register(QUERY, name="q")
        runtime.restore(json.loads(json.dumps(state)))
        try:
            restored = runtime.registry_snapshot()["families"]
            assert "cogra_replan_cycles_total" not in restored
            assert "cogra_replan_migrations_total" not in restored
            ops = [c["labels"] for c in restored["cogra_lifecycle_seconds"]["children"]]
            assert ["replan"] not in ops and ["rebalance"] in ops
            assert restored["cogra_checkpoint_bytes_total"]["children"] == [
                {"labels": ["base"], "value": 900.0}
            ]
            assert runtime.metrics.rebalance_pause_seconds == 0.25
        finally:
            runtime.close()

    def test_every_series_a_run_writes_is_declared(self, tmp_path):
        runtime = ShardedRuntime(
            workers=2, lateness=0.0, ship_interval=8, max_restarts=1
        )
        runtime.register(QUERY, name="q")
        store = CheckpointStore(
            tmp_path / "ckpt", registry=runtime.observability.registry
        )
        for index, event in enumerate(stream(count=200, types="AB")):
            runtime.process(event)
            if index == 60:
                runtime.rebalance([(0, (runtime._router.assignment[0] + 1) % 2)])
            elif index == 100:
                store.save(runtime.checkpoint())
            elif index == 140:
                kill_worker(runtime, 1)
        runtime.restore(store.load_latest())
        runtime.flush()
        snapshot = runtime.registry_snapshot()
        runtime.close()
        assert runtime.restart_counts == [0, 1]
        families = snapshot["families"]
        derived = {"cogra_query_selectivity"}  # added at export
        assert set(families) - derived <= set(REGISTRY_FAMILIES)
        for name, allowed in REGISTRY_FAMILIES.items():
            if allowed is not None:
                children = families[name]["children"]
                assert {tuple(child["labels"]) for child in children} == allowed, name

    def test_pause_totals_are_cumulative_across_a_restore(self):
        events = stream(count=200, types="AB")
        first = ShardedRuntime(workers=2, lateness=0.0, ship_interval=8)
        first.register(QUERY, name="q")
        for event in events[:100]:
            first.process(event)
        slot = 0
        first.rebalance([(slot, (first._router.assignment[slot] + 1) % 2)])
        paused = first.metrics.rebalance_pause_seconds
        state = first.checkpoint()
        first.close()
        assert paused > 0.0
        restored = next(
            child["sum"]
            for child in state["registry"]["families"]["cogra_lifecycle_seconds"][
                "children"
            ]
            if child["labels"] == ["rebalance"]
        )
        assert restored == paused

        resumed = StreamingRuntime(lateness=0.0)
        resumed.register(QUERY, name="q")
        resumed.restore(state)
        assert resumed.metrics.rebalance_pause_seconds == paused
        assert resumed.metrics.rebalance_cycles == 1
        for event in events[100:]:
            resumed.process(event)
        resumed.flush()
        assert resumed.metrics.rebalance_pause_seconds == paused
        resumed.close()
