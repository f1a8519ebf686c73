"""The multi-tenant job server: lifecycle, quotas, fairness, isolation.

Covers the in-process API (``submit``/``status``/``results``/``cancel``/
``list_jobs``/``metrics_snapshot``), the newline-delimited JSON socket
protocol and its typed error kinds, the tenant quota mechanisms (token
bucket rate limits, checkpoint-time state caps, concurrency bounds), and
the headline isolation property: an adversarial tenant -- hot keys, a
wedged sink, a state bomb -- cannot change a well-behaved tenant's
results (byte-identical to a solo run) or blow up its latency.
"""

import json
import socket
import threading
import time

import pytest

from differential import GROUPS, stream
from repro.errors import (
    CograError,
    ConcurrencyQuotaError,
    ConfigError,
    JobStartError,
    LateEventError,
    QuotaError,
    RateQuotaError,
    StateQuotaError,
)
from repro.events.event import Event
from repro.streaming.checkpoint import CHECKPOINT_VERSION, CheckpointStore
from repro.streaming.config import JobConfig, ServerConfig, TenantConfig, job
from repro.streaming.jsonl import write_jsonl_events
from repro.streaming.observability import (
    filter_snapshot,
    label_snapshot,
    merge_snapshots,
)
from repro.streaming.sources import IterableSource, JsonlFileSink
from repro.streaming.server import (
    CANCELLED,
    DONE,
    FAILED,
    RUNNING,
    JobServer,
    JobServerClient,
    TokenBucket,
)
from repro.streaming.server.server import (
    UNSUPPORTED_SETTINGS,
    ServerJob,
    error_kind,
)

LATENESS = 5.0

TYPE_QUERY = """
RETURN g, COUNT(*), MAX(A.v)
PATTERN SEQ(A+, B)
SEMANTICS skip-till-any-match
GROUP-BY g
WITHIN 20 seconds SLIDE 10 seconds
"""


#: one group per event of a 400-event stream: a state bomb
MANY_GROUPS = tuple(f"g{index}" for index in range(400))


def write_stream(path, events):
    with open(path, "w", encoding="utf-8") as handle:
        write_jsonl_events(events, handle)
    return str(path)


def job_dict(events_path, **overrides):
    """A complete job-config dict reading the given JSONL events file."""
    config = {
        "queries": [{"text": TYPE_QUERY}],
        "source": {"spec": str(events_path)},
        "watermark": {"lateness": LATENESS},
        "late": {"policy": "drop"},
    }
    config.update(overrides)
    return config


def record_bytes(records):
    """The byte-exact serialization results are compared with."""
    return json.dumps(
        [record.as_dict() for record in records], sort_keys=True
    ).encode()


def solo_record_bytes(config_dict):
    """The records of a solo (no server) run of the same config."""
    return record_bytes(job(JobConfig.from_dict(config_dict)).results())


# ---------------------------------------------------------------------------
# the token bucket
# ---------------------------------------------------------------------------


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestTokenBucket:
    def test_starts_full_and_is_all_or_nothing(self):
        bucket = TokenBucket(10.0, clock=FakeClock())
        assert bucket.take(10)
        assert not bucket.take(1)

    def test_refills_to_exactly_the_rate_after_one_second(self):
        clock = FakeClock()
        bucket = TokenBucket(10.0, clock=clock)
        assert bucket.take(10)
        clock.advance(1.0)
        assert bucket.available == pytest.approx(10.0)
        # capped at capacity: waiting longer does not accumulate more
        clock.advance(100.0)
        assert bucket.available == pytest.approx(10.0)

    def test_exactly_at_the_rate_limit_boundary(self):
        """A tenant taking precisely rate tokens/second never starves."""
        clock = FakeClock()
        bucket = TokenBucket(50.0, clock=clock)
        assert bucket.take(50)
        for _ in range(5):
            clock.advance(1.0)
            assert bucket.take(50), "exactly-at-rate take must succeed"
        # but one token over the refill is refused
        clock.advance(1.0)
        assert not bucket.take(51)

    def test_grant_takes_the_affordable_prefix(self):
        clock = FakeClock()
        bucket = TokenBucket(4.0, clock=clock)
        assert bucket.grant(10) == 4
        assert bucket.grant(10) == 0
        clock.advance(0.5)
        assert bucket.grant(10) == 2

    def test_fractional_balance_grants_whole_tokens_only(self):
        clock = FakeClock()
        bucket = TokenBucket(2.0, clock=clock)
        assert bucket.grant(2) == 2
        clock.advance(0.4)  # 0.8 tokens: not one whole token yet
        assert bucket.grant(5) == 0
        clock.advance(0.1)  # exactly 1.0 tokens
        assert bucket.grant(5) == 1

    def test_capacity_defaults_to_one_second_with_a_floor_of_one(self):
        assert TokenBucket(10.0).capacity == 10.0
        assert TokenBucket(0.25).capacity == 1.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="rate"):
            TokenBucket(0.0)
        with pytest.raises(ValueError, match="capacity"):
            TokenBucket(5.0, capacity=0.0)

    def test_concurrent_grants_never_overdraw(self):
        clock = FakeClock()
        bucket = TokenBucket(1000.0, capacity=1000.0, clock=clock)
        granted = []

        def worker():
            total = 0
            for _ in range(50):
                total += bucket.grant(7)
            granted.append(total)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sum(granted) <= 1000


# ---------------------------------------------------------------------------
# snapshot labelling (the metrics-isolation mechanism)
# ---------------------------------------------------------------------------


def _snapshot(value, **labels):
    names = list(labels)
    return {
        "version": 1,
        "families": {
            "events_total": {
                "kind": "counter",
                "help": "h",
                "labels": names,
                "children": [
                    {"labels": [str(labels[n]) for n in names], "value": value}
                ],
            }
        },
    }


class TestSnapshotLabelling:
    def test_label_prepends_names_and_values(self):
        labelled = label_snapshot(_snapshot(3.0, shard="0"), job_id="j1")
        family = labelled["families"]["events_total"]
        assert family["labels"] == ["job_id", "shard"]
        assert family["children"][0]["labels"] == ["j1", "0"]
        assert family["children"][0]["value"] == 3.0

    def test_label_leaves_the_input_untouched(self):
        original = _snapshot(1.0, shard="0")
        label_snapshot(original, job_id="j1")
        assert original["families"]["events_total"]["labels"] == ["shard"]

    def test_label_rejects_a_colliding_label_name(self):
        with pytest.raises(ValueError, match="job_id"):
            label_snapshot(_snapshot(1.0, job_id="x"), job_id="j1")

    def test_label_requires_at_least_one_label(self):
        with pytest.raises(ValueError):
            label_snapshot(_snapshot(1.0, shard="0"))

    def test_filter_is_the_complement_of_label(self):
        merged = merge_snapshots(
            label_snapshot(_snapshot(3.0, shard="0"), job_id="j1"),
            label_snapshot(_snapshot(5.0, shard="0"), job_id="j2"),
        )
        mine = filter_snapshot(merged, job_id="j2")
        children = mine["families"]["events_total"]["children"]
        assert [child["value"] for child in children] == [5.0]

    def test_filter_drops_families_without_the_label(self):
        assert filter_snapshot(_snapshot(1.0, shard="0"), job_id="j1") == {
            "version": 1,
            "families": {},
        }

    def test_empty_snapshots_stay_valid(self):
        assert label_snapshot(None, job_id="j1")["families"] == {}
        assert filter_snapshot(None, job_id="j1")["families"] == {}


# ---------------------------------------------------------------------------
# in-process lifecycle
# ---------------------------------------------------------------------------


class TestJobServerLifecycle:
    def test_submit_wait_results_match_a_solo_run(self, tmp_path):
        events = write_stream(tmp_path / "events.jsonl", stream(count=60, disorder=LATENESS))
        config = job_dict(events)
        with JobServer() as server:
            job_id = server.submit(config)
            status = server.wait(job_id)
            assert status["state"] == DONE
            assert status["events_ingested"] == 60
            assert record_bytes(server.results(job_id)) == solo_record_bytes(config)

    def test_list_jobs_filters_by_tenant(self, tmp_path):
        events = write_stream(tmp_path / "events.jsonl", stream(count=60, disorder=LATENESS))
        with JobServer() as server:
            first = server.submit(job_dict(events), tenant="alpha")
            second = server.submit(job_dict(events), tenant="beta")
            server.wait(first)
            server.wait(second)
            rows = server.list_jobs()
            assert [row["job_id"] for row in rows] == [first, second]
            alpha = server.list_jobs(tenant="alpha")
            assert [row["job_id"] for row in alpha] == [first]

    def test_unknown_job_id_raises_key_error(self):
        with JobServer() as server:
            with pytest.raises(KeyError, match="job-9999"):
                server.status("job-9999")
            with pytest.raises(KeyError):
                server.results("job-9999")

    def test_submit_rejects_non_config_values(self):
        with JobServer() as server:
            with pytest.raises(ConfigError, match="JobConfig"):
                server.submit(42)

    def test_cancel_stops_a_running_job(self, tmp_path):
        events = write_stream(tmp_path / "events.jsonl", stream(count=2000, disorder=LATENESS))
        config = ServerConfig(
            tenants=(
                TenantConfig("slow", max_events_per_second=10.0, burst=10.0),
            )
        )
        with JobServer(config) as server:
            job_id = server.submit(job_dict(events), tenant="slow")
            status = server.cancel(job_id)
            assert status["state"] in (RUNNING, CANCELLED)
            final = server.wait(job_id)
            assert final["state"] == CANCELLED
            # cancelling a terminal job is a no-op
            assert server.cancel(job_id)["state"] == CANCELLED

    def test_a_broken_source_fails_the_job_not_the_server(self, tmp_path):
        good = write_stream(tmp_path / "events.jsonl", stream(count=60, disorder=LATENESS))
        bad = tmp_path / "missing.jsonl"
        with JobServer() as server:
            try:
                job_id = server.submit(job_dict(bad))
                assert server.wait(job_id)["state"] == FAILED
            except CograError:
                pass  # rejected synchronously is equally acceptable
            healthy = server.submit(job_dict(good))
            assert server.wait(healthy)["state"] == DONE

    def test_checkpoints_are_isolated_per_job(self, tmp_path):
        events = write_stream(tmp_path / "events.jsonl", stream(count=60, disorder=LATENESS))
        config = ServerConfig(dir=str(tmp_path / "server"))
        checkpointed = job_dict(
            events, checkpoint={"dir": "unused", "interval": 16}
        )
        with JobServer(config) as server:
            first = server.submit(checkpointed)
            second = server.submit(checkpointed)
            server.wait(first)
            server.wait(second)
            root = tmp_path / "server" / "checkpoints"
            assert (root / first).is_dir()
            assert (root / second).is_dir()
            assert any((root / first).iterdir())

    def test_metrics_snapshot_is_labelled_and_filterable(self, tmp_path):
        events = write_stream(tmp_path / "events.jsonl", stream(count=60, disorder=LATENESS))
        with JobServer() as server:
            first = server.submit(job_dict(events), tenant="alpha")
            second = server.submit(job_dict(events), tenant="beta")
            server.wait(first)
            server.wait(second)
            merged = server.metrics_snapshot()
            family = merged["families"]["cogra_events_ingested_total"]
            assert family["labels"][:2] == ["job_id", "tenant"]
            seen = {tuple(child["labels"][:2]) for child in family["children"]}
            assert (first, "alpha") in seen
            assert (second, "beta") in seen
            # one tenant's view is a filter away, by tenant or by job
            alpha = server.metrics_snapshot(tenant="alpha")
            children = alpha["families"]["cogra_events_ingested_total"]["children"]
            assert {child["labels"][0] for child in children} == {first}
            same = filter_snapshot(merged, job_id=first)
            assert (
                same["families"]["cogra_events_ingested_total"]["children"]
                == children
            )


# ---------------------------------------------------------------------------
# quotas
# ---------------------------------------------------------------------------


class TestQuotas:
    def test_concurrency_quota_rejects_the_one_extra_job(self, tmp_path):
        events = write_stream(tmp_path / "events.jsonl", stream(count=2000, disorder=LATENESS))
        config = ServerConfig(
            tenants=(
                TenantConfig(
                    "bounded",
                    max_events_per_second=10.0,
                    burst=10.0,
                    max_concurrent_jobs=1,
                ),
            )
        )
        with JobServer(config) as server:
            first = server.submit(job_dict(events), tenant="bounded")
            with pytest.raises(ConcurrencyQuotaError) as excinfo:
                server.submit(job_dict(events), tenant="bounded")
            assert excinfo.value.tenant == "bounded"
            # a finished job frees the slot
            server.cancel(first)
            server.wait(first)
            second = server.submit(job_dict(events), tenant="bounded")
            server.cancel(second)
            server.wait(second)

    def test_rate_quota_throttles_but_completes(self, tmp_path):
        events = write_stream(tmp_path / "events.jsonl", stream(count=100, disorder=LATENESS))
        config = ServerConfig(
            tenants=(
                TenantConfig("slow", max_events_per_second=50.0, burst=50.0),
            )
        )
        with JobServer(config) as server:
            started = time.monotonic()
            job_id = server.submit(job_dict(events), tenant="slow")
            status = server.wait(job_id, timeout=30.0)
            elapsed = time.monotonic() - started
            assert status["state"] == DONE
            assert status["events_ingested"] == 100
            # 100 events at 50/s with a 50-token burst needs about a second
            assert elapsed >= 0.8

    def test_rate_quota_is_shared_across_a_tenants_concurrent_jobs(
        self, tmp_path
    ):
        # the quota is a tenant-level bound: two concurrent jobs split one
        # token bucket rather than each getting the full configured rate
        events = write_stream(tmp_path / "events.jsonl", stream(count=100, disorder=LATENESS))
        config = ServerConfig(
            tenants=(
                TenantConfig("slow", max_events_per_second=100.0, burst=100.0),
            )
        )
        with JobServer(config) as server:
            started = time.monotonic()
            first = server.submit(job_dict(events), tenant="slow")
            second = server.submit(job_dict(events), tenant="slow")
            assert server._jobs[first].bucket is server._jobs[second].bucket
            assert server.wait(first, timeout=30.0)["state"] == DONE
            assert server.wait(second, timeout=30.0)["state"] == DONE
            elapsed = time.monotonic() - started
            # 200 events total at a shared 100/s with a 100-token burst
            # needs about a second; per-job buckets would finish instantly
            assert elapsed >= 0.8

    def test_sink_backpressure_defers_the_whole_rate_capped_batch(
        self, tmp_path
    ):
        # regression: with a partial token grant and a not-ready sink, the
        # old order granted first and then overwrote the stored suffix
        # with the prefix -- silently dropping events -- while charging
        # tokens the deferred batch never used
        class StubSession:
            def __init__(self):
                self.ready = False
                self.stepped = []

            def sink_ready(self):
                return self.ready

            def step(self, batch):
                self.stepped.extend(batch)
                return []

        class StubJob:
            """What ``_advance`` steps: a Job's session."""

            session = StubSession()

        clock = FakeClock()
        bucket = TokenBucket(4.0, capacity=4.0, clock=clock)
        tenant = TenantConfig("slow", max_events_per_second=4.0, burst=4.0)
        job = ServerJob("job-0001", tenant, StubJob(), 4, bucket=bucket)
        batch = list(range(10))
        job.pending_batch = list(batch)
        server = JobServer(ServerConfig(dir=str(tmp_path)))
        # sink not ready: the whole batch stays pending, no tokens spent
        assert server._advance(job) is False
        assert job.pending_batch == batch
        assert bucket.available == pytest.approx(4.0)
        # sink drains: the affordable prefix runs, the suffix stays
        job.pipeline.session.ready = True
        assert server._advance(job) is True
        assert job.pipeline.session.stepped == batch[:4]
        assert job.pending_batch == batch[4:]
        assert bucket.available == pytest.approx(0.0)

    def test_state_quota_fails_the_job_mid_checkpoint(self, tmp_path):
        # every event its own group: aggregator state grows monotonically
        events = write_stream(
            tmp_path / "events.jsonl", stream(count=400, groups=MANY_GROUPS, disorder=LATENESS)
        )
        config = ServerConfig(
            tenants=(TenantConfig("capped", max_state_bytes=256),)
        )
        with JobServer(config) as server:
            job_id = server.submit(
                job_dict(events, checkpoint={"dir": "unused", "interval": 32}),
                tenant="capped",
            )
            status = server.wait(job_id)
            assert status["state"] == FAILED
            assert status["kind"] == "state-quota"
            assert "256-byte quota" in status["error"]
            assert "'capped'" in status["error"]

    def test_state_quota_without_job_checkpointing_still_applies(self, tmp_path):
        # the job config never checkpoints; the server forces periodic
        # quota checkpoints (STATE_CHECK_INTERVAL) for capped tenants
        events = write_stream(
            tmp_path / "events.jsonl", stream(count=600, groups=MANY_GROUPS, disorder=LATENESS)
        )
        config = ServerConfig(
            tenants=(TenantConfig("capped", max_state_bytes=256),)
        )
        with JobServer(config) as server:
            job_id = server.submit(job_dict(events), tenant="capped")
            status = server.wait(job_id)
            assert status["state"] == FAILED
            assert status["kind"] == "state-quota"

    def test_checkpoint_store_enforces_the_cap_synchronously(self, tmp_path):
        store = CheckpointStore(
            tmp_path / "store", max_state_bytes=32, tenant="capped"
        )
        oversized = {
            "version": CHECKPOINT_VERSION,
            "executors": {"pad": "x" * 100},
        }
        with pytest.raises(StateQuotaError) as excinfo:
            store.save(oversized)
        assert excinfo.value.tenant == "capped"
        assert excinfo.value.limit_bytes == 32
        assert excinfo.value.state_bytes > 32
        store.close()

    def test_state_quota_counts_utf8_bytes_not_characters(self, tmp_path):
        # the quota is a byte count: measure the encoded serialization,
        # not len() of the (possibly escaped) string
        executors = {
            "q0": {
                "events_seen": 1,
                "last_time": 0.0,
                "aggregators": [[0, ["é" * 8], {"count": 1}]],
            }
        }
        snapshot = {"version": CHECKPOINT_VERSION, "executors": executors}
        measured = len(json.dumps(executors).encode("utf-8"))
        exact = CheckpointStore(
            tmp_path / "exact", max_state_bytes=measured, tenant="t"
        )
        assert exact.save(snapshot) is not None  # exactly at quota fits
        exact.close()
        tight = CheckpointStore(
            tmp_path / "tight", max_state_bytes=measured - 1, tenant="t"
        )
        with pytest.raises(StateQuotaError) as excinfo:
            tight.save(snapshot)
        assert excinfo.value.state_bytes == measured
        tight.close()

    def test_unknown_tenant_is_rejected_when_tenants_are_declared(self, tmp_path):
        events = write_stream(tmp_path / "events.jsonl", stream(count=60, disorder=LATENESS))
        config = ServerConfig(tenants=(TenantConfig("alpha"),))
        with JobServer(config) as server:
            with pytest.raises(ConfigError, match="unknown tenant"):
                server.submit(job_dict(events), tenant="beta")

    @pytest.mark.parametrize(
        "path, overrides",
        [
            ("checkpoint.recover", {"checkpoint": {"dir": "ckpt", "recover": True}}),
            (
                "observability.prometheus_port",
                {"observability": {"prometheus_port": 0}},
            ),
        ],
    )
    def test_settings_the_server_would_ignore_are_rejected(
        self, tmp_path, path, overrides
    ):
        """In process and over the wire (kind ``config``), naming the path.

        The two that are server policy; every other setting is honoured
        (``TestHostedEqualsStandalone``).
        """
        assert UNSUPPORTED_SETTINGS == (
            "checkpoint.recover",
            "observability.prometheus_port",
        )
        events = write_stream(tmp_path / "events.jsonl", stream(count=60, disorder=LATENESS))
        config = job_dict(events, **overrides)
        with JobServer() as server:
            with pytest.raises(ConfigError, match=path):
                server.submit(config)
            with JobServerClient(*server.address) as client:
                # the client raises ConfigError for wire kind "config" only
                with pytest.raises(ConfigError, match=path):
                    client.submit(config)
            assert server.list_jobs() == []

    def test_error_kinds_map_the_quota_hierarchy(self):
        assert error_kind(RateQuotaError("r")) == "rate-quota"
        assert error_kind(StateQuotaError("s")) == "state-quota"
        assert error_kind(ConcurrencyQuotaError("c")) == "concurrency-quota"
        assert error_kind(QuotaError("q")) == "quota"
        assert error_kind(ConfigError("c")) == "config"
        assert error_kind(KeyError("k")) == "unknown-job"
        assert error_kind(CograError("e")) == "job"
        assert error_kind(RuntimeError("x")) == "internal"


# ---------------------------------------------------------------------------
# one lifecycle: a hosted job is a Job
# ---------------------------------------------------------------------------


def ingested_in_final_sample(path):
    """``cogra_events_ingested_total`` of the last exported sample."""
    with open(path, encoding="utf-8") as handle:
        final = json.loads(handle.readlines()[-1])
    family = final["metrics"]["families"]["cogra_events_ingested_total"]
    return sum(child["value"] for child in family["children"])


def run_hosted(config):
    """Submit ``config``, wait for it; its final status and records."""
    with JobServer() as server:
        job_id = server.submit(config)
        return server.wait(job_id), server.results(job_id)


class TestHostedEqualsStandalone:
    """Settings the server's own pipeline builder used to reject.

    ``repro.job(config)`` and ``JobServer.submit(config)`` run the same
    ``Job``, so records and every file the job writes agree.
    """

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "setting", ["side_channel_path", "reprocess", "metrics_export_path"]
    )
    def test_files_and_records_agree(self, tmp_path, setting, workers):
        # disorder of up to 5 s against a lateness of 1: some events are late
        events = write_stream(tmp_path / "events.jsonl", stream(count=200, disorder=LATENESS))

        def config_in(directory):
            directory.mkdir()
            late = {"policy": "drop"}
            observability = {}
            if setting == "side_channel_path":
                late = {
                    "policy": "side-channel",
                    "side_channel_path": str(directory / "late.jsonl"),
                }
            elif setting == "reprocess":
                late = {"policy": "side-channel", "reprocess": True}
            else:
                observability = {
                    "metrics_export_path": str(directory / "metrics.jsonl")
                }
            return job_dict(
                events,
                watermark={"lateness": 1.0},
                late=late,
                observability=observability,
                sink={"spec": str(directory / "out.jsonl")},
                shards={"workers": workers},
            )

        solo_dir, hosted_dir = tmp_path / "solo", tmp_path / "hosted"
        solo = job(JobConfig.from_dict(config_in(solo_dir))).results()
        status, hosted = run_hosted(config_in(hosted_dir))
        assert status["state"] == DONE
        assert record_bytes(hosted) == record_bytes(solo)
        assert solo, "the stream must close windows"
        for name in ("out.jsonl", "late.jsonl"):
            assert (solo_dir / name).exists() == (hosted_dir / name).exists()
            if (solo_dir / name).exists():
                content = (solo_dir / name).read_bytes()
                assert content, f"{name} must not be vacuous"
                assert (hosted_dir / name).read_bytes() == content
        if setting == "reprocess":
            assert any(record.is_correction for record in hosted)
        if setting == "metrics_export_path":
            assert (
                ingested_in_final_sample(hosted_dir / "metrics.jsonl")
                == ingested_in_final_sample(solo_dir / "metrics.jsonl")
                == status["events_ingested"]
            )

    def test_a_raising_late_policy_keeps_the_slices_earlier_records(self, tmp_path):
        # the slice that raises had closed windows before its late event
        # came: those records are delivered, hosted as standalone
        ordered = [
            Event("A" if i % 3 else "B", float(i), {"g": "g0", "v": i % 7}, sequence=i)
            for i in range(200)
        ]
        ordered.insert(150, Event("A", 1.0, {"g": "g0", "v": 0}, sequence=200))
        events = write_stream(tmp_path / "events.jsonl", ordered)

        def config_to(sink_path):
            return job_dict(
                events,
                queries=[{"text": TYPE_QUERY.replace(
                    "WITHIN 20 seconds SLIDE 10 seconds", "WITHIN 10 seconds"
                )}],
                watermark={"lateness": 2.0},
                late={"policy": "raise"},
                sink={"spec": str(sink_path)},
            )

        with pytest.raises(LateEventError):
            job(JobConfig.from_dict(config_to(tmp_path / "solo.jsonl"))).results()
        status, hosted = run_hosted(config_to(tmp_path / "hosted.jsonl"))
        assert status["state"] == FAILED
        assert status["kind"] == "job"
        delivered = (tmp_path / "solo.jsonl").read_bytes()
        assert delivered
        assert (tmp_path / "hosted.jsonl").read_bytes() == delivered
        assert [record.as_dict() for record in hosted] == [
            json.loads(line) for line in delivered.decode().splitlines()
        ]

    def test_stop_closes_everything_and_reports_the_first_failure(
        self, tmp_path, monkeypatch
    ):
        events = write_stream(tmp_path / "events.jsonl", stream(count=60, disorder=LATENESS))
        config = job_dict(
            events,
            sink={"spec": str(tmp_path / "out.jsonl")},
            checkpoint={"dir": str(tmp_path / "ckpt"), "interval": 16},
        )
        closed = []
        close_file, close_store = JsonlFileSink.close, CheckpointStore.close

        def failing_close(sink):
            close_file(sink)
            raise OSError("disk full at flush")

        def recorded_close(store):
            closed.append(store)
            close_store(store)

        monkeypatch.setattr(JsonlFileSink, "close", failing_close)
        monkeypatch.setattr(CheckpointStore, "close", recorded_close)

        class ClosableSource(IterableSource):
            closed = False

            def close(self):
                self.closed = True

        # standalone: the failure surfaces, after the store was closed too
        source = ClosableSource(stream(count=60, disorder=LATENESS))
        running = job(JobConfig.from_dict(config), events=source)
        with pytest.raises(OSError, match="disk full"):
            running.results()
        assert source.closed
        assert len(closed) == 1

        # hosted: a job whose sink could not flush is not ``done``
        status, records = run_hosted(config)
        assert status["state"] == FAILED
        assert "disk full" in status["error"]
        assert records
        assert len(closed) == 2

    def test_a_start_up_failure_names_its_setting(self, tmp_path):
        events = write_stream(tmp_path / "events.jsonl", stream(count=60, disorder=LATENESS))
        config = job_dict(events, sink={"spec": str(tmp_path)})  # a directory
        with JobServer() as server:
            with pytest.raises(JobStartError, match="sink.spec") as excinfo:
                server.submit(config)
            assert excinfo.value.path == "sink.spec"
            (row,) = server.list_jobs()
            assert row["state"] == FAILED
            assert row["kind"] == "job"

    def test_close_finalises_the_jobs_it_stops(self, tmp_path):
        events = write_stream(tmp_path / "events.jsonl", stream(count=2000, disorder=LATENESS))
        config = ServerConfig(
            tenants=(TenantConfig("slow", max_events_per_second=10.0, burst=10.0),)
        )
        server = JobServer(config).start()
        job_id = server.submit(job_dict(events), tenant="slow")
        assert server.status(job_id)["state"] == RUNNING
        server.close()
        assert server.status(job_id)["state"] == CANCELLED


# ---------------------------------------------------------------------------
# the socket protocol
# ---------------------------------------------------------------------------


class TestSocketProtocol:
    def test_full_client_session(self, tmp_path):
        events = write_stream(tmp_path / "events.jsonl", stream(count=60, disorder=LATENESS))
        config = job_dict(events)
        with JobServer() as server:
            host, port = server.address
            with JobServerClient(host, port) as client:
                job_id = client.submit(config, tenant="alpha")
                status = client.wait(job_id)
                assert status["state"] == DONE
                payload = client.results(job_id)
                assert payload["state"] == DONE
                expected = json.loads(solo_record_bytes(config))
                assert payload["records"] == expected
                rows = client.list_jobs(tenant="alpha")
                assert [row["job_id"] for row in rows] == [job_id]
                snapshot = client.metrics(job_id=job_id)
                family = snapshot["families"]["cogra_events_ingested_total"]
                assert family["children"][0]["labels"][:2] == [job_id, "alpha"]

    def test_cancel_over_the_wire(self, tmp_path):
        events = write_stream(tmp_path / "events.jsonl", stream(count=2000, disorder=LATENESS))
        config = ServerConfig(
            tenants=(
                TenantConfig("slow", max_events_per_second=10.0, burst=10.0),
            )
        )
        with JobServer(config) as server:
            host, port = server.address
            with JobServerClient(host, port) as client:
                job_id = client.submit(job_dict(events), tenant="slow")
                client.cancel(job_id)
                assert client.wait(job_id)["state"] == CANCELLED

    def test_typed_errors_cross_the_wire(self, tmp_path):
        events = write_stream(tmp_path / "events.jsonl", stream(count=2000, disorder=LATENESS))
        config = ServerConfig(
            tenants=(
                TenantConfig(
                    "bounded",
                    max_events_per_second=10.0,
                    burst=10.0,
                    max_concurrent_jobs=1,
                ),
            )
        )
        with JobServer(config) as server:
            host, port = server.address
            with JobServerClient(host, port) as client:
                first = client.submit(job_dict(events), tenant="bounded")
                with pytest.raises(ConcurrencyQuotaError, match="bounded"):
                    client.submit(job_dict(events), tenant="bounded")
                with pytest.raises(ConfigError, match="unknown tenant"):
                    client.submit(job_dict(events), tenant="nobody")
                with pytest.raises(KeyError, match="job-9999"):
                    client.status("job-9999")
                with pytest.raises(ConfigError, match="unknown key"):
                    client.submit({"bogus": True})
                client.cancel(first)

    def test_malformed_lines_get_protocol_errors(self):
        with JobServer() as server:
            host, port = server.address
            with socket.create_connection((host, port), timeout=5.0) as raw:
                reader = raw.makefile("r", encoding="utf-8")
                writer = raw.makefile("w", encoding="utf-8")
                for line in ('{"not": "json', '["no", "cmd"]', '{"cmd": "nope"}'):
                    writer.write(line + "\n")
                    writer.flush()
                    response = json.loads(reader.readline())
                    assert response["ok"] is False
                    assert response["kind"] == "protocol"

    def test_serve_forever_blocks_until_shutdown(self):
        from repro.streaming.server import serve_forever

        errors = []

        def run():
            try:
                serve_forever(ServerConfig(port=17702))
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            try:
                client = JobServerClient("127.0.0.1", 17702, timeout=2.0)
                break
            except CograError:
                time.sleep(0.05)
        else:
            pytest.fail("serve_forever never bound its port")
        with client:
            client.shutdown()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert not errors

    def test_job_config_replacing_source_points_at_the_file(self, tmp_path):
        from repro.streaming.server.server import job_config_replacing_source

        original = JobConfig.from_dict(job_dict("original.jsonl"))
        replaced = job_config_replacing_source(original, tmp_path / "new.jsonl")
        assert replaced.source.spec == str(tmp_path / "new.jsonl")
        assert original.source.spec == "original.jsonl"
        assert replaced.queries == original.queries

    def test_shutdown_stops_the_server(self):
        with JobServer() as server:
            host, port = server.address
            with JobServerClient(host, port) as client:
                client.shutdown()
            assert server.wait_for_shutdown(timeout=5.0)


# ---------------------------------------------------------------------------
# chaos: adversarial tenants cannot perturb well-behaved ones
# ---------------------------------------------------------------------------


def percentile(values, q):
    ranked = sorted(values)
    return ranked[min(len(ranked) - 1, int(q * len(ranked)))]


class TestChaosIsolation:
    def test_adversaries_cannot_perturb_well_behaved_tenants(self, tmp_path):
        """Three well-behaved tenants next to two adversaries.

        Adversary one has every hot key land in one group and a sink
        that never reports capacity (a wedged consumer); adversary two
        is a state bomb that trips its tenant's byte cap.  The
        well-behaved tenants must still produce byte-identical results
        to their solo runs, with p95 completion latency within 2x.
        """
        configs = []
        for index in range(3):
            events = write_stream(
                tmp_path / f"good-{index}.jsonl",
                stream(100 + index, 600, groups=GROUPS[: 2 + index], disorder=LATENESS),
            )
            configs.append(job_dict(events))
        hot = write_stream(
            tmp_path / "hot.jsonl", stream(7, 5000, groups=("hot",), disorder=LATENESS)
        )
        bomb = write_stream(
            tmp_path / "bomb.jsonl", stream(8, 400, groups=MANY_GROUPS, disorder=LATENESS)
        )

        # -- solo baselines ------------------------------------------------
        solo_bytes, solo_latencies = [], []
        for config in configs:
            with JobServer() as server:
                started = time.monotonic()
                job_id = server.submit(config)
                server.wait(job_id)
                solo_latencies.append(time.monotonic() - started)
                solo_bytes.append(record_bytes(server.results(job_id)))
            assert solo_bytes[-1] == solo_record_bytes(config)

        # -- the contested run ---------------------------------------------
        server_config = ServerConfig(
            tenants=(
                TenantConfig("good-0"),
                TenantConfig("good-1"),
                TenantConfig("good-2"),
                TenantConfig("wedged"),
                TenantConfig("bomber", max_state_bytes=256),
            )
        )
        with JobServer(server_config) as server:
            wedged_id = server.submit(job_dict(hot), tenant="wedged")
            # wedge the adversary's sink: it never reports capacity, so
            # the scheduler must skip (not block on) its turns
            server._jobs[wedged_id].pipeline.session._sink_ready = lambda: False
            bomb_id = server.submit(
                job_dict(bomb, checkpoint={"dir": "unused", "interval": 32}),
                tenant="bomber",
            )
            contested_bytes, contested_latencies = {}, []
            job_ids = []
            for index, config in enumerate(configs):
                job_ids.append(server.submit(config, tenant=f"good-{index}"))
            started = time.monotonic()
            for index, job_id in enumerate(job_ids):
                status = server.wait(job_id, timeout=60.0)
                assert status["state"] == DONE
                contested_latencies.append(time.monotonic() - started)
                contested_bytes[index] = record_bytes(server.results(job_id))

            # the state bomb failed on its own quota, nobody else's
            bomb_status = server.wait(bomb_id, timeout=60.0)
            assert bomb_status["state"] == FAILED
            assert bomb_status["kind"] == "state-quota"
            # the wedged job is still alive (throttled), and cancellable
            assert server.status(wedged_id)["state"] == RUNNING
            server.cancel(wedged_id)
            assert server.wait(wedged_id)["state"] == CANCELLED

        for index in range(3):
            assert contested_bytes[index] == solo_bytes[index], (
                f"tenant good-{index} results changed under contention"
            )
        solo_p95 = percentile(solo_latencies, 0.95)
        contested_p95 = percentile(contested_latencies, 0.95)
        # a small absolute floor keeps sub-millisecond timer noise from
        # turning the ratio into a coin flip on loaded CI machines
        assert contested_p95 <= max(2.0 * solo_p95, solo_p95 + 0.5), (
            f"p95 latency degraded from {solo_p95:.3f}s to {contested_p95:.3f}s"
        )
