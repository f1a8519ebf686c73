"""Tests for sharded-runtime worker restart and checkpoint-based recovery.

A :class:`ShardedRuntime` run whose worker is killed mid-stream recovers
via the checkpoint store -- respawn, restore the shard's slice of the
latest checkpoint, replay the parent-side buffer -- and emits the end-to-end
oracle's records; the configuration matrix (``test_differential_matrix.py``)
samples kill points against the other axes.
"""

import pytest

from differential import canonical, kill_worker, stream
from repro.baselines.oracle import expected_records
from repro.errors import WorkerCrashError
from repro.streaming import sharded
from repro.streaming.checkpoint import CheckpointStore
from repro.streaming.runtime import StreamingRuntime
from repro.streaming.sharded import ShardedRuntime

QUERY = """
RETURN g, COUNT(*), MAX(A.v)
PATTERN SEQ(A+, B)
SEMANTICS skip-till-any-match
GROUP-BY g
WITHIN 20 seconds SLIDE 10 seconds
"""
JOB = [("q", QUERY)]


def killing_feed(runtime, events, kill_at, shard=0):
    """Yield ``events``, SIGKILL-ing one worker at index ``kill_at``."""
    for index, event in enumerate(events):
        if index == kill_at:
            kill_worker(runtime, shard)
        yield event


class TestRecovery:
    def test_killed_worker_recovers_with_checkpoint_store(self, tmp_path):
        events = stream(count=400)
        expected = expected_records(JOB, events, 0.0)

        store = CheckpointStore(tmp_path / "ckpt")
        runtime = ShardedRuntime(
            workers=2, lateness=0.0, ship_interval=8, max_restarts=2
        )
        runtime.register(QUERY, name="q")
        records = runtime.run(
            killing_feed(runtime, events, kill_at=250, shard=1),
            checkpoint_store=store,
            checkpoint_interval=100,
        )
        assert runtime.restart_counts == [0, 1]
        assert len(runtime.recovery_log) == 1
        assert "restarted" in runtime.shard_report()
        assert canonical(records) == canonical(expected)
        # the store holds the same consistent cut the recovery restored from
        assert store.load_latest() is not None

    def test_recovery_before_any_checkpoint_replays_from_start(self):
        events = stream(count=200)
        expected = expected_records(JOB, events, 0.0)

        runtime = ShardedRuntime(
            workers=2, lateness=0.0, ship_interval=4, max_restarts=1
        )
        runtime.register(QUERY, name="q")
        records = runtime.run(killing_feed(runtime, events, kill_at=100, shard=0))
        assert runtime.restart_counts == [1, 0]
        assert canonical(records) == canonical(expected)

    def test_kill_during_checkpoint_collection_recovers(self):
        events = stream(count=200)
        runtime = ShardedRuntime(
            workers=2, lateness=0.0, ship_interval=4, max_restarts=1
        )
        runtime.register(QUERY, name="q")
        records = []
        for event in events[:120]:
            records.extend(runtime.process(event))
        kill_worker(runtime, 1)
        snapshot = runtime.checkpoint()  # detects the crash mid-quiesce
        assert runtime.restart_counts == [0, 1]
        records.extend(runtime.drain_pending())
        for event in events[120:]:
            records.extend(runtime.process(event))
        records.extend(runtime.flush())
        assert canonical(records) == canonical(expected_records(JOB, events, 0.0))
        # the composed checkpoint is usable despite the crash
        resumed = StreamingRuntime(lateness=0.0)
        resumed.register(QUERY, name="q")
        resumed.restore(snapshot)

    def test_repeated_crashes_exhaust_max_restarts(self):
        events = stream(count=300)
        runtime = ShardedRuntime(
            workers=2, lateness=0.0, ship_interval=2, max_restarts=1
        )
        runtime.register(QUERY, name="q")
        with pytest.raises(WorkerCrashError):
            for index, event in enumerate(events):
                if index in (100, 140):
                    kill_worker(runtime, 0)
                runtime.process(event)
            runtime.flush()
        assert runtime.restart_counts[0] == 1  # recovered once, then gave up
        with pytest.raises(RuntimeError, match="closed after a failure"):
            runtime.process(events[0])

    def test_max_restarts_zero_keeps_fail_fast(self):
        events = stream(count=200)
        runtime = ShardedRuntime(workers=2, lateness=0.0, ship_interval=2)
        runtime.register(QUERY, name="q")
        with pytest.raises(WorkerCrashError):
            for index, event in enumerate(events):
                if index == 80:
                    kill_worker(runtime, 0)
                runtime.process(event)
            runtime.flush()
        assert runtime.restart_counts == [0, 0]

    def test_negative_max_restarts_rejected(self):
        with pytest.raises(ValueError, match="max_restarts"):
            ShardedRuntime(workers=2, max_restarts=-1)

    def test_store_resume_after_parent_death(self, tmp_path):
        """Driver-level recovery: a NEW runtime resumes from the store.

        This is the CLI's ``--recover`` path: the whole job (parent
        included) dies, a fresh process loads the newest checkpoint and
        continues with the remaining events.
        """
        events = stream(count=300)
        expected = expected_records(JOB, events, 0.0)
        store = CheckpointStore(tmp_path / "ckpt")

        first = ShardedRuntime(workers=2, lateness=0.0, ship_interval=8)
        first.register(QUERY, name="q")
        records = []
        consumed = 0
        for index, event in enumerate(events):
            records.extend(first.process(event))
            if index % 100 == 99:
                store.save(first.checkpoint())
                records.extend(first.drain_pending())
                consumed = index + 1
            if index == 220:
                break  # simulated hard stop of the whole job
        first.close()
        snapshot = store.load_latest()
        assert snapshot["metrics"]["events_ingested"] == consumed == 200

        resumed = ShardedRuntime(workers=3, lateness=0.0, ship_interval=8)
        resumed.register(QUERY, name="q")
        resumed.restore(snapshot)
        replayed = []
        for event in events[consumed:]:
            replayed.extend(resumed.process(event))
        replayed.extend(resumed.flush())
        # at-least-once: windows emitted between the last checkpoint (event
        # 200) and the stop (event 220) are re-emitted by the resumed run,
        # so compare after window-identity dedup -- exactly what a real
        # downstream consumer does
        assert set(canonical(records + replayed)) == set(canonical(expected))


class TestRecoveredStateIsExact:
    """A recovered worker holds exactly what it would hold uncrashed.

    The recovery baseline is the per-shard slices the live workers held at
    the last consistent cut, so a respawned worker resumes *its own*
    ``events_seen`` -- not a share re-split from a composed snapshot --
    whatever cut the baseline last: a checkpoint, a rebalance or a
    ``restore()``.
    """

    @staticmethod
    def executors_after_250(scenario, kill):
        """Run the stream's first 250 events; return the checkpoint taken then.

        The baseline is cut at event 100 (a checkpoint, or a ``restore()``
        of a 2-worker checkpoint into 3 workers) and -- for ``rebalance``
        -- re-cut at event 150; shard ``kill`` dies at 200.
        """
        events = stream(count=400)
        runtime = ShardedRuntime(
            workers=3 if scenario == "restore" else 2,
            lateness=0.0,
            ship_interval=8,
            max_restarts=1,
        )
        runtime.register(QUERY, name="q")
        with runtime:
            if scenario == "restore":
                with ShardedRuntime(workers=2, lateness=0.0, ship_interval=8) as seed:
                    seed.register(QUERY, name="q")
                    seed.process_batch(events[:100])
                    runtime.restore(seed.checkpoint())
            else:
                runtime.process_batch(events[:100])
                first = runtime.checkpoint()
            runtime.process_batch(events[100:150])
            if scenario == "rebalance":
                # move a slot that holds state, so entries change owner
                key = tuple(first["executors"]["q"]["aggregators"][0][1])
                slot = runtime._router.slot_of(key)
                moves = [(slot, 1 - runtime._router.assignment[slot])]
                assert runtime.rebalance(moves) == moves
            runtime.process_batch(events[150:200])
            if kill is not None:
                kill_worker(runtime, kill)
            runtime.process_batch(events[200:250])
            executors = runtime.checkpoint()["executors"]
            assert sum(runtime.restart_counts) == (0 if kill is None else 1)
            return executors

    @pytest.mark.parametrize(
        "scenario, kill",
        [
            ("checkpoint", 0),
            ("checkpoint", 1),
            ("rebalance", 0),
            ("restore", 0),
        ],
    )
    def test_checkpoint_after_recovery_equals_the_uncrashed_one(self, scenario, kill):
        recovered = self.executors_after_250(scenario, kill)
        uncrashed = self.executors_after_250(scenario, None)
        assert recovered["q"]["events_seen"] == uncrashed["q"]["events_seen"]
        # entry for entry, scalar for scalar (last_time, granularity, ...)
        assert recovered == uncrashed


class TestCollectDuringRecovery:
    def test_collect_ack_delivered_during_another_shards_recovery_is_kept(
        self, monkeypatch
    ):
        """Shard 1 dies during a ``metrics`` collection over 3 workers and
        shard 2's answer is delivered while shard 1's ready handshake is
        awaited: the answer belongs to the collection's epoch whoever reads
        it, so the collection still covers all three shards (it used to be
        swallowed, and the collection waited out the ack timeout)."""
        # a lost answer fails in seconds, not in two minutes
        monkeypatch.setattr(sharded, "ACK_TIMEOUT_SECONDS", 5.0)
        events = stream(count=120, types="AB")  # every event reaches q
        runtime = ShardedRuntime(
            workers=3,
            lateness=0.0,
            ship_interval=4,
            max_restarts=1,
        )
        runtime.register(QUERY, name="q")
        with runtime:
            runtime.process_batch(events)
            runtime.checkpoint()  # quiesces: nothing is in flight from here
            collect_epoch = runtime._epoch
            read_ack = runtime._read_ack
            answers = {}
            calls = []

            def scripted(timeout):
                calls.append(timeout)
                if len(calls) == 1:
                    # all three workers answer; shard 1's answer is lost
                    # with its pipe, shard 0's is delivered first
                    while len(answers) < 3:
                        ack = read_ack(1.0)
                        assert ack[:2] == ("ok", collect_epoch)
                        answers[ack[2]] = ack
                    return answers[0]
                if len(calls) == 2:
                    kill_worker(runtime, 1)
                    return read_ack(timeout)  # shard 1's ended pipe reports it
                if len(calls) == 3:
                    # read by the wait for shard 1's ready handshake
                    return answers[2]
                return read_ack(timeout)

            monkeypatch.setattr(runtime, "_read_ack", scripted)
            payloads = runtime._collect("metrics")
            assert runtime.restart_counts == [0, 1, 0]
            assert sorted(payloads) == [0, 1, 2]
            counted = sum(
                child["value"]
                for payload in payloads.values()
                for child in payload["registry"]["families"][
                    "cogra_query_events_total"
                ]["children"]
            )
            shipped = sum(stats.events_sent for stats in runtime.shard_stats)
            assert counted == shipped > 0
