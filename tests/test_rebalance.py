"""Tests for adaptive shard rebalancing (router, policy, live migration).

A :class:`ShardedRuntime` whose hash slots are migrated between live
workers mid-stream -- by the policy or by force, with or without a worker
crash in flight -- emits exactly the end-to-end oracle's windows; the
configuration matrix (``test_differential_matrix.py``) samples forced moves
against kills and restores.  This file pins down the pieces: the versioned
:class:`ShardRouter` map (checkpointed and restored, never reset to the
seed topology), the :class:`RebalancePolicy` skew detector (fires exactly
at the configured threshold) and planner, and the per-incarnation
:class:`ShardStats` accounting.
"""

import pytest

from differential import canonical, kill_worker, stream
from repro.baselines.oracle import expected_records
from repro.errors import CheckpointError, ConfigError
from repro.events.event import Event
from repro.streaming.checkpoint import CheckpointStore
from repro.streaming.runtime import StreamingRuntime
from repro.streaming.sharded import (
    RebalancePolicy,
    ShardedRuntime,
    ShardRouter,
)

QUERY = """
RETURN g, COUNT(*), MAX(A.v)
PATTERN SEQ(A+, B)
SEMANTICS skip-till-any-match
GROUP-BY g
WITHIN 20 seconds SLIDE 10 seconds
"""
JOB = [("q", QUERY)]


def skewed_stream(count=1200, seed=7):
    """A stream whose hot groups (90 % of it) hash to worker 0 of the seed map."""
    probe = ShardRouter(2, 16)
    groups = [f"g{i:02d}" for i in range(48)]
    hot = [g for g in groups if probe.owner_of_key((g,)) == 0][:8]
    cold = [g for g in groups if probe.owner_of_key((g,)) != 0][:8]
    return stream(seed, count, types="AB", groups=hot * 9 + cold, span=120.0)


# ---------------------------------------------------------------------------
# the router map
# ---------------------------------------------------------------------------


class TestShardRouter:
    def test_seed_assignment_round_robins_a_multiple_of_workers(self):
        router = ShardRouter(3, slots_per_worker=4)
        assert router.slots == 12
        assert router.assignment == [0, 1, 2] * 4
        assert router.version == 0

    def test_seed_routing_matches_the_static_hash(self):
        # (hash % slots) % workers == hash % workers when workers | slots,
        # so seeding is behaviour-identical to the historical static router
        from repro.core.partitioner import shard_index

        router = ShardRouter(4, slots_per_worker=16)
        for value in range(200):
            key = (f"k{value}",)
            assert router.owner_of_key(key) == shard_index(key, 4)

    def test_the_slot_memo_routes_like_the_hash_and_stays_bounded(self, monkeypatch):
        from repro.core.partitioner import shard_index
        from repro.streaming import routing

        monkeypatch.setattr(routing, "SLOT_MEMO_LIMIT", 4)
        router = ShardRouter(2, slots_per_worker=4)
        # NaN never equals an earlier NaN key: every one is a fresh entry
        keys = [(f"k{value}", value) for value in range(10)]
        keys += [(float("nan"),) for _ in range(3)] + [(1,), (1.0,), (True,)]
        for key in keys * 2:
            assert router.slot_of(key) == shard_index(key, router.slots)
            assert len(router.slot_memo) <= 4
        # a slot depends on the key alone, so moving slots keeps the memo
        router.move(router.slot_of(keys[0]), 1)
        assert router.slot_of(keys[0]) == shard_index(keys[0], router.slots)
        assert router.slot_memo

    def test_move_bumps_the_version(self):
        router = ShardRouter(2, slots_per_worker=2)
        router.move(0, 1)
        assert router.assignment[0] == 1
        assert router.version == 1
        assert router.worker_slots(0) == [2]
        assert router.worker_slots(1) == [0, 1, 3]

    def test_snapshot_round_trip(self):
        router = ShardRouter(2, slots_per_worker=4)
        router.move(0, 1)
        router.move(5, 0)
        restored = ShardRouter.from_snapshot(router.snapshot(), 2)
        assert restored.assignment == router.assignment
        assert restored.version == router.version
        assert restored.slots == router.slots

    def test_snapshot_for_a_smaller_topology_is_rejected(self):
        router = ShardRouter(4, slots_per_worker=2)
        with pytest.raises(CheckpointError, match="different topology"):
            ShardRouter.from_snapshot(router.snapshot(), 2)

    def test_malformed_snapshot_is_rejected(self):
        with pytest.raises(CheckpointError, match="malformed router"):
            ShardRouter.from_snapshot({"version": 1}, 2)
        with pytest.raises(CheckpointError, match="topology"):
            ShardRouter.from_snapshot({"assignment": []}, 2)

    def test_invalid_construction_is_rejected(self):
        with pytest.raises(ValueError, match="shard_count"):
            ShardRouter(0)
        with pytest.raises(ValueError, match="slots_per_worker"):
            ShardRouter(2, slots_per_worker=0)

    def test_reprs_are_informative(self):
        assert repr(ShardRouter(2, 4)) == "ShardRouter(v0, 8 slots over 2 workers)"
        assert "skew_threshold=1.5" in repr(RebalancePolicy())


# ---------------------------------------------------------------------------
# skew detection and planning
# ---------------------------------------------------------------------------


class TestRebalancePolicy:
    def test_skew_detection_fires_exactly_at_the_threshold(self):
        policy = RebalancePolicy(skew_threshold=2.0)
        # mean of [40, 10, 10] is 20: the busiest worker sits exactly at
        # 2.0x the mean, so the detector must fire ...
        assert policy.skewed([40, 10, 10])
        # ... and one event below the threshold it must not
        assert not policy.skewed([39, 10, 11])
        assert not RebalancePolicy(skew_threshold=2.05).skewed([40, 10, 10])

    def test_balanced_and_empty_loads_never_fire(self):
        policy = RebalancePolicy(skew_threshold=1.5)
        assert not policy.skewed([10, 10, 10])
        assert not policy.skewed([0, 0])
        assert not policy.skewed([7])  # a single shard cannot be skewed

    def test_plan_moves_hot_slots_to_the_coldest_worker(self):
        policy = RebalancePolicy(skew_threshold=1.5, max_moves=2)
        slot_loads = [30, 0, 20, 0]  # slots 0, 2 on worker 0 (round-robin)
        assignment = [0, 1, 0, 1]
        moves = policy.plan(slot_loads, assignment, 2)
        # the hottest slot (30) fits the 50-0 gap; loads become 20 vs 30
        # and the skew is gone, so one move suffices
        assert moves == [(0, 1)]

    def test_plan_respects_max_moves(self):
        policy = RebalancePolicy(skew_threshold=1.1, max_moves=1)
        moves = policy.plan([10, 0, 9, 0, 8, 0], [0, 1, 0, 1, 0, 1], 2)
        assert len(moves) == 1

    def test_plan_is_empty_without_skew_or_with_one_indivisible_slot(self):
        policy = RebalancePolicy(skew_threshold=2.0)
        assert policy.plan([5, 5, 5, 5], [0, 1, 0, 1], 2) == []
        # all load in one slot: moving it would just move the skew
        assert policy.plan([100, 0, 0, 0], [0, 1, 0, 1], 2) == []

    def test_plan_never_inverts_the_skew(self):
        policy = RebalancePolicy(skew_threshold=1.2, max_moves=8)
        slot_loads = [9, 0, 7, 0, 5, 0, 3, 0]
        assignment = [0, 1, 0, 1, 0, 1, 0, 1]
        loads = policy.worker_loads(slot_loads, assignment, 2)
        moves = policy.plan(slot_loads, assignment, 2)
        for slot, target in moves:
            source = assignment[slot]
            loads[source] -= slot_loads[slot]
            loads[target] += slot_loads[slot]
            assignment[slot] = target
        assert max(loads) - min(loads) <= max(
            s for s in slot_loads if s
        ), f"moves {moves} left loads {loads}"

    def test_policy_validation_reuses_the_config_rules(self):
        with pytest.raises(ConfigError, match="skew_threshold"):
            RebalancePolicy(skew_threshold=1.0)
        with pytest.raises(ConfigError, match="min_interval"):
            RebalancePolicy(min_interval=0)
        with pytest.raises(ConfigError, match="max_moves"):
            RebalancePolicy(max_moves=0)

    def test_policy_config_round_trip(self):
        policy = RebalancePolicy(
            skew_threshold=1.5, min_interval=100, max_moves=2, slots_per_worker=8
        )
        assert RebalancePolicy.from_config(policy.as_config()).as_config() == (
            policy.as_config()
        )


# ---------------------------------------------------------------------------
# ShardStats accounting
# ---------------------------------------------------------------------------


class TestShardStatsAccounting:
    def test_events_batches_and_acks_add_up(self):
        events = stream(count=200)
        runtime = ShardedRuntime(workers=2, lateness=0.0, ship_interval=8)
        runtime.register(QUERY, name="q")
        records = runtime.run(events)
        assert records
        assert sum(s.events_sent for s in runtime.shard_stats) == len(events)
        for stats in runtime.shard_stats:
            assert stats.incarnation == 0
            assert stats.acks_received == stats.batches_sent
            assert stats.incarnation_events_sent == stats.events_sent
            assert stats.incarnation_batches_sent == stats.batches_sent
            assert stats.incarnation_records_merged == stats.records_merged
            assert stats.incarnation_acks_received == stats.acks_received
            view = stats.as_dict()
            assert view["acks_received"] == stats.acks_received
            assert view["incarnation"] == 0
            assert f"acks={stats.acks_received}" in repr(stats)

    def test_restart_resets_the_incarnation_counters_not_the_totals(self):
        events = stream(count=300)
        runtime = ShardedRuntime(
            workers=2, lateness=0.0, ship_interval=4, max_restarts=1
        )
        runtime.register(QUERY, name="q")
        for index, event in enumerate(events):
            if index == 150:
                before = runtime.shard_stats[0].events_sent
                assert before > 0
                kill_worker(runtime, 0)
            runtime.process(event)
        runtime.flush()
        stats = runtime.shard_stats[0]
        # the incarnation mirrors the restart count, and the live-process
        # counters restarted from zero while the lifetime totals kept going
        assert runtime.restart_counts == [1, 0]
        assert stats.incarnation == 1
        assert stats.events_sent > before
        # ships between the kill and its (lazy) detection still belong to
        # the dead incarnation, so the live view is a strict sub-count that
        # restarted from zero at the respawn
        assert 0 < stats.incarnation_events_sent <= stats.events_sent - before
        assert stats.incarnation_acks_received <= stats.acks_received
        assert "incarnation=1" in repr(stats)
        untouched = runtime.shard_stats[1]
        assert untouched.incarnation == 0
        assert untouched.incarnation_events_sent == untouched.events_sent


# ---------------------------------------------------------------------------
# live migration
# ---------------------------------------------------------------------------


class TestForcedRebalance:
    def test_forced_moves_keep_single_process_parity(self):
        events = stream(count=400)
        expected = expected_records(JOB, events, 0.0)
        runtime = ShardedRuntime(workers=2, lateness=0.0, ship_interval=8)
        runtime.register(QUERY, name="q")
        records = []
        for index, event in enumerate(events):
            records.extend(runtime.process(event))
            if index == 120:
                moved = runtime.rebalance([(slot, 1) for slot in range(8)])
                assert moved  # the even slots belonged to worker 0
            if index == 260:
                runtime.rebalance([(slot, 0) for slot in range(16, 24)])
        records.extend(runtime.flush())
        assert canonical(records) == canonical(expected)
        assert runtime.router_version > 0
        assert runtime.metrics.rebalance_cycles == 2
        assert runtime.metrics.rebalance_slots_moved > 0
        assert runtime.rebalance_log
        assert "router" in runtime.shard_report()

    def test_noop_and_invalid_moves(self):
        runtime = ShardedRuntime(workers=2, lateness=0.0)
        runtime.register(QUERY, name="q")
        # slot 1 already belongs to worker 1: dropped as a no-op
        assert runtime.rebalance([(1, 1)]) == []
        assert runtime.router_version == 0
        with pytest.raises(ValueError, match="slot"):
            runtime.rebalance([(10_000, 0)])
        with pytest.raises(ValueError, match="worker"):
            runtime.rebalance([(0, 7)])
        runtime.close()

    def test_single_shard_runtime_never_moves(self):
        runtime = ShardedRuntime(workers=1, lateness=0.0)
        runtime.register(QUERY, name="q")
        runtime.process(Event("A", 1.0, {"g": "x", "v": 1}))
        assert runtime.rebalance([(0, 0)]) == []
        runtime.flush()

    def test_policy_planned_rebalance_call(self):
        events = skewed_stream(count=400)
        runtime = ShardedRuntime(workers=2, lateness=0.0, ship_interval=8)
        runtime.register(QUERY, name="q")
        records = []
        for event in events[:300]:
            records.extend(runtime.process(event))
        moved = runtime.rebalance()  # planned from the observed slot loads
        assert moved, "a 90/10 skew must produce at least one planned move"
        for event in events[300:]:
            records.extend(runtime.process(event))
        records.extend(runtime.flush())
        assert canonical(records) == canonical(expected_records(JOB, events, 0.0))


class TestPolicyDrivenRebalance:
    def test_skewed_stream_triggers_moves_and_keeps_parity(self):
        events = skewed_stream()
        expected = expected_records(JOB, events, 0.0)
        runtime = ShardedRuntime(
            workers=2,
            lateness=0.0,
            ship_interval=8,
            rebalance={
                "enabled": True,
                "min_interval": 200,
                "skew_threshold": 1.3,
                "max_moves": 4,
            },
        )
        runtime.register(QUERY, name="q")
        records = runtime.run(events)
        assert canonical(records) == canonical(expected)
        assert runtime.router_version > 0
        assert runtime.metrics.rebalance_cycles > 0
        assert runtime.metrics.rebalance_keys_moved > 0
        assert runtime.metrics.rebalance_pause_seconds > 0.0
        assert "rebalance" in runtime.shard_report()
        # the moves evened the routed load: the busiest worker's share of
        # the stream drops by >= 10 points against the seed map's routing
        seed = ShardRouter(2)
        seed_loads = [0, 0]
        for event in events:
            seed_loads[seed.owner_of_key((event.get("g"),))] += 1
        sent = [stats.events_sent for stats in runtime.shard_stats]
        assert sum(sent) == sum(seed_loads) == len(events)
        seed_share = max(seed_loads) / len(events)
        assert max(sent) / len(events) <= seed_share - 0.10, (sent, seed_loads)

    def test_balanced_stream_never_triggers(self):
        events = stream(count=600)
        runtime = ShardedRuntime(
            workers=2,
            lateness=0.0,
            ship_interval=8,
            rebalance={"enabled": True, "min_interval": 100, "skew_threshold": 3.0},
        )
        runtime.register(QUERY, name="q")
        records = runtime.run(events)
        assert canonical(records) == canonical(expected_records(JOB, events, 0.0))
        assert runtime.router_version == 0
        assert runtime.metrics.rebalance_cycles == 0


# ---------------------------------------------------------------------------
# the router map survives checkpoints, recovery and --recover
# ---------------------------------------------------------------------------


class TestRouterCheckpointing:
    def test_restore_adopts_the_post_migration_map(self):
        events = stream(count=300)
        runtime = ShardedRuntime(workers=2, lateness=0.0, ship_interval=8)
        runtime.register(QUERY, name="q")
        records = []
        for event in events[:150]:
            records.extend(runtime.process(event))
        moved = runtime.rebalance([(slot, 1) for slot in range(6)])
        assert moved
        migrated = list(runtime._router.assignment)
        snapshot = runtime.checkpoint()
        records.extend(runtime.drain_pending())
        runtime.close()

        resumed = ShardedRuntime(workers=2, lateness=0.0, ship_interval=8)
        resumed.register(QUERY, name="q")
        resumed.restore(snapshot)
        # the versioned map came back, not the seed topology
        assert resumed._router.assignment == migrated
        assert resumed.router_version == runtime.router_version
        for event in events[150:]:
            records.extend(resumed.process(event))
        records.extend(resumed.flush())
        assert canonical(records) == canonical(expected_records(JOB, events, 0.0))

    def test_restore_under_a_different_worker_count_reseeds(self):
        events = stream(count=200)
        runtime = ShardedRuntime(workers=2, lateness=0.0, ship_interval=8)
        runtime.register(QUERY, name="q")
        records = []
        for event in events[:100]:
            records.extend(runtime.process(event))
        runtime.rebalance([(slot, 1) for slot in range(4)])
        snapshot = runtime.checkpoint()
        records.extend(runtime.drain_pending())
        runtime.close()

        resumed = ShardedRuntime(workers=3, lateness=0.0, ship_interval=8)
        resumed.register(QUERY, name="q")
        resumed.restore(snapshot)
        assert resumed.router_version == 0  # fresh seed map for 3 workers
        for event in events[100:]:
            records.extend(resumed.process(event))
        records.extend(resumed.flush())
        assert canonical(records) == canonical(expected_records(JOB, events, 0.0))

    def test_single_process_runtime_ignores_the_router_record(self):
        events = stream(count=200)
        runtime = ShardedRuntime(workers=2, lateness=0.0, ship_interval=8)
        runtime.register(QUERY, name="q")
        records = []
        for event in events[:100]:
            records.extend(runtime.process(event))
        runtime.rebalance([(slot, 1) for slot in range(4)])
        snapshot = runtime.checkpoint()
        records.extend(runtime.drain_pending())
        runtime.close()

        resumed = StreamingRuntime(lateness=0.0)
        resumed.register(QUERY, name="q")
        resumed.restore(snapshot)
        for event in events[100:]:
            records.extend(resumed.process(event))
        records.extend(resumed.flush())
        assert canonical(records) == canonical(expected_records(JOB, events, 0.0))


class TestChaos:
    def test_kill_with_in_flight_migration_restores_the_versioned_map(self):
        """A SIGKILL'd worker plus a live migration: recovery must rebuild
        the dead shard from the post-migration router map, not the seed
        topology -- the moved slots' state now lives on the other worker."""
        events = stream(count=400)
        expected = expected_records(JOB, events, 0.0)
        runtime = ShardedRuntime(
            workers=2, lateness=0.0, ship_interval=8, max_restarts=2
        )
        runtime.register(QUERY, name="q")
        records = []
        for index, event in enumerate(events):
            records.extend(runtime.process(event))
            if index == 150:
                # migrate half of worker 0's slots, then immediately lose
                # the worker that received their state
                moved = runtime.rebalance(
                    [(slot, 1) for slot in range(0, 16, 2)]
                )
                assert moved
                version = runtime.router_version
                kill_worker(runtime, 1)
        records.extend(runtime.flush())
        assert canonical(records) == canonical(expected)
        assert runtime.restart_counts == [0, 1]
        assert runtime.shard_stats[1].incarnation == 1
        # recovery never reset the migrated map
        assert runtime.router_version == version > 0

    def test_kill_during_policy_run_with_checkpoint_store(self, tmp_path):
        events = skewed_stream(count=900)
        expected = expected_records(JOB, events, 0.0)
        store = CheckpointStore(tmp_path / "ckpt")
        runtime = ShardedRuntime(
            workers=2,
            lateness=0.0,
            ship_interval=8,
            max_restarts=2,
            rebalance={
                "enabled": True,
                "min_interval": 150,
                "skew_threshold": 1.3,
            },
        )
        runtime.register(QUERY, name="q")

        def feed():
            for index, event in enumerate(events):
                if index == 500:
                    assert runtime.router_version > 0, (
                        "the skewed prefix must have triggered a migration "
                        "before the kill for this chaos scenario to bite"
                    )
                    kill_worker(runtime, 0)
                yield event

        records = runtime.run(feed(), checkpoint_store=store, checkpoint_interval=200)
        assert canonical(records) == canonical(expected)
        assert runtime.restart_counts[0] == 1
        assert runtime.router_version > 0
        # the store's newest cut carries the migrated router map
        latest = store.load_latest()
        assert latest["sharded"]["router"]["version"] > 0

    def test_store_recovery_resumes_the_migrated_topology(self, tmp_path):
        """The CLI ``--recover`` path: parent dies post-migration, a fresh
        runtime restores from the store and adopts the migrated map."""
        events = stream(count=300)
        store = CheckpointStore(tmp_path / "ckpt")
        first = ShardedRuntime(workers=2, lateness=0.0, ship_interval=8)
        first.register(QUERY, name="q")
        records = []
        for event in events[:150]:
            records.extend(first.process(event))
        first.rebalance([(slot, 1) for slot in range(6)])
        migrated = list(first._router.assignment)
        store.save(first.checkpoint())
        records.extend(first.drain_pending())
        first.close()  # simulated hard stop of the whole job

        resumed = ShardedRuntime(workers=2, lateness=0.0, ship_interval=8)
        resumed.register(QUERY, name="q")
        resumed.restore(store.load_latest())
        assert resumed._router.assignment == migrated
        for event in events[150:]:
            records.extend(resumed.process(event))
        records.extend(resumed.flush())
        assert canonical(records) == canonical(expected_records(JOB, events, 0.0))
