"""Tests for online adaptive granularity re-planning (observe/decide/act).

A runtime whose queries are live-migrated between aggregation
granularities mid-stream -- by the policy on a drifting stream or by force,
single-process or sharded, with or without a worker SIGKILL in flight --
emits exactly the end-to-end oracle's records: migration changes cost,
never answers.  The configuration matrix (``test_differential_matrix.py``)
samples forced replans against the other axes; this file pins down the
pieces: the :class:`ReplanPolicy` spec and its config round-trip,
the :class:`ReplanController` EWMAs and plan-version accounting, the cost
model's observed-statistics mode (table-driven, including the exact
hysteresis boundary), the eager ``forced_granularity`` validation, and
checkpoint/restore of a migrated plan.
"""

import random

import pytest

from differential import canonical, kill_worker, stream
from repro.analyzer.cost import (
    ObservedStatistics,
    compare_observed_costs,
    observed_updates_per_event,
    recommend_granularity,
)
from repro.analyzer.granularity import Granularity, allowed_granularities
from repro.analyzer.plan import CograPlan, plan_query
from repro.baselines.oracle import expected_records
from repro.errors import CheckpointError, ConfigError, PlanningError, WorkerCrashError
from repro.events.event import Event
from repro.events.stream import sort_events
from repro.query.parser import parse_query
from repro.streaming.checkpoint import CheckpointStore
from repro.streaming.config import ReplanConfig
from repro.streaming.replan import (
    ReplanController,
    ReplanPolicy,
    engine_allowed_granularities,
    merge_raw_observations,
    migrate_engine,
    resolve_replan_policy,
)
from repro.streaming.runtime import StreamingRuntime
from repro.streaming.sharded import ShardedRuntime

#: skip-till-any without adjacent predicates: all of type/mixed/event are
#: correct, the analyzer statically picks type (coarsest cheapest)
QUERY = """
RETURN g, COUNT(*), MAX(A.v)
PATTERN SEQ(A+, B)
SEMANTICS skip-till-any-match
GROUP-BY g
WITHIN 20 seconds SLIDE 10 seconds
"""
JOB = [("q", QUERY)]

#: skip-till-next: only pattern granularity is correct -- nothing to migrate
NEXT_QUERY = """
RETURN g, COUNT(*)
PATTERN SEQ(A+, B)
SEMANTICS skip-till-next-match
GROUP-BY g
WITHIN 20 seconds SLIDE 10 seconds
"""

#: adjacent predicate: type granularity is ruled out, mixed splits A/B
ADJACENT_QUERY = """
RETURN g, COUNT(*), MAX(A.v)
PATTERN SEQ(A+, B)
SEMANTICS skip-till-any-match
WHERE A.v < NEXT(A).v
GROUP-BY g
WITHIN 20 seconds SLIDE 10 seconds
"""

NEGATED_QUERY = """
RETURN g, COUNT(*)
PATTERN SEQ(A+, NOT C, B)
SEMANTICS skip-till-any-match
GROUP-BY g
WITHIN 20 seconds SLIDE 10 seconds
"""

#: few groups: dense sub-streams, where the static type plan stays best
DENSE_GROUPS = ("g0", "g1", "g2", "g3")


def make_drift_stream(sparse=2400, dense=800, seed=13, sparse_groups=1200):
    """Selectivity drifts mid-stream: thin sub-streams, then a dense burst.

    The sparse phase spreads events over ``sparse_groups`` groups (well
    under one event per sub-stream, where event granularity wins); the
    dense phase concentrates on 4 groups (hundreds per sub-stream, where
    type granularity wins back).
    """
    rng = random.Random(seed)
    events = [
        Event(
            rng.choice("AB"),
            rng.uniform(0.0, 300.0),
            {"g": f"g{i % sparse_groups}", "v": rng.randint(1, 9)},
        )
        for i in range(sparse)
    ]
    events.extend(
        Event(
            rng.choice("AB"),
            rng.uniform(400.0, 450.0),
            {"g": f"g{i % 4}", "v": rng.randint(1, 9)},
        )
        for i in range(dense)
    )
    return sort_events(events)


# ---------------------------------------------------------------------------
# the policy spec
# ---------------------------------------------------------------------------


class TestReplanPolicy:
    def test_policy_validation_reuses_the_config_rules(self):
        with pytest.raises(ConfigError, match="check_interval_events"):
            ReplanPolicy(check_interval_events=0)
        with pytest.raises(ConfigError, match="max_migrations"):
            ReplanPolicy(max_migrations=0)
        with pytest.raises(ConfigError, match="hysteresis"):
            ReplanPolicy(hysteresis=-0.1)
        with pytest.raises(ConfigError, match="ewma_alpha"):
            ReplanPolicy(ewma_alpha=0.0)
        with pytest.raises(ConfigError, match="ewma_alpha"):
            ReplanPolicy(ewma_alpha=1.5)

    def test_policy_config_round_trip(self):
        policy = ReplanPolicy(
            check_interval_events=512, hysteresis=0.1, max_migrations=2
        )
        assert ReplanPolicy.from_config(policy.as_config()).as_config() == (
            policy.as_config()
        )
        assert "check_interval_events=512" in repr(policy)

    def test_resolve_accepts_policy_config_mapping_and_none(self):
        assert resolve_replan_policy(None) is None
        # a disabled policy resolves to None: the hot path pays one check
        assert resolve_replan_policy({"enabled": False}) is None
        assert resolve_replan_policy(ReplanConfig(enabled=False)) is None
        policy = ReplanPolicy(hysteresis=0.5)
        assert resolve_replan_policy(policy) is policy
        resolved = resolve_replan_policy({"enabled": True, "hysteresis": 0.5})
        assert resolved.hysteresis == 0.5
        assert resolve_replan_policy(ReplanConfig(enabled=True)).enabled

    def test_resolve_rejects_other_types(self):
        with pytest.raises(TypeError, match="replan"):
            resolve_replan_policy("aggressive")


# ---------------------------------------------------------------------------
# the controller: EWMAs, due-accounting, versions
# ---------------------------------------------------------------------------


class TestReplanController:
    def test_due_accumulates_until_the_check_interval(self):
        controller = ReplanController(ReplanPolicy(check_interval_events=10))
        assert not controller.due(4)
        assert not controller.due(5)
        assert controller.due(1)
        controller.begin_check()
        assert not controller.due(9)
        assert controller.due(1)

    def test_observation_smooths_density_with_the_ewma(self):
        controller = ReplanController(ReplanPolicy(ewma_alpha=0.5))
        first = controller.observe("q", {"open": 2.0, "events": 8.0})
        assert first.events_per_substream == 4.0  # first sample seeds the EWMA
        second = controller.observe("q", {"open": 2.0, "events": 16.0})
        assert second.events_per_substream == 0.5 * 8.0 + 0.5 * 4.0
        # no open sub-streams: the EWMA carries over instead of collapsing
        third = controller.observe("q", {"open": 0.0, "events": 0.0})
        assert third.events_per_substream == second.events_per_substream
        assert controller.observations["q"] == third

    def test_match_rate_only_sampled_when_events_are_stored(self):
        controller = ReplanController(ReplanPolicy(ewma_alpha=1.0))
        blind = controller.observe(
            "q", {"open": 1.0, "events": 10.0, "stored": 3.0}
        )
        assert blind.match_rate == 1.0  # type plans cannot observe storage
        seen = controller.observe(
            "q",
            {"open": 1.0, "events": 10.0, "stored": 3.0, "stored_observable": 1.0},
        )
        assert seen.match_rate == pytest.approx(0.3)

    def test_latency_is_computed_from_counter_deltas(self):
        controller = ReplanController(ReplanPolicy(ewma_alpha=1.0))
        controller.observe(
            "q", {"open": 1.0, "events": 1.0, "latency_sum": 1.0, "latency_count": 10.0}
        )
        follow = controller.observe(
            "q", {"open": 1.0, "events": 1.0, "latency_sum": 4.0, "latency_count": 20.0}
        )
        # 3 more seconds over 10 more samples, not the lifetime mean
        assert follow.latency_seconds == pytest.approx(0.3)

    def test_record_migration_bumps_the_plan_version(self):
        controller = ReplanController(ReplanPolicy())
        record = controller.record_migration(
            "q", Granularity.TYPE, Granularity.EVENT, 123
        )
        assert record == {
            "query": "q",
            "from": "type",
            "to": "event",
            "version": 1,
            "events_total": 123,
        }
        controller.record_migration("q", Granularity.EVENT, Granularity.TYPE, 456)
        assert controller.plan_versions == {"q": 2}
        assert [r["version"] for r in controller.log] == [1, 2]

    def test_decide_stays_put_without_a_density_sample(self):
        runtime = StreamingRuntime(lateness=0.0)
        runtime.register(QUERY, name="q", granularity="type")
        engine = runtime._by_name["q"].engine
        controller = ReplanController(ReplanPolicy())
        # no open sub-streams yet: no usable density, so no recommendation
        assert (
            controller.decide("q", engine, {"open": 0.0, "events": 0.0})
            is Granularity.TYPE
        )

    def test_decide_stays_put_with_a_single_allowed_granularity(self):
        runtime = StreamingRuntime(lateness=0.0)
        runtime.register(NEXT_QUERY, name="q")
        engine = runtime._by_name["q"].engine
        controller = ReplanController(ReplanPolicy())
        # skip-till-next admits only pattern granularity: nothing to decide
        assert (
            controller.decide("q", engine, {"open": 4.0, "events": 400.0})
            is Granularity.PATTERN
        )

    def test_merge_sums_per_shard_statistics(self):
        merged = merge_raw_observations(
            [{"open": 2.0, "events": 10.0}, {"open": 1.0, "events": 5.0, "stored": 2.0}]
        )
        assert merged == {"open": 3.0, "events": 15.0, "stored": 2.0}


# ---------------------------------------------------------------------------
# the observed cost model (decide)
# ---------------------------------------------------------------------------


class TestObservedCostTables:
    """Table-driven: observed statistics invert the static choice and back."""

    # SEQ(A+, B) has length 2, so type granularity costs 2 updates/event and
    # event granularity costs match_rate * events_per_substream: the
    # crossover sits exactly at one stored event per variable
    @pytest.mark.parametrize(
        ("eps", "match_rate", "expected"),
        [
            # sparse sub-streams: storing the few matches beats 2 updates
            (0.5, 1.0, Granularity.EVENT),
            (1.9, 1.0, Granularity.EVENT),
            # the exact crossover: a tie breaks toward the coarser plan
            (2.0, 1.0, Granularity.TYPE),
            # dense sub-streams: the static choice wins again
            (8.0, 1.0, Granularity.TYPE),
            # dense but barely matching: the observed match rate flips the
            # static recommendation that assumed every event is stored
            (8.0, 0.2, Granularity.EVENT),
            # 8 * 0.25 = 2 stored: the crossover tie again breaks coarse
            (8.0, 0.25, Granularity.TYPE),
        ],
    )
    def test_recommendation_follows_observed_selectivity(
        self, eps, match_rate, expected
    ):
        query = parse_query(QUERY)
        observed = ObservedStatistics(eps, match_rate=match_rate)
        assert recommend_granularity(query, observed) is expected

    def test_observed_costs_per_granularity(self):
        plan = plan_query(parse_query(QUERY))
        observed = ObservedStatistics(3.0, match_rate=0.5)
        costs = compare_observed_costs(plan, observed)
        assert costs[Granularity.TYPE] == 2.0
        # 2 variables x (0.5 * 3.0 / 2) stored events each
        assert costs[Granularity.EVENT] == pytest.approx(1.5)
        # coarsest-first iteration order is what makes min() tie-break coarse
        assert list(costs) == [Granularity.TYPE, Granularity.MIXED, Granularity.EVENT]

    def test_mixed_plan_pays_per_variable_only_for_stored_variables(self):
        # the adjacent predicate forces A to stay event-grained under mixed
        query = parse_query(ADJACENT_QUERY)
        assert allowed_granularities(
            query.semantics, plan_query(query).classification
        ) == (Granularity.MIXED, Granularity.EVENT)
        mixed = plan_query(query, forced_granularity=Granularity.MIXED)
        assert sorted(mixed.type_grained) == ["B"]
        assert sorted(mixed.event_grained) == ["A"]
        observed = ObservedStatistics(4.0)
        # 1 type-grained update + 1 event-grained variable storing 4/2 events
        assert observed_updates_per_event(mixed, observed) == pytest.approx(3.0)
        costs = compare_observed_costs(query, observed)
        assert costs[Granularity.MIXED] == pytest.approx(3.0)
        assert costs[Granularity.EVENT] == pytest.approx(4.0)
        assert recommend_granularity(query, observed) is Granularity.MIXED

    def test_pattern_granularity_costs_one_update(self):
        query = parse_query(NEXT_QUERY)
        costs = compare_observed_costs(query, ObservedStatistics(100.0))
        assert costs == {Granularity.PATTERN: 1.0}
        assert (
            recommend_granularity(query, ObservedStatistics(100.0))
            is Granularity.PATTERN
        )

    def test_stored_per_variable_keeps_the_fraction(self):
        # the static model clamps to >= 1; the observed model must not --
        # sparse sub-streams are exactly where event granularity wins
        assert ObservedStatistics(0.5).stored_per_variable(2) == 0.25
        assert ObservedStatistics(-1.0).stored_per_variable(2) == 0.0
        assert ObservedStatistics(3.0, match_rate=-0.5).stored_per_variable(2) == 0.0

    def test_exact_hysteresis_boundary_does_not_migrate(self):
        # current=type costs 2.0; with hysteresis 0.25 a migration needs
        # the best cost strictly below 2.0 / 1.25 = 1.6
        query = parse_query(QUERY)

        def from_type(eps):
            return recommend_granularity(
                query,
                ObservedStatistics(eps),
                current=Granularity.TYPE,
                hysteresis=0.25,
            )

        # event cost == eps: exactly on the boundary the plan must stay ...
        assert from_type(1.6) is Granularity.TYPE
        # ... and one notch below it must move
        assert from_type(1.59) is Granularity.EVENT
        # without hysteresis any strict improvement moves
        assert (
            recommend_granularity(
                query, ObservedStatistics(1.99), current=Granularity.TYPE
            )
            is Granularity.EVENT
        )

    def test_current_accepted_as_string_and_unknown_current_ignored(self):
        query = parse_query(QUERY)
        sparse = ObservedStatistics(0.5)
        assert recommend_granularity(query, sparse, current="type") is (
            Granularity.EVENT
        )
        # a current granularity outside the allowed set falls back to argmin
        assert (
            recommend_granularity(
                query, sparse, current=Granularity.PATTERN, hysteresis=10.0
            )
            is Granularity.EVENT
        )

    def test_allowed_restriction_excludes_candidates(self):
        query = parse_query(QUERY)
        costs = compare_observed_costs(
            query,
            ObservedStatistics(0.5),
            allowed=(Granularity.TYPE, Granularity.EVENT),
        )
        assert Granularity.MIXED not in costs

    def test_negated_queries_never_get_mixed_proposed(self):
        runtime = StreamingRuntime(lateness=0.0)
        runtime.register(NEGATED_QUERY, name="q")
        engine = runtime._by_name["q"].engine
        allowed = engine_allowed_granularities(engine)
        assert Granularity.MIXED not in allowed
        assert len(allowed) >= 2  # still enough choice for the loop to act


# ---------------------------------------------------------------------------
# eager forced_granularity validation (regression)
# ---------------------------------------------------------------------------


class TestForcedGranularityValidation:
    def test_unknown_granularity_string_is_a_planning_error(self):
        with pytest.raises(PlanningError, match="unknown granularity"):
            plan_query(parse_query(QUERY), forced_granularity="bogus")

    def test_disallowed_granularity_is_rejected_eagerly(self):
        # skip-till-next admits only pattern granularity: forcing event
        # must fail at plan construction, not at first event
        query = parse_query(NEXT_QUERY)
        with pytest.raises(PlanningError, match="not correct"):
            CograPlan(query, forced_granularity=Granularity.EVENT)
        with pytest.raises(PlanningError, match="allowed"):
            plan_query(query, forced_granularity="type")

    def test_adjacent_predicates_reject_type_granularity(self):
        with pytest.raises(PlanningError, match="adjacent"):
            plan_query(parse_query(ADJACENT_QUERY), forced_granularity="type")

    def test_negated_query_rejects_forced_mixed(self):
        from repro.extensions.negation import plan_negated_query

        with pytest.raises(PlanningError, match="force 'event' instead"):
            plan_negated_query(
                parse_query(NEGATED_QUERY), forced_granularity=Granularity.MIXED
            )

    def test_register_validates_before_any_event(self):
        runtime = StreamingRuntime(lateness=0.0)
        with pytest.raises(PlanningError, match="unknown granularity"):
            runtime.register(QUERY, name="q", granularity="bogus")
        with pytest.raises(PlanningError, match="not correct"):
            runtime.register(NEXT_QUERY, name="q", granularity="event")

    def test_migration_to_a_disallowed_granularity_leaves_state_intact(self):
        events = stream(count=120)
        runtime = StreamingRuntime(lateness=0.0)
        runtime.register(NEXT_QUERY, name="q")
        records = []
        for event in events[:60]:
            records.extend(runtime.process(event))
        with pytest.raises(PlanningError, match="not correct"):
            runtime.migrate_granularity("q", "type")
        # the failed migration touched nothing: the run completes unchanged
        for event in events[60:]:
            records.extend(runtime.process(event))
        records.extend(runtime.flush())
        assert canonical(records) == canonical(
            expected_records([("q", NEXT_QUERY)], events, 0.0)
        )
        assert runtime.plan_versions == {"q": 0}
        assert runtime.replan_log == []


# ---------------------------------------------------------------------------
# forced live migration
# ---------------------------------------------------------------------------


class TestForcedMigration:
    def test_single_process_migrations_keep_parity(self):
        events = stream(count=400)
        expected = expected_records(JOB, events, 0.0)
        runtime = StreamingRuntime(lateness=0.0)
        runtime.register(QUERY, name="q", granularity="type")
        records = []
        for index, event in enumerate(events):
            records.extend(runtime.process(event))
            if index == 120:
                assert runtime.migrate_granularity("q", "event")
            if index == 260:
                assert runtime.migrate_granularity("q", Granularity.TYPE)
        records.extend(runtime.flush())
        assert canonical(records) == canonical(expected)
        assert runtime.plan_versions == {"q": 2}
        assert [(r["from"], r["to"]) for r in runtime.replan_log] == [
            ("type", "event"),
            ("event", "type"),
        ]
        assert runtime.metrics.replan_migrations == 2

    def test_migrating_to_the_current_granularity_is_a_noop(self):
        runtime = StreamingRuntime(lateness=0.0)
        runtime.register(QUERY, name="q", granularity="type")
        assert not runtime.migrate_granularity("q", "type")
        assert runtime.plan_versions == {"q": 0}
        with pytest.raises(KeyError):
            runtime.migrate_granularity("ghost", "event")

    def test_migrate_engine_is_a_noop_for_the_same_granularity(self):
        runtime = StreamingRuntime(lateness=0.0)
        runtime.register(QUERY, name="q", granularity="event")
        engine = runtime._by_name["q"].engine
        assert not migrate_engine(engine, "event")
        assert migrate_engine(engine, Granularity.TYPE)
        assert engine.plan.granularity is Granularity.TYPE

    def test_sharded_migrations_keep_parity(self):
        events = stream(count=400)
        expected = expected_records(JOB, events, 0.0)
        runtime = ShardedRuntime(workers=2, lateness=0.0, ship_interval=8)
        runtime.register(QUERY, name="q", granularity="type")
        records = []
        for index, event in enumerate(events):
            records.extend(runtime.process(event))
            if index == 120:
                assert runtime.migrate_granularity("q", "event")
            if index == 260:
                assert runtime.migrate_granularity("q", "type")
        records.extend(runtime.flush())
        assert canonical(records) == canonical(expected)
        assert runtime.plan_versions == {"q": 2}
        assert runtime.metrics.replan_migrations == 2
        assert any("replan" in line for line in runtime.shard_report().splitlines())

    def test_sharded_noop_and_unknown_query(self):
        runtime = ShardedRuntime(workers=2, lateness=0.0)
        runtime.register(QUERY, name="q", granularity="event")
        try:
            assert not runtime.migrate_granularity("q", "event")
            assert runtime.plan_versions == {"q": 0}
            with pytest.raises(KeyError, match="ghost"):
                runtime.migrate_granularity("ghost", "type")
        finally:
            runtime.close()

    def test_negated_query_migrates_through_the_negation_planner(self):
        events = stream(5, 250)
        expected = expected_records([("q", NEGATED_QUERY)], events, 0.0)
        runtime = StreamingRuntime(lateness=0.0)
        runtime.register(NEGATED_QUERY, name="q")
        records = []
        for index, event in enumerate(events):
            records.extend(runtime.process(event))
            if index == 100:
                assert runtime.migrate_granularity("q", "event")
            if index == 200:
                with pytest.raises(PlanningError, match="force 'event' instead"):
                    runtime.migrate_granularity("q", "mixed")
        records.extend(runtime.flush())
        assert canonical(records) == canonical(expected)
        assert runtime.plan_versions == {"q": 1}


# ---------------------------------------------------------------------------
# the policy-driven control loop
# ---------------------------------------------------------------------------

DRIFT_REPLAN = {"enabled": True, "check_interval_events": 250, "hysteresis": 0.1}
#: the most trigger-happy legal policy: a check every 50 events, no margin
AGGRESSIVE_REPLAN = {"enabled": True, "check_interval_events": 50, "hysteresis": 0.0}


class TestPolicyDrivenReplan:
    def test_drifting_stream_migrates_and_keeps_parity(self):
        events = make_drift_stream()
        expected = expected_records(JOB, events, 0.0)
        runtime = StreamingRuntime(lateness=0.0, replan=DRIFT_REPLAN)
        runtime.register(QUERY, name="q", granularity="type")
        records = runtime.run(events)
        assert canonical(records) == canonical(expected)
        directions = {(r["from"], r["to"]) for r in runtime.replan_log}
        # the sparse phase demands coarse->fine; the dense burst the way back
        assert ("type", "event") in directions, runtime.replan_log
        assert ("event", "type") in directions, runtime.replan_log
        assert runtime.metrics.replan_cycles > 0
        assert runtime.metrics.replan_migrations >= 2
        assert runtime.metrics.replan_pause_seconds > 0.0
        observation = runtime.query_observations()["q"]
        assert observation.query == "q"
        assert observation.events_total > 0
        assert 0.0 <= observation.match_rate <= 1.0

    def test_stable_stream_never_migrates_under_an_aggressive_policy(self):
        # dense sub-streams from the first event to the last: the observed
        # statistics always favor the static type plan, so even a zero-
        # hysteresis policy checking every 50 events must not flap
        events = stream(count=800, types="AB", groups=DENSE_GROUPS, span=90.0)
        runtime = StreamingRuntime(lateness=0.0, replan=AGGRESSIVE_REPLAN)
        runtime.register(QUERY, name="q", granularity="type")
        records = runtime.run(events)
        assert canonical(records) == canonical(expected_records(JOB, events, 0.0))
        assert runtime.metrics.replan_cycles > 0
        assert runtime.metrics.replan_migrations == 0
        assert runtime.replan_log == []
        assert runtime.plan_versions == {"q": 0}

    def test_sharded_drifting_stream_migrates_and_keeps_parity(self):
        events = make_drift_stream()
        expected = expected_records(JOB, events, 0.0)
        runtime = ShardedRuntime(
            workers=2, lateness=0.0, ship_interval=8, replan=DRIFT_REPLAN
        )
        runtime.register(QUERY, name="q", granularity="type")
        records = runtime.run(events)
        assert canonical(records) == canonical(expected)
        directions = {(r["from"], r["to"]) for r in runtime.replan_log}
        assert ("type", "event") in directions, runtime.replan_log
        assert runtime.metrics.replan_migrations >= 1
        # the merged observation covers every worker's slice of the stream
        observation = runtime.query_observations()["q"]
        assert observation.events_total > 0

    def test_sharded_stable_stream_never_migrates(self):
        events = stream(count=800, types="AB", groups=DENSE_GROUPS, span=90.0)
        runtime = ShardedRuntime(
            workers=2, lateness=0.0, ship_interval=8, replan=AGGRESSIVE_REPLAN
        )
        runtime.register(QUERY, name="q", granularity="type")
        records = runtime.run(events)
        assert canonical(records) == canonical(expected_records(JOB, events, 0.0))
        assert runtime.metrics.replan_cycles > 0
        assert runtime.metrics.replan_migrations == 0
        assert runtime.plan_versions == {"q": 0}


# ---------------------------------------------------------------------------
# the migrated plan survives checkpoints, recovery and --recover
# ---------------------------------------------------------------------------


class TestReplanCheckpointing:
    def test_checkpoint_records_the_post_migration_granularity(self):
        events = stream(count=300)
        runtime = StreamingRuntime(lateness=0.0, replan=DRIFT_REPLAN)
        runtime.register(QUERY, name="q", granularity="type")
        records = []
        for event in events[:150]:
            records.extend(runtime.process(event))
        assert runtime.migrate_granularity("q", "event")
        snapshot = runtime.checkpoint()
        (recorded,) = [q for q in snapshot["queries"] if q["name"] == "q"]
        assert recorded["granularity"] == "event"
        assert snapshot["executors"]["q"]["granularity"] == "event"

        # a replan-enabled runtime registered with the old granularity
        # adopts the checkpointed plan instead of rejecting it
        resumed = StreamingRuntime(lateness=0.0, replan=DRIFT_REPLAN)
        resumed.register(QUERY, name="q", granularity="type")
        resumed.restore(snapshot)
        assert resumed._by_name["q"].engine.plan.granularity is Granularity.EVENT
        for event in events[150:]:
            records.extend(resumed.process(event))
        records.extend(resumed.flush())
        assert canonical(records) == canonical(expected_records(JOB, events, 0.0))

    def test_restore_without_replan_stays_strict(self):
        runtime = StreamingRuntime(lateness=0.0)
        runtime.register(QUERY, name="q", granularity="type")
        runtime.migrate_granularity("q", "event")
        snapshot = runtime.checkpoint()
        strict = StreamingRuntime(lateness=0.0)
        strict.register(QUERY, name="q", granularity="type")
        with pytest.raises(CheckpointError):
            strict.restore(snapshot)

    def test_sharded_restore_adopts_the_migrated_plan(self):
        events = stream(count=300)
        runtime = ShardedRuntime(
            workers=2, lateness=0.0, ship_interval=8, replan=DRIFT_REPLAN
        )
        runtime.register(QUERY, name="q", granularity="type")
        records = []
        for event in events[:150]:
            records.extend(runtime.process(event))
        assert runtime.migrate_granularity("q", "event")
        snapshot = runtime.checkpoint()
        assert snapshot["executors"]["q"]["granularity"] == "event"
        records.extend(runtime.drain_pending())
        runtime.close()

        resumed = ShardedRuntime(
            workers=2, lateness=0.0, ship_interval=8, replan=DRIFT_REPLAN
        )
        resumed.register(QUERY, name="q", granularity="type")
        resumed.restore(snapshot)
        assert resumed._engines["q"].plan.granularity is Granularity.EVENT
        for event in events[150:]:
            records.extend(resumed.process(event))
        records.extend(resumed.flush())
        assert canonical(records) == canonical(expected_records(JOB, events, 0.0))

    def test_sharded_restore_reports_a_crashed_worker_as_such(self):
        # adopting the checkpointed granularity quiesces the workers; one
        # that died surfaces as the crash it is (the runtime is poisoned),
        # not as a "queries do not match" checkpoint error
        events = stream(count=100)
        runtime = StreamingRuntime(lateness=0.0)
        runtime.register(QUERY, name="q", granularity="event")
        runtime.process_batch(events[:50])
        snapshot = runtime.checkpoint()

        resumed = ShardedRuntime(workers=2, lateness=0.0, replan=DRIFT_REPLAN)
        resumed.register(QUERY, name="q", granularity="type")
        resumed.process_batch(events[:10])  # starts the workers
        kill_worker(resumed, 0)
        with pytest.raises(WorkerCrashError):
            resumed.restore(snapshot)
        with pytest.raises(RuntimeError, match="closed after a failure"):
            resumed.process(events[10])

    def test_sharded_snapshot_restores_into_a_single_process_runtime(self):
        # checkpoints are topology-independent: a migration performed by
        # the sharded runtime resumes on one process (and vice versa)
        events = stream(count=300)
        runtime = ShardedRuntime(
            workers=2, lateness=0.0, ship_interval=8, replan=DRIFT_REPLAN
        )
        runtime.register(QUERY, name="q", granularity="type")
        records = []
        for event in events[:150]:
            records.extend(runtime.process(event))
        assert runtime.migrate_granularity("q", "event")
        snapshot = runtime.checkpoint()
        records.extend(runtime.drain_pending())
        runtime.close()

        resumed = StreamingRuntime(lateness=0.0, replan=DRIFT_REPLAN)
        resumed.register(QUERY, name="q", granularity="type")
        resumed.restore(snapshot)
        assert resumed._by_name["q"].engine.plan.granularity is Granularity.EVENT
        for event in events[150:]:
            records.extend(resumed.process(event))
        records.extend(resumed.flush())
        assert canonical(records) == canonical(expected_records(JOB, events, 0.0))


# ---------------------------------------------------------------------------
# chaos: workers die around migrations
# ---------------------------------------------------------------------------


class TestChaos:
    def test_kill_right_after_a_migration_resumes_the_new_plan(self):
        """SIGKILL a worker immediately after the plan swap: recovery must
        rebuild the dead shard under the post-migration plan (the recovery
        baseline is re-cut during the migration), with exact totals."""
        events = stream(count=400)
        expected = expected_records(JOB, events, 0.0)
        runtime = ShardedRuntime(
            workers=2, lateness=0.0, ship_interval=8, max_restarts=2
        )
        runtime.register(QUERY, name="q", granularity="type")
        records = []
        for index, event in enumerate(events):
            records.extend(runtime.process(event))
            if index == 150:
                assert runtime.migrate_granularity("q", "event")
                kill_worker(runtime, 1)
        # cut a checkpoint after recovery, before the final flush stops
        # the workers: it must name the post-migration plan
        final = runtime.checkpoint()
        records.extend(runtime.flush())
        assert canonical(records) == canonical(expected)
        assert runtime.restart_counts == [0, 1]
        # the plan version is consistent after recovery: one migration,
        # still in force on every worker
        assert runtime.plan_versions == {"q": 1}
        assert runtime._engines["q"].plan.granularity is Granularity.EVENT
        assert final["executors"]["q"]["granularity"] == "event"

    def test_kill_during_policy_run_with_checkpoint_store(self, tmp_path):
        events = make_drift_stream()
        expected = expected_records(JOB, events, 0.0)
        store = CheckpointStore(tmp_path / "ckpt", compact_every=4)
        runtime = ShardedRuntime(
            workers=2,
            lateness=0.0,
            ship_interval=8,
            max_restarts=2,
            replan=DRIFT_REPLAN,
        )
        runtime.register(QUERY, name="q", granularity="type")

        def feed():
            for index, event in enumerate(events):
                if index == 1500:
                    assert runtime.plan_versions["q"] > 0, (
                        "the sparse prefix must have migrated before the "
                        "kill for this chaos scenario to bite"
                    )
                    kill_worker(runtime, 0)
                yield event

        records = runtime.run(feed(), checkpoint_store=store, checkpoint_interval=300)
        assert canonical(records) == canonical(expected)
        assert runtime.restart_counts[0] == 1
        assert runtime.plan_versions["q"] >= 1
        # the store's newest cut names the migrated plan, so --recover
        # resumes the post-migration granularity
        latest = store.load_latest()
        assert (
            latest["executors"]["q"]["granularity"]
            == runtime._engines["q"].plan.granularity.value
        )
