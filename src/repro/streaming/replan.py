"""Online adaptive granularity re-planning: the observe-decide-act loop.

The static analyzer picks a granularity once, from assumptions
(:mod:`repro.analyzer.cost`).  Real streams drift: a query whose
sub-streams were dense at plan time may turn sparse an hour in, at which
point event granularity -- storing the few matched events per sub-stream --
beats paying one accumulator update per pattern variable per event.  This
module closes the loop:

* **Observe** -- :func:`observe_executor` measures the live mean events per
  open ``(window, group)`` sub-stream (inherently recent: the watermark
  evicts closed windows) plus the per-query match-rate/latency counters of
  the observability registry; :class:`ReplanController` smooths them into
  EWMAs and exposes them as :class:`QueryObservation` snapshots.
* **Decide** -- the controller feeds the observation into the cost model's
  observed-statistics mode
  (:func:`repro.analyzer.cost.recommend_granularity`) behind a
  :class:`ReplanPolicy`: a minimum number of events between checks, a
  hysteresis margin so borderline queries do not flap, and a cap on
  migrations per check.
* **Act** -- :func:`migrate_engine` live-migrates a running engine through
  the checkpoint snapshot/restore path: snapshot the executor, re-plan the
  query under ``forced_granularity``, rebuild the executor, restore.
  Still-open windows keep aggregators of the previous granularity (the
  checkpoint codec rebuilds them per recorded class), so results are
  byte-identical to a run that never migrated -- only the cost changes as
  new windows open under the new plan.

Both runtimes host the loop: :class:`~repro.streaming.runtime.
StreamingRuntime` migrates its registered engines in place;
:class:`~repro.streaming.sharded.ShardedRuntime` collects worker
observations, decides centrally, and broadcasts the plan swap to the
workers between shipped-watermark epochs (see its ``_apply_replan``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analyzer.cost import ObservedStatistics, recommend_granularity
from repro.analyzer.granularity import Granularity, allowed_granularities
from repro.analyzer.plan import plan_query
from repro.streaming.checkpoint import restore_executor, snapshot_executor
from repro.streaming.config import ReplanConfig

__all__ = [
    "QueryObservation",
    "ReplanController",
    "ReplanPolicy",
    "engine_allowed_granularities",
    "merge_raw_observations",
    "migrate_engine",
    "observe_executor",
    "observe_instruments",
    "resolve_replan_policy",
]


@dataclass(frozen=True)
class QueryObservation:
    """One query's smoothed runtime statistics at the last replan check."""

    #: query name
    query: str
    #: total events the executor has processed
    events_total: int
    #: open (window, group) sub-streams at the check
    open_substreams: int
    #: EWMA of the mean events processed per open sub-stream
    events_per_substream: float
    #: EWMA of the fraction of routed events that produced match output
    #: (1.0 when the observability registry is disabled)
    match_rate: float
    #: EWMA of the executor processing latency per event, in seconds
    #: (0.0 when the observability registry is disabled)
    latency_seconds: float

    def statistics(self) -> ObservedStatistics:
        """The cost-model input this observation describes."""
        return ObservedStatistics(
            events_per_substream=self.events_per_substream,
            match_rate=self.match_rate,
        )


class ReplanPolicy:
    """When the control loop checks, and how reluctant it is to migrate.

    ``check_interval_events`` events must be ingested between checks;
    ``hysteresis`` is the fractional cost margin the current plan must be
    beaten by before a migration happens (the boundary itself does *not*
    migrate); ``max_migrations`` caps the queries migrated per check;
    ``ewma_alpha`` is the smoothing factor of the observation EWMAs.
    """

    __slots__ = (
        "enabled",
        "check_interval_events",
        "hysteresis",
        "max_migrations",
        "ewma_alpha",
    )

    def __init__(
        self,
        check_interval_events: int = 2048,
        hysteresis: float = 0.25,
        max_migrations: int = 4,
        ewma_alpha: float = 0.5,
        enabled: bool = True,
    ):
        # the config spec owns validation; constructing it applies the rules
        config = ReplanConfig(
            enabled=enabled,
            check_interval_events=check_interval_events,
            hysteresis=hysteresis,
            max_migrations=max_migrations,
            ewma_alpha=ewma_alpha,
        )
        self.enabled = config.enabled
        self.check_interval_events = config.check_interval_events
        self.hysteresis = float(config.hysteresis)
        self.max_migrations = config.max_migrations
        self.ewma_alpha = float(config.ewma_alpha)

    @classmethod
    def from_config(cls, config: ReplanConfig) -> "ReplanPolicy":
        """The policy a :class:`~repro.streaming.config.ReplanConfig` describes."""
        return cls(
            check_interval_events=config.check_interval_events,
            hysteresis=config.hysteresis,
            max_migrations=config.max_migrations,
            ewma_alpha=config.ewma_alpha,
            enabled=config.enabled,
        )

    def as_config(self) -> ReplanConfig:
        """The serializable spec form of this policy."""
        return ReplanConfig(
            enabled=self.enabled,
            check_interval_events=self.check_interval_events,
            hysteresis=self.hysteresis,
            max_migrations=self.max_migrations,
            ewma_alpha=self.ewma_alpha,
        )

    def __repr__(self) -> str:
        return (
            f"ReplanPolicy(enabled={self.enabled}, "
            f"check_interval_events={self.check_interval_events}, "
            f"hysteresis={self.hysteresis}, "
            f"max_migrations={self.max_migrations})"
        )


def resolve_replan_policy(replan) -> Optional[ReplanPolicy]:
    """Normalize a runtime's ``replan=`` keyword to a policy or ``None``.

    Accepts a :class:`ReplanPolicy`, a :class:`ReplanConfig`, a raw mapping
    of config settings, or ``None``; a disabled policy resolves to ``None``
    so the runtimes' hot paths pay a single ``is None`` check.
    """
    if replan is None:
        return None
    if isinstance(replan, ReplanPolicy):
        policy = replan
    elif isinstance(replan, ReplanConfig):
        policy = ReplanPolicy.from_config(replan)
    elif isinstance(replan, dict):
        policy = ReplanPolicy.from_config(ReplanConfig(**replan))
    else:
        raise TypeError(
            f"replan must be a ReplanPolicy, ReplanConfig, mapping or None, "
            f"got {replan!r}"
        )
    return policy if policy.enabled else None


# ---------------------------------------------------------------------------
# observe
# ---------------------------------------------------------------------------


def observe_executor(executor) -> Dict[str, float]:
    """Raw sub-stream statistics of one executor (runs in the owning process).

    The mean of ``events_processed`` over the *open* aggregators is the
    live sub-stream density: closed windows have been evicted by the
    watermark, so the measure tracks the recent stream without a separate
    decay mechanism.
    """
    keeps_events = executor.plan.granularity.keeps_events
    return {
        "open": float(executor.open_group_count()),
        "events": float(
            sum(
                aggregator.events_processed
                for _, _, aggregator in executor.open_aggregators()
            )
        ),
        "events_seen": float(executor.events_seen),
        # stored matched events are directly observable only under plans
        # that keep events (mixed/event); the flag tells the controller
        # whether the match-rate sample below is usable
        "stored": float(executor.stored_event_count()),
        "stored_observable": 1.0 if keeps_events else 0.0,
    }


def observe_instruments(raw: Dict[str, float], instruments) -> Dict[str, float]:
    """Fold a query's observability counters into its raw statistics."""
    if instruments is not None:
        raw["latency_sum"] = float(instruments.latency.sum)
        raw["latency_count"] = float(instruments.latency.count)
    return raw


def merge_raw_observations(parts: List[Dict[str, float]]) -> Dict[str, float]:
    """Sum per-shard raw statistics into one stream-wide view."""
    merged: Dict[str, float] = {}
    for part in parts:
        for key, value in part.items():
            merged[key] = merged.get(key, 0.0) + float(value)
    return merged


# ---------------------------------------------------------------------------
# decide
# ---------------------------------------------------------------------------


def engine_allowed_granularities(engine) -> Tuple[Granularity, ...]:
    """Granularities the replan loop may propose for ``engine``'s query.

    The statically allowed set, minus mixed granularity for queries with
    negated sub-patterns (their mixed bookkeeping is not implemented, see
    :func:`repro.extensions.negation.plan_negated_query`).
    """
    plan = engine.plan
    allowed = allowed_granularities(plan.semantics, plan.classification)
    analysis = getattr(engine, "negation_analysis", None)
    if analysis is not None and analysis.has_negations:
        allowed = tuple(g for g in allowed if g is not Granularity.MIXED)
    return allowed


class ReplanController:
    """Per-runtime state of the control loop: EWMAs, versions, and the log.

    The hosting runtime calls :meth:`due` from its ingestion path and, when
    a check is due, :meth:`decide` per query with the (merged) raw
    statistics; migrations it performs are recorded with
    :meth:`record_migration`, which bumps the query's plan version.
    """

    def __init__(self, policy: ReplanPolicy):
        self.policy = policy
        self._pending = 0
        self._ewma: Dict[str, Dict[str, float]] = {}
        self._last_counters: Dict[str, Tuple[float, float]] = {}
        #: last observation per query (updated at each check)
        self.observations: Dict[str, QueryObservation] = {}
        #: per-query plan version, starting at 0 and bumped per migration
        self.plan_versions: Dict[str, int] = {}
        #: migration records: {query, from, to, version, events_total}
        self.log: List[Dict[str, object]] = []

    def due(self, events: int) -> bool:
        """Account ``events`` ingested; True when a check interval elapsed."""
        self._pending += events
        return self._pending >= self.policy.check_interval_events

    def begin_check(self) -> None:
        """Reset the interval counter at the start of a check."""
        self._pending = 0

    def _smooth(self, name: str, key: str, sample: float) -> float:
        ewma = self._ewma.setdefault(name, {})
        previous = ewma.get(key)
        if previous is None:
            value = sample
        else:
            alpha = self.policy.ewma_alpha
            value = alpha * sample + (1.0 - alpha) * previous
        ewma[key] = value
        return value

    def observe(self, name: str, raw: Dict[str, float]) -> QueryObservation:
        """Fold one check's raw statistics into the query's EWMAs."""
        open_substreams = int(raw.get("open", 0.0))
        if open_substreams > 0:
            density = self._smooth(
                name, "density", raw.get("events", 0.0) / open_substreams
            )
        else:
            density = self._ewma.get(name, {}).get("density", 0.0)
        match_rate = self._ewma.get(name, {}).get("match_rate", 1.0)
        latency = self._ewma.get(name, {}).get("latency", 0.0)
        events = raw.get("events", 0.0)
        if raw.get("stored_observable") and events > 0:
            # the fraction of processed events the executor actually stores
            # -- the cost model's match rate, measured rather than assumed;
            # only plans that keep events expose it (elsewhere the EWMA, or
            # the conservative 1.0 default, carries over)
            match_rate = self._smooth(
                name, "match_rate", min(1.0, raw.get("stored", 0.0) / events)
            )
        if "latency_count" in raw:
            last = self._last_counters.get(name, (0.0, 0.0))
            latency_sum = raw.get("latency_sum", 0.0)
            latency_count = raw.get("latency_count", 0.0)
            delta_count = latency_count - last[1]
            if delta_count > 0:
                latency = self._smooth(
                    name, "latency", (latency_sum - last[0]) / delta_count
                )
            self._last_counters[name] = (latency_sum, latency_count)
        observation = QueryObservation(
            query=name,
            events_total=int(raw.get("events_seen", 0.0)),
            open_substreams=open_substreams,
            events_per_substream=density,
            match_rate=match_rate,
            latency_seconds=latency,
        )
        self.observations[name] = observation
        return observation

    def decide(self, name: str, engine, raw: Dict[str, float]) -> Granularity:
        """The granularity the observed statistics recommend for ``engine``.

        Returns the current granularity (no migration) until the query has
        produced a usable density sample, and always respects the policy's
        hysteresis margin.
        """
        observation = self.observe(name, raw)
        current = engine.plan.granularity
        if name not in self._ewma or "density" not in self._ewma[name]:
            return current
        allowed = engine_allowed_granularities(engine)
        if len(allowed) < 2:
            return current
        return recommend_granularity(
            engine.plan,
            observation.statistics(),
            current=current,
            hysteresis=self.policy.hysteresis,
            allowed=allowed,
        )

    def record_migration(
        self, name: str, previous: Granularity, new: Granularity, events_total: int
    ) -> Dict[str, object]:
        """Account one performed migration; returns the log record."""
        version = self.plan_versions.get(name, 0) + 1
        self.plan_versions[name] = version
        record = {
            "query": name,
            "from": previous.value,
            "to": new.value,
            "version": version,
            "events_total": int(events_total),
        }
        self.log.append(record)
        return record


# ---------------------------------------------------------------------------
# act
# ---------------------------------------------------------------------------


def migrate_engine(engine, granularity) -> bool:
    """Live-migrate ``engine`` to ``granularity``; True when it migrated.

    The quiesce-snapshot-rebuild-restore sequence of the tentpole: the
    caller guarantees quiescence (no event is mid-flight through the
    executor), this function snapshots the executor state, re-plans the
    query under ``forced_granularity`` (via the negation-aware planner for
    negated queries), rebuilds the executor and restores the snapshot into
    it.  Open windows keep their previous-granularity aggregators until the
    watermark closes them; new sub-streams aggregate under the new plan.
    Disallowed granularities raise :class:`~repro.errors.PlanningError`
    before any state is touched.
    """
    if isinstance(granularity, str):
        granularity = Granularity(granularity)
    if granularity is engine.plan.granularity:
        return False
    if engine.negation_analysis is not None and engine.negation_analysis.has_negations:
        from repro.extensions.negation import plan_negated_query

        plan, _ = plan_negated_query(engine.query, forced_granularity=granularity)
    else:
        plan = plan_query(engine.query, forced_granularity=granularity)
    state = snapshot_executor(engine.executor)
    state["granularity"] = plan.granularity.value
    engine.plan = plan
    executor = engine._build_executor()
    restore_executor(executor, state)
    engine._executor = executor
    return True
