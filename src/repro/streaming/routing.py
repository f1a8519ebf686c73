"""Routing and load accounting of the sharded runtime (no dependency on it).

The parent of a :class:`~repro.streaming.sharded.ShardedRuntime` routes every
released event to the worker owning its partition key.  This module holds
the three pieces of that decision that know nothing about processes,
queues or acknowledgements:

* :class:`ShardRouter` -- the versioned hash-slot -> worker map, recorded
  inside every sharded checkpoint;
* :class:`RebalancePolicy` -- when the per-slot load is skewed and which
  slots to move;
* :class:`ShardStats` -- the per-worker shipment/acknowledgement counters.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.partitioner import shard_index
from repro.errors import CheckpointError
from repro.streaming.config import RebalanceConfig


class ShardStats:
    """Per-worker accounting the parent keeps while routing and merging.

    Lifetime totals accumulate across worker restarts; the
    ``incarnation_*`` mirrors describe only the *live* process incarnation
    and are reset by :meth:`begin_incarnation` every time the shard's
    worker is respawned, so :attr:`incarnation` always equals the shard's
    restart count and :meth:`__repr__`, :meth:`as_dict` and the recovery
    counters tell one consistent story.
    """

    __slots__ = (
        "events_sent",
        "batches_sent",
        "records_merged",
        "acks_received",
        "processing_seconds",
        "incarnation",
        "incarnation_events_sent",
        "incarnation_batches_sent",
        "incarnation_records_merged",
        "incarnation_acks_received",
    )

    def __init__(self) -> None:
        self.events_sent = 0
        self.batches_sent = 0
        self.records_merged = 0
        self.acks_received = 0
        self.processing_seconds = 0.0
        self.incarnation = 0
        self.incarnation_events_sent = 0
        self.incarnation_batches_sent = 0
        self.incarnation_records_merged = 0
        self.incarnation_acks_received = 0

    def record_shipment(self, events: int) -> None:
        """Account one shipped batch/flush carrying ``events`` events."""
        self.events_sent += events
        self.batches_sent += 1
        self.incarnation_events_sent += events
        self.incarnation_batches_sent += 1

    def record_ack(self, records: int, seconds: float) -> None:
        """Account one acknowledgement that merged ``records`` records."""
        self.acks_received += 1
        self.records_merged += records
        self.incarnation_acks_received += 1
        self.incarnation_records_merged += records
        self.processing_seconds += seconds

    def begin_incarnation(self) -> None:
        """Start the counters of a freshly respawned worker process."""
        self.incarnation += 1
        self.incarnation_events_sent = 0
        self.incarnation_batches_sent = 0
        self.incarnation_records_merged = 0
        self.incarnation_acks_received = 0

    def as_dict(self) -> Dict[str, object]:
        """Flat dictionary view for reports and tests."""
        return {
            "events_sent": self.events_sent,
            "batches_sent": self.batches_sent,
            "records_merged": self.records_merged,
            "acks_received": self.acks_received,
            "processing_seconds": self.processing_seconds,
            "incarnation": self.incarnation,
            "incarnation_events_sent": self.incarnation_events_sent,
            "incarnation_batches_sent": self.incarnation_batches_sent,
            "incarnation_records_merged": self.incarnation_records_merged,
            "incarnation_acks_received": self.incarnation_acks_received,
        }

    def __repr__(self) -> str:
        return (
            f"ShardStats(events={self.events_sent}, batches={self.batches_sent}, "
            f"records={self.records_merged}, acks={self.acks_received}, "
            f"incarnation={self.incarnation})"
        )


class ShardRouter:
    """Versioned hash-slot -> worker map behind the parent's event routing.

    The partition-key hash space is cut into :attr:`slots` sub-ranges
    (:func:`~repro.core.partitioner.shard_index` over ``slots``); each slot is
    owned by exactly one worker.  The seed assignment round-robins slots
    over workers -- ``slots`` is a multiple of the worker count, so seeding
    routes exactly like the historical static ``hash % workers`` -- and
    :meth:`move` reassigns one slot, bumping :attr:`version`.  The map is
    recorded inside every sharded checkpoint, so worker recovery and
    ``--recover`` resume the post-migration topology instead of the seed
    one.
    """

    __slots__ = ("shard_count", "slots", "assignment", "version")

    def __init__(self, shard_count: int, slots_per_worker: int = 16):
        if shard_count < 1:
            raise ValueError(f"shard_count must be at least 1, got {shard_count}")
        if slots_per_worker < 1:
            raise ValueError(
                f"slots_per_worker must be at least 1, got {slots_per_worker}"
            )
        self.shard_count = shard_count
        self.slots = shard_count * slots_per_worker
        self.assignment: List[int] = [s % shard_count for s in range(self.slots)]
        self.version = 0

    def slot_of(self, key) -> int:
        """The hash slot a partition key falls into."""
        return shard_index(key, self.slots)

    def owner_of_key(self, key) -> int:
        """The worker owning a partition key under the current map."""
        return self.assignment[shard_index(key, self.slots)]

    def move(self, slot: int, worker: int) -> None:
        """Reassign one slot to ``worker`` and bump the map version."""
        self.assignment[slot] = worker
        self.version += 1

    def worker_slots(self, worker: int) -> List[int]:
        """The slots currently owned by ``worker``."""
        return [s for s, owner in enumerate(self.assignment) if owner == worker]

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe form recorded inside sharded checkpoints."""
        return {
            "slots": self.slots,
            "assignment": list(self.assignment),
            "version": self.version,
        }

    @classmethod
    def from_snapshot(cls, state: Dict[str, object], shard_count: int) -> "ShardRouter":
        """Rebuild the map written by :meth:`snapshot` for ``shard_count``."""
        try:
            assignment = [int(worker) for worker in state["assignment"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed router snapshot: {exc}") from exc
        if not assignment or any(
            worker < 0 or worker >= shard_count for worker in assignment
        ):
            raise CheckpointError(
                f"checkpointed router map addresses workers outside "
                f"0..{shard_count - 1}; was it taken under a different topology?"
            )
        router = cls(shard_count, 1)
        router.slots = len(assignment)
        router.assignment = assignment
        router.version = int(state.get("version", 0))
        return router

    def __repr__(self) -> str:
        return (
            f"ShardRouter(v{self.version}, {self.slots} slots over "
            f"{self.shard_count} workers)"
        )


class RebalancePolicy:
    """Decides when and which hash slots migrate between workers.

    The parent counts routed events per hash slot; every ``min_interval``
    ingested events the policy aggregates them into per-worker loads
    through the live assignment and, when the busiest worker's load is at
    or above ``skew_threshold`` times the mean (:meth:`skewed` -- the
    detector fires *exactly* at the threshold), :meth:`plan` picks up to
    ``max_moves`` hot slots to move from overloaded to underloaded
    workers.  A slot is only moved when doing so strictly shrinks the gap
    between its source and target, so planning cannot oscillate.
    """

    __slots__ = (
        "enabled",
        "skew_threshold",
        "min_interval",
        "max_moves",
        "slots_per_worker",
    )

    def __init__(
        self,
        skew_threshold: float = 1.5,
        min_interval: int = 512,
        max_moves: int = 4,
        slots_per_worker: int = 16,
        enabled: bool = True,
    ):
        # the config spec owns validation; constructing it applies the rules
        config = RebalanceConfig(
            enabled=enabled,
            skew_threshold=skew_threshold,
            min_interval=min_interval,
            max_moves=max_moves,
            slots_per_worker=slots_per_worker,
        )
        self.enabled = config.enabled
        self.skew_threshold = float(config.skew_threshold)
        self.min_interval = config.min_interval
        self.max_moves = config.max_moves
        self.slots_per_worker = config.slots_per_worker

    @classmethod
    def from_config(cls, config: RebalanceConfig) -> "RebalancePolicy":
        """The policy a :class:`~repro.streaming.config.RebalanceConfig` describes."""
        return cls(
            skew_threshold=config.skew_threshold,
            min_interval=config.min_interval,
            max_moves=config.max_moves,
            slots_per_worker=config.slots_per_worker,
            enabled=config.enabled,
        )

    def as_config(self) -> RebalanceConfig:
        """The serializable spec form of this policy."""
        return RebalanceConfig(
            enabled=self.enabled,
            skew_threshold=self.skew_threshold,
            min_interval=self.min_interval,
            max_moves=self.max_moves,
            slots_per_worker=self.slots_per_worker,
        )

    @staticmethod
    def worker_loads(
        slot_loads: List[int], assignment: List[int], shard_count: int
    ) -> List[int]:
        """Aggregate per-slot event counts into per-worker loads."""
        loads = [0] * shard_count
        for slot, count in enumerate(slot_loads):
            loads[assignment[slot]] += count
        return loads

    def skewed(self, loads: List[int]) -> bool:
        """True when the busiest load is at/over the threshold x mean load."""
        total = sum(loads)
        if total <= 0 or len(loads) < 2:
            return False
        return max(loads) >= self.skew_threshold * (total / len(loads))

    def plan(
        self, slot_loads: List[int], assignment: List[int], shard_count: int
    ) -> List[Tuple[int, int]]:
        """Up to ``max_moves`` ``(slot, target worker)`` migrations easing skew.

        Greedy: repeatedly take the hottest slot of the most loaded worker
        that fits in the load gap to the least loaded worker.  Returns
        ``[]`` when the loads are not skewed or no move can help (e.g. the
        skew sits in one indivisible hot slot).
        """
        assignment = list(assignment)
        loads = self.worker_loads(slot_loads, assignment, shard_count)
        moves: List[Tuple[int, int]] = []
        if shard_count < 2:
            return moves
        while len(moves) < self.max_moves and self.skewed(loads):
            source = max(range(shard_count), key=loads.__getitem__)
            target = min(range(shard_count), key=loads.__getitem__)
            gap = loads[source] - loads[target]
            candidates = sorted(
                (
                    slot
                    for slot in range(len(slot_loads))
                    if assignment[slot] == source and slot_loads[slot] > 0
                ),
                key=slot_loads.__getitem__,
                reverse=True,
            )
            slot = next((s for s in candidates if slot_loads[s] < gap), None)
            if slot is None:
                break  # the skew sits in one indivisible hot range
            moves.append((slot, target))
            assignment[slot] = target
            loads[source] -= slot_loads[slot]
            loads[target] += slot_loads[slot]
        return moves

    def __repr__(self) -> str:
        return (
            f"RebalancePolicy(enabled={self.enabled}, "
            f"skew_threshold={self.skew_threshold:g}, "
            f"min_interval={self.min_interval}, max_moves={self.max_moves})"
        )
