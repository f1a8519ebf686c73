"""Out-of-order ingestion: reorder buffer, watermarks and late events.

Real event sources deliver events with *bounded disorder*: an event may
arrive after later-timestamped events, but not arbitrarily late.  The
ingestion layer restores the total ``(time, sequence)`` order the executors
require:

* a :class:`WatermarkStrategy` turns the arrival stream into a monotone
  *watermark* -- a promise that no event with a smaller timestamp will
  arrive any more (``bounded-delay`` derives it from the maximum timestamp
  seen; ``punctuation`` reads it from dedicated marker events);
* the :class:`OutOfOrderIngestor` buffers arrivals in a min-heap and
  releases them in timestamp order once the watermark passes them;
* events arriving *behind* the watermark are late and handled by the
  configured :class:`LatePolicy` (drop / raise / side-channel).
"""

from __future__ import annotations

import enum
import heapq
import math
from typing import Dict, List, Optional, Tuple

from repro.errors import CheckpointError, LateEventError
from repro.events.event import Event


class LatePolicy(enum.Enum):
    """What to do with an event that arrives behind the watermark."""

    #: silently discard the event (counted in the metrics)
    DROP = "drop"
    #: raise :class:`~repro.errors.LateEventError` (strict pipelines)
    RAISE = "raise"
    #: collect the event on a side channel for out-of-band reprocessing
    SIDE_CHANNEL = "side-channel"


# ---------------------------------------------------------------------------
# watermark strategies
# ---------------------------------------------------------------------------


class WatermarkStrategy:
    """Turns the (disordered) arrival stream into a monotone watermark."""

    def observe(self, event: Event) -> None:
        """Account for one arriving event."""
        raise NotImplementedError

    def watermark(self) -> float:
        """Current watermark; ``-inf`` before anything is known."""
        raise NotImplementedError

    def is_punctuation(self, event: Event) -> bool:
        """True when ``event`` only carries watermark information."""
        return False

    # -- checkpoint support ---------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Checkpointable strategy state."""
        raise NotImplementedError

    def restore(self, state: Dict[str, object]) -> None:
        """Restore the state written by :meth:`snapshot`."""
        raise NotImplementedError


class BoundedDelayWatermark(WatermarkStrategy):
    """Watermark = maximum event time seen minus a fixed lateness bound.

    ``delay`` is the disorder the source is trusted to stay within: an event
    may arrive up to ``delay`` seconds of event time after later events.  A
    delay of ``0`` accepts only in-order input (every disorder is late).
    """

    def __init__(self, delay: float):
        if delay < 0:
            raise ValueError(f"the lateness bound must be non-negative, got {delay!r}")
        self.delay = float(delay)
        self._max_time = -math.inf

    def observe(self, event: Event) -> None:
        if event.time > self._max_time:
            self._max_time = event.time

    def watermark(self) -> float:
        return self._max_time - self.delay

    def snapshot(self) -> Dict[str, object]:
        return {
            "delay": self.delay,
            "max_time": None if math.isinf(self._max_time) else self._max_time,
        }

    def restore(self, state: Dict[str, object]) -> None:
        recorded = float(state["delay"])
        if recorded != self.delay:
            # configuration, not state: silently adopting the checkpoint's
            # bound would loosen (or tighten) what the operator configured
            raise CheckpointError(
                f"checkpoint was taken with a lateness bound of {recorded:g}s "
                f"but this runtime is configured with {self.delay:g}s"
            )
        max_time = state.get("max_time")
        self._max_time = -math.inf if max_time is None else float(max_time)

    def __repr__(self) -> str:
        return f"BoundedDelayWatermark(delay={self.delay:g}s)"


class PunctuationWatermark(WatermarkStrategy):
    """Watermark carried by dedicated punctuation events.

    Events of ``punctuation_type`` advance the watermark to their timestamp
    and are consumed by the ingestion layer (they never reach an executor).
    All other events leave the watermark untouched, so a source that stops
    punctuating stalls emission -- exactly the semantics of punctuated
    streams in Flink/Millwheel-style systems.
    """

    def __init__(self, punctuation_type: str = "Watermark"):
        self.punctuation_type = punctuation_type
        self._watermark = -math.inf

    def observe(self, event: Event) -> None:
        if self.is_punctuation(event) and event.time > self._watermark:
            self._watermark = event.time

    def watermark(self) -> float:
        return self._watermark

    def is_punctuation(self, event: Event) -> bool:
        return event.event_type == self.punctuation_type

    def snapshot(self) -> Dict[str, object]:
        return {
            "punctuation_type": self.punctuation_type,
            "watermark": None if math.isinf(self._watermark) else self._watermark,
        }

    def restore(self, state: Dict[str, object]) -> None:
        recorded = str(state["punctuation_type"])
        if recorded != self.punctuation_type:
            # adopting the checkpoint's type would turn the configured
            # punctuation events into data events and stall emission
            raise CheckpointError(
                f"checkpoint was taken with punctuation type {recorded!r} "
                f"but this runtime is configured with "
                f"{self.punctuation_type!r}"
            )
        watermark = state.get("watermark")
        self._watermark = -math.inf if watermark is None else float(watermark)

    def __repr__(self) -> str:
        return f"PunctuationWatermark(type={self.punctuation_type!r})"


# ---------------------------------------------------------------------------
# the reorder buffer
# ---------------------------------------------------------------------------


class IngestBatch:
    """Outcome of pushing one event into the ingestor.

    Attributes
    ----------
    released:
        Events released in ``(time, sequence)`` order; they are now safe to
        feed to executors because the watermark passed them.
    watermark:
        The watermark after the push (``-inf`` until the strategy knows one).
    advanced:
        True when the push moved the watermark forward, i.e. windows ending
        at or before :attr:`watermark` may now be emitted.
    late_event:
        The pushed event when it arrived behind the watermark, else ``None``.
    buffered:
        Reorder-buffer occupancy after the push (the metrics' single source
        of truth -- late events never enter the buffer).
    punctuation:
        True when the pushed event was consumed as a punctuation marker
        (so metrics never re-derive the strategy's decision).
    """

    __slots__ = (
        "released", "watermark", "advanced", "late_event", "buffered", "punctuation"
    )

    def __init__(
        self,
        released: List[Event],
        watermark: float,
        advanced: bool,
        late_event: Optional[Event] = None,
        buffered: int = 0,
        punctuation: bool = False,
    ):
        self.released = released
        self.watermark = watermark
        self.advanced = advanced
        self.late_event = late_event
        self.buffered = buffered
        self.punctuation = punctuation

    def __repr__(self) -> str:
        return (
            f"IngestBatch(released={len(self.released)}, watermark={self.watermark:g}, "
            f"advanced={self.advanced}, late={self.late_event is not None})"
        )


class OutOfOrderIngestor:
    """Bounded-lateness reorder buffer in front of the executors.

    Parameters
    ----------
    strategy:
        The :class:`WatermarkStrategy` driving release and emission.
    late_policy:
        What happens to events arriving behind the watermark.
    """

    def __init__(
        self,
        strategy: WatermarkStrategy,
        late_policy: LatePolicy = LatePolicy.DROP,
    ):
        self.strategy = strategy
        self.late_policy = LatePolicy(late_policy)
        #: (time, sequence, arrival tie-breaker, event) min-heap
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._arrivals = 0
        #: the strategy's watermark as of the last push (or restore), so a
        #: push reads it from the strategy once, after observing the event
        self._watermark = strategy.watermark()
        self.side_channel: List[Event] = []
        self.dropped = 0

    # -- ingestion -------------------------------------------------------------

    def push(self, event: Event) -> IngestBatch:
        """Ingest one event; return what may now flow downstream."""
        strategy = self.strategy
        heap = self._heap
        before = self._watermark
        punctuation = strategy.is_punctuation(event)
        if not punctuation:
            time = event.time
            if time < before:
                self._handle_late(event, before)
                return IngestBatch([], before, False, event, len(heap))
            self._arrivals = arrivals = self._arrivals + 1
            heapq.heappush(heap, (time, event.sequence, arrivals, event))
        strategy.observe(event)
        watermark = self._watermark = strategy.watermark()
        # most pushes release nothing: the heap head is checked here, not
        # behind a call that builds a list to find that out
        released = (
            self._release(watermark) if heap and heap[0][0] < watermark else []
        )
        return IngestBatch(
            released, watermark, watermark > before, None, len(heap), punctuation
        )

    def drain(self) -> List[Event]:
        """Release every buffered event (end of stream), in order."""
        return self._release(math.inf)

    def _release(self, watermark: float) -> List[Event]:
        """Pop all buffered events with ``time < watermark``, in order.

        Strictly below: an event *at* the watermark is not late (the late
        check is ``time < watermark`` too), so a second event with the same
        timestamp may still arrive -- releasing at equality would let
        equal-timestamp events straddle the watermark and reach executors
        out of ``(time, sequence)`` order.
        """
        released: List[Event] = []
        heap = self._heap
        while heap and heap[0][0] < watermark:
            released.append(heapq.heappop(heap)[3])
        return released

    def _handle_late(self, event: Event, watermark: float) -> None:
        if self.late_policy is LatePolicy.RAISE:
            raise LateEventError(
                f"event at time {event.time:g} arrived behind the watermark "
                f"{watermark:g}",
                event=event,
                watermark=watermark,
            )
        if self.late_policy is LatePolicy.SIDE_CHANNEL:
            self.side_channel.append(event)
        else:
            self.dropped += 1

    def take_side_channel(self) -> List[Event]:
        """Drain (return and clear) the late-event side channel.

        The runtimes expose this as ``take_late_events``; long-running jobs
        call it periodically so the side channel cannot grow without bound.
        """
        taken = self.side_channel
        self.side_channel = []
        return taken

    # -- inspection ------------------------------------------------------------

    def __len__(self) -> int:
        """Number of currently buffered events."""
        return len(self._heap)

    @property
    def watermark(self) -> float:
        """Current watermark of the underlying strategy."""
        return self.strategy.watermark()

    # -- checkpoint support ----------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Checkpointable ingestor state (buffer, strategy, late accounting)."""
        from repro.streaming.checkpoint import snapshot_event

        return {
            "strategy": {
                "class": type(self.strategy).__name__,
                "state": self.strategy.snapshot(),
            },
            "late_policy": self.late_policy.value,
            "buffered": [
                snapshot_event(entry[3]) for entry in sorted(self._heap)
            ],
            "arrivals": self._arrivals,
            "dropped": self.dropped,
            "side_channel": [snapshot_event(event) for event in self.side_channel],
        }

    def restore(self, state: Dict[str, object]) -> None:
        """Restore the state written by :meth:`snapshot`.

        The ingestor's *configuration* -- watermark strategy class and late
        policy -- must match the checkpoint: a runtime configured strictly
        (e.g. ``raise``) must not silently adopt a checkpoint's looser
        policy.  Strategy *state* (max time seen, last punctuation, and the
        recorded lateness bound) is restored.
        """
        from repro.streaming.checkpoint import restore_event

        strategy_state = state["strategy"]
        class_name = strategy_state["class"]
        if class_name != type(self.strategy).__name__:
            raise CheckpointError(
                f"checkpoint was taken with watermark strategy {class_name!r} "
                f"but this runtime uses {type(self.strategy).__name__!r}"
            )
        recorded_policy = LatePolicy(state["late_policy"])
        if recorded_policy is not self.late_policy:
            raise CheckpointError(
                f"checkpoint was taken with late policy "
                f"{recorded_policy.value!r} but this runtime is configured "
                f"with {self.late_policy.value!r}"
            )
        self.strategy.restore(strategy_state["state"])
        self._watermark = self.strategy.watermark()
        self._arrivals = int(state["arrivals"])
        self.dropped = int(state["dropped"])
        self.side_channel = [restore_event(item) for item in state["side_channel"]]
        self._heap = []
        for index, item in enumerate(state["buffered"]):
            event = restore_event(item)
            heapq.heappush(self._heap, (event.time, event.sequence, index, event))

    def __repr__(self) -> str:
        return (
            f"OutOfOrderIngestor({self.strategy!r}, policy={self.late_policy.value}, "
            f"buffered={len(self)})"
        )
