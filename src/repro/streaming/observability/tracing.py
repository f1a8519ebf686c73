"""Sampled lifecycle tracing: spans over ingest → route → execute → emit.

A :class:`Tracer` makes a **sampling decision once per trace root** (one
decision per ingested event, or per checkpoint/recovery/rebalance
operation); everything under a sampled root is recorded, everything under an
unsampled root costs a single random draw.  Spans are emitted as structured
JSONL lines with trace/span/parent ids, so a run's trace file can be grepped
by trace id to reconstruct one event's journey through the runtime::

    {"trace": "6f03…", "span": "b41c…", "parent": null, "name": "event", …}
    {"trace": "6f03…", "span": "99e2…", "parent": "b41c…", "name": "route", …}

The clock and the random source are injectable so tests are deterministic.
Tracing is parent-side only in sharded runs: worker processes execute inside
the parent's ``route`` span and report per-query latency through the metrics
registry instead (shipping spans over the acknowledgement pipes would put
serialization on the hot path).
"""

from __future__ import annotations

import io
import json
import random
import time
from typing import Any, Callable, Dict, Optional

__all__ = ["JsonlTraceSink", "Span", "Tracer"]


class Span:
    """One timed operation inside a trace; emitted to the sink on finish."""

    __slots__ = (
        "tracer",
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "started",
        "attributes",
        "_finished",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str,
        parent_id: Optional[str],
        attributes: Dict[str, Any],
    ):
        self.tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = tracer._new_id()
        self.parent_id = parent_id
        self.started = tracer._clock()
        self.attributes = attributes
        self._finished = False

    def child(self, name: str, **attributes: Any) -> "Span":
        """Start a child span in the same trace."""
        return Span(self.tracer, name, self.trace_id, self.span_id, attributes)

    def annotate(self, **attributes: Any) -> None:
        self.attributes.update(attributes)

    def finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        ended = self.tracer._clock()
        self.tracer._emit(
            {
                "trace": self.trace_id,
                "span": self.span_id,
                "parent": self.parent_id,
                "name": self.name,
                "start": self.started,
                "duration_ms": (ended - self.started) * 1000.0,
                "attrs": self.attributes,
            }
        )

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info) -> None:
        self.finish()


class JsonlTraceSink:
    """Append spans to a JSONL file (one JSON object per line)."""

    def __init__(self, path: str):
        self.path = path
        self._handle: Optional[io.TextIOBase] = open(
            path, "a", encoding="utf-8"
        )

    def __call__(self, record: dict) -> None:
        if self._handle is not None:
            self._handle.write(json.dumps(record) + "\n")

    def close(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            self._handle.close()
            self._handle = None


class Tracer:
    """Root-sampled tracer writing spans to a sink callable.

    ``sink`` may be any callable taking the span dictionary (a
    :class:`JsonlTraceSink`, a ``list.append`` in tests, ...).  A tracer
    with ``sample_rate`` 0 or no sink reports ``enabled`` False, and the
    runtime skips span creation entirely -- the disabled path costs one
    attribute check per event.
    """

    def __init__(
        self,
        sample_rate: float = 0.0,
        sink: Optional[Callable[[dict], None]] = None,
        clock: Optional[Callable[[], float]] = None,
        rng: Optional[random.Random] = None,
        namespace: Optional[Dict[str, Any]] = None,
    ):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(
                f"sample rate must be in [0, 1], got {sample_rate!r}"
            )
        self.sample_rate = sample_rate
        self.sink = sink
        self._clock = clock or time.monotonic
        self._rng = rng or random.Random()
        #: constant attributes stamped onto every root span (the job server
        #: sets ``{"job_id": ...}`` so a shared trace file filters per tenant)
        self.namespace = dict(namespace) if namespace else {}

    @property
    def enabled(self) -> bool:
        return self.sample_rate > 0.0 and self.sink is not None

    def start_trace(self, name: str, **attributes: Any) -> Optional[Span]:
        """Return a sampled root span, or ``None`` when not sampled."""
        if not self.enabled:
            return None
        if self.sample_rate < 1.0 and self._rng.random() >= self.sample_rate:
            return None
        if self.namespace:
            attributes = {**self.namespace, **attributes}
        return Span(self, name, self._new_id(), None, attributes)

    def _new_id(self) -> str:
        return f"{self._rng.getrandbits(64):016x}"

    def _emit(self, record: dict) -> None:
        if self.sink is not None:
            self.sink(record)

    def close(self) -> None:
        closer = getattr(self.sink, "close", None)
        if callable(closer):
            closer()
