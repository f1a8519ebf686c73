"""JSON-lines event ingestion and result emission (CLI wire format).

The ``cogra stream`` subcommand reads one JSON object per line, e.g.::

    {"type": "Stock", "time": 3.0, "company": "IBM", "price": 101.5}
    {"type": "Watermark", "time": 10.0}

and writes one JSON object per emitted result.  The format is deliberately
forgiving about where attributes live: they may be nested under an
``"attributes"`` key or given as extra top-level keys, and ``"event_type"``
is accepted as an alias of ``"type"``.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Iterable, Iterator, List, Optional, TextIO, Union

from repro.errors import InvalidEventError, SourceError
from repro.events.event import Event
from repro.streaming.emission import EmissionRecord

#: top-level keys that describe the event itself rather than its attributes
_RESERVED_KEYS = frozenset({"type", "event_type", "time", "sequence", "attributes"})


def event_from_json(obj: Dict[str, object], default_sequence: int = 0) -> Event:
    """Build an event from one decoded JSON object.

    ``default_sequence`` is used when the object carries no ``"sequence"``
    field; :func:`read_jsonl_events` passes the arrival index so that
    equal-timestamp events keep a strict total order (the same order
    :func:`~repro.events.stream.sort_events` would assign), which the
    executors' adjacency checks rely on.
    """
    if not isinstance(obj, dict):
        raise InvalidEventError(f"JSONL event must be a JSON object, got {obj!r}")
    event_type = obj.get("type", obj.get("event_type"))
    if not isinstance(event_type, str):
        raise InvalidEventError(
            f"JSONL event needs a string 'type' (or 'event_type') field, got {obj!r}"
        )
    if "time" not in obj:
        raise InvalidEventError(f"JSONL event needs a 'time' field, got {obj!r}")
    nested = obj.get("attributes")
    if nested is None:
        nested = {}
    elif not isinstance(nested, dict):
        # checked before the falsy fallback so an empty array/string fails
        # as loudly as a non-empty one would
        raise InvalidEventError(
            f"JSONL event 'attributes' must be an object, got {nested!r}"
        )
    attributes = dict(nested)
    for key, value in obj.items():
        if key not in _RESERVED_KEYS:
            attributes[key] = value
    raw_sequence = obj.get("sequence")
    try:
        time = float(obj["time"])
        sequence = default_sequence if raw_sequence is None else int(raw_sequence)
    except (TypeError, ValueError) as exc:
        raise InvalidEventError(
            f"JSONL event has a non-numeric 'time' or 'sequence': {obj!r}"
        ) from exc
    except OverflowError as exc:
        # an integer too large for a float, an infinite sequence
        raise InvalidEventError(
            f"JSONL event 'time' or 'sequence' is out of range: {obj!r}"
        ) from exc
    if not math.isfinite(time) or time < 0:
        # a NaN timestamp would sit at the reorder-buffer heap head and
        # block every later event forever; reject it loudly instead
        raise InvalidEventError(
            f"JSONL event 'time' must be a finite non-negative number: {obj!r}"
        )
    return Event(event_type, time, attributes, sequence=sequence)


def event_to_json(event: Event) -> Dict[str, object]:
    """The JSON object representation of ``event``.

    The ``sequence`` is always written (even when 0) so that reading the
    line back reproduces the event exactly instead of assigning a fresh
    arrival index.
    """
    obj: Dict[str, object] = {
        "type": event.event_type,
        "time": event.time,
        "sequence": event.sequence,
    }
    if event.attributes:
        obj["attributes"] = dict(event.attributes)
    return obj


def parse_jsonl_line(
    line: str, default_sequence: int = 0, line_number: Optional[int] = None
) -> Optional[Event]:
    """Parse one JSONL line into an event; ``None`` for blanks and comments.

    The single place the line-level wire rules live -- blank/``#`` skipping,
    JSON decoding, arrival-index sequencing -- shared by
    :func:`read_jsonl_events` (static files) and
    :class:`~repro.streaming.sources.JsonlFileTailSource` (growing files),
    so the two paths cannot drift apart.
    """
    line = line.strip()
    if not line or line.startswith("#"):
        return None
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        where = "line" if line_number is None else f"line {line_number}"
        raise InvalidEventError(f"{where} is not valid JSON: {exc}") from exc
    return event_from_json(obj, default_sequence=default_sequence)


def read_jsonl_events(lines: Union[TextIO, Iterable[str]]) -> Iterator[Event]:
    """Yield events from an iterable of JSONL lines (blank lines skipped).

    Events without an explicit ``"sequence"`` field receive their arrival
    index, so equal timestamps stay strictly ordered exactly as
    :func:`~repro.events.stream.sort_events` would order them.
    """
    index = 0
    for line_number, line in enumerate(lines, start=1):
        event = parse_jsonl_line(line, default_sequence=index, line_number=line_number)
        if event is None:
            continue
        yield event
        index += 1


#: the stdlib scanner ``json.loads`` drives, without the frames around it
_scan_json = json.JSONDecoder().scan_once

#: integer times up to here convert to a float without overflowing
_LARGEST_INT_TIME = 1 << 1023


def read_jsonl_event_batches(
    lines: Union[TextIO, Iterable[str]], batch_size: int
) -> Iterator[List[Event]]:
    """Yield events in lists of up to ``batch_size``; ≡ :func:`read_jsonl_events`.

    The stream of events -- order, sequence assignment (only real events
    consume arrival indexes), blank/comment skipping, and error messages --
    is identical to the per-event reader; only the delivery granularity
    changes.  The typical line -- one JSON object with a string ``"type"``,
    a finite non-negative numeric ``"time"``, flat top-level attributes and
    an integer or absent ``"sequence"`` -- is scanned once and its freshly
    parsed dict, minus those three keys, becomes the event's attributes
    (:meth:`Event.from_wire`).  Any other line is parsed again from scratch
    by :func:`parse_jsonl_line`, which accepts it or raises exactly what the
    per-line reader would.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size!r}")
    scan = _scan_json
    from_wire = Event.from_wire
    infinity = math.inf
    index = 0
    batch: List[Event] = []
    append = batch.append
    for line_number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        event = None
        try:
            obj, end = scan(stripped, 0)
        except (StopIteration, ValueError):
            obj = None
        if type(obj) is dict and end == len(stripped):
            event_type = obj.pop("type", None)
            time = obj.pop("time", None)
            sequence = obj.pop("sequence", None)
            if type(time) is int and 0 <= time < _LARGEST_INT_TIME:
                time = float(time)
            if (
                type(event_type) is str
                and type(time) is float
                and 0.0 <= time < infinity  # rejects NaN too
                and (sequence is None or type(sequence) is int)
                and "attributes" not in obj
                and "event_type" not in obj
            ):
                event = from_wire(
                    event_type, time, obj, index if sequence is None else sequence
                )
        if event is None:
            event = parse_jsonl_line(stripped, index, line_number)
        append(event)
        index += 1
        if len(batch) >= batch_size:
            yield batch
            batch = []
            append = batch.append
    if batch:
        yield batch


def write_jsonl_events(events: Iterable[Event], handle: TextIO) -> int:
    """Write events as JSONL; return the number of lines written."""
    written = 0
    for event in events:
        handle.write(json.dumps(event_to_json(event), sort_keys=True) + "\n")
        written += 1
    return written


#: ``json.dumps(..., sort_keys=True, default=str)``'s encoder, built once
#: instead of once per call
_ENCODER = json.JSONEncoder(sort_keys=True, default=str)


def record_to_json_line(record: EmissionRecord) -> str:
    """One emitted result as a compact JSON line.

    Byte for byte ``json.dumps(record.as_dict(), sort_keys=True,
    default=str)``, for anything with an ``as_dict()``.  A value past
    CPython's int-to-str digit limit (a trend count of more than 4,300
    digits, by default) raises :class:`~repro.errors.SourceError` naming
    the record's query.
    """
    try:
        return _ENCODER.encode(record.as_dict())
    except ValueError as exc:
        query = getattr(record, "query", None)
        raise SourceError(
            f"cannot write a result of query {query!r} as JSON: it holds an "
            f"integer past Python's int-to-str digit limit; raise the limit "
            f"with sys.set_int_max_str_digits() before the job starts"
        ) from exc
