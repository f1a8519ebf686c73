"""Correctness oracle: what the job must have written, from a batch run.

An *operation* is one expected ``(query, window, group)`` record.  The
expectation is computed once per benchmark run, outside every timed section:

1. replay a :class:`~repro.BoundedDelayWatermark` over the input in arrival
   order -- exactly the test the ingestor applies -- to find which events
   the job is entitled to drop as late;
2. sort the accepted events by ``(time, arrival index)`` and evaluate each
   query over them with the batch engine, ``CograEngine.run``.

The events are built from the generator's rows, not decoded from the file,
so a decode bug cannot hide on both sides.  :func:`check` then compares a
result file against the expectation and counts missing, duplicated, extra
and altered records.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

Key = Tuple[str, int, str]

#: row keys that are emission metadata, not part of the result's value
_METADATA = ("query", "watermark")


def accepted_events(rows: List[dict], lateness: float) -> list:
    """The events a bounded-delay watermark accepts, in ``(time, index)`` order."""
    from repro import BoundedDelayWatermark, Event

    watermark = BoundedDelayWatermark(lateness)
    accepted = []
    for index, row in enumerate(rows):
        attributes = {k: v for k, v in row.items() if k not in ("type", "time")}
        event = Event(row["type"], row["time"], attributes, sequence=index)
        if event.time < watermark.watermark():
            continue  # late: the job's ``drop`` policy discards it
        watermark.observe(event)
        accepted.append(event)
    accepted.sort(key=lambda event: (event.time, event.sequence))
    return accepted


def _canonical(row: Dict[str, object]) -> str:
    # the same encoding the sink uses, so values compare after one round trip
    return json.dumps(row, sort_keys=True, default=str)


@dataclass
class Reference:
    """What a correct job writes for one input."""

    #: ``(query, window, group) -> canonical value row``
    expected: Dict[Key, str]
    #: GROUP-BY attribute names per query: how :func:`check` splits a flat
    #: output row into group and values
    group_attributes: Dict[str, tuple]


def reference(queries, rows: List[dict], lateness: float) -> Reference:
    """Evaluate every query over the accepted events with the batch engine."""
    from repro import CograEngine

    events = accepted_events(rows, lateness)
    expected: Dict[Key, str] = {}
    group_attributes: Dict[str, tuple] = {}
    for name, text in queries:
        engine = CograEngine(text)
        group_attributes[name] = tuple(engine.plan.partition_attributes)
        for result in engine.run(events):
            key = (name, result.window_id, _canonical(result.group))
            expected[key] = _canonical(json.loads(_canonical(result.as_dict())))
    return Reference(expected, group_attributes)


@dataclass
class Verdict:
    """Outcome of checking one result file against the expectation."""

    attempted: int
    missing: int = 0
    duplicated: int = 0
    extra: int = 0
    different: int = 0
    examples: List[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.missing + self.duplicated + self.extra + self.different

    @property
    def failed_ops_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def check(reference: Reference, path: Path) -> Verdict:
    """Compare the result JSONL at ``path`` with the reference.

    A file that is missing or unreadable fails every operation.
    """
    expected = reference.expected
    group_attributes = reference.group_attributes
    verdict = Verdict(attempted=len(expected))
    seen: Dict[Key, int] = {}
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as exc:
        verdict.missing = len(expected)
        verdict.examples.append(f"cannot read {path}: {exc}")
        return verdict
    with handle:
        for number, line in enumerate(handle, start=1):
            try:
                row = json.loads(line)
                name = row["query"]
                group = {a: row[a] for a in group_attributes[name]}
                key = (name, row["window_id"], _canonical(group))
            except (ValueError, KeyError, TypeError) as exc:
                verdict.extra += 1
                _note(verdict, f"line {number} is not a result record: {exc!r}")
                continue
            count = seen.get(key, 0)
            seen[key] = count + 1
            if key not in expected:
                verdict.extra += 1
                _note(verdict, f"line {number}: unexpected record {key}")
            elif count:
                verdict.duplicated += 1
                _note(verdict, f"line {number}: duplicate of {key}")
            else:
                value = _canonical({k: v for k, v in row.items() if k not in _METADATA})
                if value != expected[key]:
                    verdict.different += 1
                    _note(verdict, f"line {number}: {key} is {value}, expected {expected[key]}")
    for key in expected:
        if key not in seen:
            verdict.missing += 1
            _note(verdict, f"missing record {key}")
    return verdict


def _note(verdict: Verdict, message: str) -> None:
    if len(verdict.examples) < 5:
        verdict.examples.append(message)
