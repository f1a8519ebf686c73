"""The end-to-end oracle: the records every runtime configuration must emit.

A streaming job -- any worker count, slicing, plan, rebalance or recovery --
must emit, per query, exactly what :meth:`CograEngine.run` computes over the
events the job is entitled to keep.  :func:`expected_records` builds that
reference from the job's input in arrival order:

1. replay a :class:`~repro.streaming.ingest.BoundedDelayWatermark` over the
   arrivals -- exactly the test the ingestor applies -- to find the events
   a job with the ``drop`` late policy discards;
2. sort the rest by ``(time, sequence)``, arrival order breaking ties, the
   order the reorder buffer releases them in;
3. evaluate each query over them with the batch engine.

Where every ``(window, group)`` sub-stream of a query holds at most
:data:`ENUMERABLE_EVENTS` events, the engine's results are also checked
against :class:`~repro.baselines.trend_enumeration.TrendOracle`, the
declarative enumeration of Definitions 2-4 and Section 8: a reference that
disagrees with the paper's semantics raises :class:`OracleMismatch` instead
of being handed out.  ``perfbench/oracle.py`` computes its expectation by
the same recipe.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple, Union

from repro.baselines.trend_enumeration import TrendOracle
from repro.core.engine import CograEngine
from repro.core.results import GroupResult
from repro.events.event import Event
from repro.query.query import Query
from repro.streaming.emission import EmissionRecord
from repro.streaming.ingest import BoundedDelayWatermark

#: largest sub-stream the cross-check enumerates (trends grow as 2**n)
ENUMERABLE_EVENTS = 12


class OracleMismatch(AssertionError):
    """The batch engine and the trend enumeration disagree on a query."""


def accepted_events(arrivals: Iterable[Event], lateness: float) -> List[Event]:
    """The events a bounded-delay watermark accepts, in release order."""
    watermark = BoundedDelayWatermark(lateness)
    accepted = []
    for index, event in enumerate(arrivals):
        if event.time < watermark.watermark():
            continue  # late: the ``drop`` policy discards it
        watermark.observe(event)
        accepted.append((event.time, event.sequence, index, event))
    accepted.sort(key=lambda entry: entry[:3])
    return [entry[3] for entry in accepted]


def expected_records(
    queries: Iterable[Tuple[str, Union[str, Query]]],
    arrivals: Sequence[Event],
    lateness: float,
) -> List[EmissionRecord]:
    """Every ``(name, query)``'s records over ``arrivals``, watermark ``inf``.

    Raises :class:`OracleMismatch` when a query small enough to enumerate
    has a result the trend enumeration does not reproduce.
    """
    events = accepted_events(arrivals, lateness)
    records: List[EmissionRecord] = []
    for name, query in queries:
        engine = CograEngine(query)
        results = engine.run(events)
        cross_check(name, engine.query, events, results)
        records.extend(EmissionRecord(name, r, math.inf) for r in results)
    return records


def cross_check(
    name: str, query: Query, events: List[Event], results: List[GroupResult]
) -> None:
    """Compare query ``name``'s ``results`` with the enumeration if affordable."""
    oracle = TrendOracle(query)
    if any(len(part) > ENUMERABLE_EVENTS for _key, part in oracle.substreams(events)):
        return
    expected = _indexed(oracle.run(events))
    actual = _indexed(results)
    for key in sorted(expected.keys() | actual.keys(), key=repr):
        if key not in expected or key not in actual:
            agree = False
        else:
            agree = _values_agree(expected[key], actual[key])
        if not agree:
            raise OracleMismatch(
                f"{name} at (window, group) {key}: the engine computes "
                f"{actual.get(key)}, the enumeration {expected.get(key)}"
            )


def _indexed(results: Iterable[GroupResult]) -> dict:
    return {
        (result.window_id, tuple(result.group.values())): dict(result.values)
        for result in results
    }


def _values_agree(expected: dict, actual: dict) -> bool:
    """Equal values; floats up to the order of their additions."""
    if expected.keys() != actual.keys():
        return False
    for column, value in expected.items():
        other = actual[column]
        if isinstance(value, float) or isinstance(other, float):
            if value is None or other is None:
                return False
            if not math.isclose(value, other, rel_tol=1e-9, abs_tol=1e-9):
                return False
        elif value != other:
            return False
    return True
