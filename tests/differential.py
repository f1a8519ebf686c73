"""The differential harness's stream module: inputs, queries and the comparer.

Every runtime configuration must emit what the paper's semantics say; the
oracle that says it is :func:`repro.baselines.oracle.expected_records`.
This module is where the suite gets what it checks that with:

* :func:`stream` -- a seeded stream in arrival order, and :func:`streams`,
  its hypothesis counterpart for small kernel- and oracle-level inputs;
* :func:`workload` / :func:`workloads` -- a query set drawn from
  :data:`QUERIES` together with a stream and a lateness bound: what the
  configuration matrix (``test_differential_matrix.py``) runs;
* :func:`canonical` -- the one record comparer: order independent, the
  watermark stamp left out;
* :func:`bounded_shuffle`, :func:`slices`, :func:`build_query` and
  :func:`kill_worker`;
* :data:`HOSTILE` -- a name for whatever a query may spell (variable,
  attribute, event type, GROUP-BY attribute) that the plan's generated
  code must take as a bound constant.

The generators draw *witnesses* on purpose rather than uniform noise
(Proper, "Generating significant examples for conceptual schema
validation"): inputs that break when the rule they exercise is dropped.
:func:`witnesses` names the ones an input contains:

* ``negation`` -- a negated type (``C``) between two Kleene (``A``) events
  of one group;
* ``ties`` -- equal timestamps, ordered by their sequence numbers;
* ``edges`` -- an event on a window edge and one a float off an edge;
* ``keys`` -- ``1``, ``1.0`` and ``True``: one group in different types;
* ``count`` -- a count-windowed query;
* ``semantics`` -- contiguous, next-match and any-match count differently.
"""

from __future__ import annotations

import json
import math
import os
import random
import signal
from typing import List, NamedTuple, Set, Tuple

from hypothesis import strategies as st

from repro.core.engine import CograEngine
from repro.events.event import Event
from repro.events.stream import sort_events
from repro.query.aggregates import count_star
from repro.query.builder import QueryBuilder

#: group keys: three strings, and one group in three types (1 == 1.0 == True)
GROUPS = ("u", "v", "w", 1, 1.0, True)

#: a name that is no identifier, closes a string and a call, and opens a
#: comment: generated code that splices it into its source breaks
HOSTILE = "x'\"\n)#"

#: event types by frequency; ``C`` is negated in some queries, ``D`` in none
TYPES = "AAABBCD"

#: the slide of the catalogue's time windows: every multiple is a window edge
SLIDE = 10.0

#: the query catalogue a workload draws from; every query groups by ``g``
QUERIES = {
    # three windows overlap at every instant
    "any": (
        "RETURN g, COUNT(*), MAX(A.v) PATTERN SEQ(A+, B) "
        "SEMANTICS skip-till-any-match GROUP-BY g WITHIN 30 seconds SLIDE 10 seconds"
    ),
    "adjacent": (
        "RETURN g, COUNT(*), SUM(A.v) PATTERN SEQ(A+, B) "
        "SEMANTICS skip-till-any-match WHERE A.v < NEXT(A).v "
        "GROUP-BY g WITHIN 20 seconds SLIDE 10 seconds"
    ),
    "next": (
        "RETURN g, COUNT(*), SUM(A.v) PATTERN SEQ(A+, B) "
        "SEMANTICS skip-till-next-match GROUP-BY g WITHIN 20 seconds SLIDE 10 seconds"
    ),
    "contiguous": (
        "RETURN g, COUNT(*) PATTERN SEQ(A+, B) "
        "SEMANTICS contiguous GROUP-BY g WITHIN 20 seconds SLIDE 10 seconds"
    ),
    "negated": (
        "RETURN g, COUNT(*), MAX(B.v) PATTERN SEQ(A+, NOT C, B) "
        "SEMANTICS skip-till-any-match GROUP-BY g WITHIN 20 seconds SLIDE 10 seconds"
    ),
    "negated-next": (
        "RETURN g, COUNT(*), SUM(A.v) PATTERN SEQ(A+, NOT C, B) "
        "SEMANTICS skip-till-next-match GROUP-BY g WITHIN 20 seconds SLIDE 10 seconds"
    ),
    "count": (
        "RETURN g, COUNT(*), MIN(A.v) PATTERN SEQ(A+, B) "
        "SEMANTICS skip-till-any-match GROUP-BY g WITHIN 8 events"
    ),
}

#: the granularities each catalogue query admits (Table 4, negation
#: escalating mixed to event), coarsest -- the static plan's -- first
ADMITTED = {
    "any": ("type", "mixed", "event"),
    "adjacent": ("mixed", "event"),
    "next": ("pattern",),
    "contiguous": ("pattern",),
    "negated": ("type", "event"),
    "negated-next": ("pattern",),
    "count": ("type", "mixed", "event"),
}


def bounded_shuffle(events, disorder, seed=29):
    """``events`` in an arrival order where each slips at most ``disorder``."""
    rng = random.Random(seed)
    return sorted(
        events, key=lambda e: (e.time + rng.uniform(0.0, disorder), e.sequence)
    )


def stream(
    seed=13,
    count=200,
    *,
    types=TYPES,
    groups=GROUPS,
    span=60.0,
    grid=None,
    disorder=0.0,
    late=0.0,
):
    """A seeded stream in arrival order; ``sequence`` is the arrival index.

    ``types`` and ``groups`` are drawn uniformly per event (repeat an entry
    to weight it); ``v`` is an integer in 1..9.  Timestamps lie in
    ``[0, span)``: one in ten repeats an earlier one and one in ten sits on
    a window edge (a multiple of :data:`SLIDE`) or a float off one -- or,
    with ``grid``, every one is ``k / grid``, so that ties and the edges of
    any window are the rule.  Events arrive up to ``disorder`` seconds of
    event time late, and a ``late`` share of them 1 to 8 seconds later
    still: late for a lateness bound of ``disorder``.
    """
    rng = random.Random(seed)
    times = []
    for _ in range(count):
        roll = rng.random()
        if grid:
            time = rng.randrange(int(span * grid)) / grid
        elif times and roll < 0.1:
            time = rng.choice(times)
        elif roll < 0.2:
            edge = SLIDE * rng.randint(1, max(1, int(span // SLIDE)))
            time = rng.choice(
                [edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf)]
            )
        else:
            time = rng.uniform(0.0, span)
        times.append(time)
    ordered = sort_events(
        Event(
            rng.choice(types), time, {"g": rng.choice(groups), "v": rng.randint(1, 9)}
        )
        for time in times
    )
    if disorder or late:
        arrival = {}
        for event in ordered:
            if rng.random() < late:
                delay = rng.uniform(disorder + 1.0, disorder + 8.0)
            else:
                delay = rng.uniform(0.0, disorder)
            arrival[event.sequence] = event.time + delay
        ordered.sort(key=lambda event: (arrival[event.sequence], event.sequence))
    return [event.replace(sequence=index) for index, event in enumerate(ordered)]


@st.composite
def streams(
    draw,
    max_events=9,
    types="ABCZ",
    attribute="x",
    values=st.integers(min_value=0, max_value=5),
    groups=(0, 1, 1.0, True),
    ties=False,
):
    """A small time-ordered stream: one event per second from ``t = 1``.

    Each event's ``attribute`` is drawn from ``values`` (a ``None`` draw
    leaves it out) and ``g`` from ``groups`` (no ``g`` when empty; by
    default two groups, one of them in three types).  With
    ``ties``, an event may repeat the previous event's ``(time, sequence)``:
    neither of the two then precedes the other.
    """
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from(types),
                values,
                st.sampled_from(groups) if groups else st.none(),
                st.booleans() if ties else st.just(False),
            ),
            max_size=max_events,
        )
    )
    events = []
    for index, (event_type, value, group, tie) in enumerate(rows):
        time, sequence = float(index + 1), index
        if tie and events:
            time, sequence = events[-1].time, events[-1].sequence
        attributes = {} if value is None else {attribute: value}
        if groups:
            attributes["g"] = group
        events.append(Event(event_type, time, attributes, sequence=sequence))
    return events


class Workload(NamedTuple):
    """What a matrix cell runs: named queries, arrivals and a lateness bound."""

    queries: Tuple[Tuple[str, str], ...]
    arrivals: List[Event]
    lateness: float

    def __repr__(self) -> str:
        names = ", ".join(name for name, _ in self.queries)
        return (
            f"Workload([{names}], {len(self.arrivals)} events, "
            f"lateness={self.lateness:g})"
        )


def workload(seed, count=None, queries=None, lateness=None):
    """A seeded workload: queries from :data:`QUERIES` and a :func:`stream`.

    One workload in four has a count-windowed query, which makes a sharded
    job fall back to one shard.  The stream's disorder stays within the
    lateness bound, but in one workload in three some events arrive later
    still and are dropped.
    """
    rng = random.Random(seed)
    if queries is None:
        names = [name for name in QUERIES if name != "count"]
        queries = rng.sample(names, rng.randint(1, 3))
        if rng.random() < 0.25:
            queries.append("count")
    if lateness is None:
        lateness = rng.choice([0.0, 2.0, 5.0])
    if count is None:
        count = rng.randint(20, 120)
    arrivals = stream(
        seed,
        count,
        disorder=lateness * rng.choice([0.0, 0.5, 1.0]),
        late=rng.choice([0.0, 0.0, 0.05]),
    )
    named = tuple((name, QUERIES[name]) for name in queries)
    return Workload(named, arrivals, lateness)


def workloads(max_events=120):
    """Hypothesis strategy of :func:`workload`."""
    return st.builds(
        workload,
        seed=st.integers(min_value=0, max_value=2**20),
        count=st.integers(min_value=2, max_value=max_events),
    )


def canonical(records) -> List[str]:
    """Emitted records as sorted JSON lines, the watermark stamp left out.

    Two runs agree when these are equal: the same ``(query, window,
    group)`` rows with the same values, in any order.  A group key is
    compared by equality: ``1``, ``1.0`` and ``True`` are one group, and
    which of them names it depends on the first event a query sees -- the
    batch engine sees every event, a runtime only the types a query reads.
    ``records`` may also be rows read back from a sink file, which compare
    with each other.
    """
    return sorted(
        json.dumps(_comparable(record), sort_keys=True, default=str)
        for record in records
    )


def _comparable(record) -> dict:
    if isinstance(record, dict):  # a sink row: group and values are flat
        return {key: value for key, value in record.items() if key != "watermark"}
    result = record.result
    return {
        "query": record.query,
        "window": result.window_id,
        "group": {
            attribute: int(value) if _integral(value) else value
            for attribute, value in result.group.items()
        },
        "values": result.values,
        "trends": result.trend_count,
    }


def _integral(value) -> bool:
    """Whether ``value`` is a bool or a float equal to an ``int``."""
    return isinstance(value, bool) or (isinstance(value, float) and value.is_integer())


#: the pattern whose trend counts tell the three semantics apart
SEMANTICS_PROBE = "RETURN g, COUNT(*) PATTERN SEQ(A+, B) SEMANTICS {} GROUP-BY g"


def witnesses(work: Workload) -> Set[str]:
    """The witness kinds (see the module docstring) ``work`` contains."""
    events = sorted(work.arrivals, key=lambda event: event.order_key)
    found = set()
    if any(QUERIES["count"] == text for _, text in work.queries):
        found.add("count")
    times = [event.time for event in events]
    if len(set(times)) < len(times):
        found.add("ties")
    edges = {SLIDE * round(time / SLIDE) for time in times}
    on = any(time in edges for time in times)
    off = any(
        math.nextafter(edge, 0.0) in times or math.nextafter(edge, math.inf) in times
        for edge in edges
    )
    if on and off:
        found.add("edges")
    forms = {}
    after_c = {}
    for event in events:
        key = event.get("g")
        forms.setdefault(key, set()).add(type(key))
        if event.event_type == "C" and key in after_c:
            after_c[key] = True
        elif event.event_type == "A":
            if after_c.get(key):
                found.add("negation")
            after_c[key] = False
    if any(len(kinds) > 1 for kinds in forms.values()):
        found.add("keys")
    counts = set()
    for semantics in ("contiguous", "skip-till-next-match", "skip-till-any-match"):
        results = CograEngine(SEMANTICS_PROBE.format(semantics)).run(events)
        counts.add(sum(result.trend_count for result in results))
    if len(counts) == 3:
        found.add("semantics")
    return found


def slices(events, sizes):
    """``events`` cut into consecutive slices of the cyclic ``sizes``."""
    cut, cursor, index = [], 0, 0
    while cursor < len(events):
        size = sizes[index % len(sizes)]
        cut.append(events[cursor : cursor + size])
        cursor += size
        index += 1
    return cut


def build_query(
    pattern,
    semantics="skip-till-any-match",
    predicates=(),
    aggregates=None,
    window=None,
    group_by=(),
    name="",
):
    """A query from AST parts; ``COUNT(*)`` unless ``aggregates`` says otherwise."""
    builder = QueryBuilder(name).pattern(pattern).semantics(semantics).window(window)
    for spec in aggregates or [count_star()]:
        builder.aggregate(spec)
    for predicate in predicates:
        builder.where(predicate)
    if group_by:
        builder.group_by(*group_by)
    return builder.build()


def kill_worker(runtime, shard):
    """SIGKILL one worker process of a sharded runtime and reap it."""
    victim = runtime._procs[shard]
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(timeout=10)
