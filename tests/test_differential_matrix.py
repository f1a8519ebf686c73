"""The configuration matrix: every runtime configuration emits the oracle's records.

A cell takes one value on each axis:

* slicing -- the source is pulled 1 event, 7 events or the whole stream at
  a time;
* workers -- 1 (in-process runtime) or 2 (sharded);
* plan -- as planned, every query forced to an allowed granularity, or a
  forced replan of one query at a drawn index;
* rebalance -- off, or every slot holding a group moved to the other worker
  at a drawn index;
* fault -- none, a SIGKILL of one worker (``max_restarts=1``) at a drawn
  index, or a checkpoint there restored into the other worker count;
* host -- the in-process :class:`~repro.streaming.config.Job` or a
  :class:`~repro.streaming.server.JobServer`.

Hypothesis samples (workload, cell) pairs from :mod:`differential`; every
cell's :func:`~differential.canonical` records must equal those of
:func:`~repro.baselines.oracle.expected_records`, which on small inputs also
checks itself against the trend enumeration.  The ``@example``\\ s pin the
thin spots.  A new axis is one more :class:`Cell` field, drawn in
:func:`cells` and applied in :func:`run_cell`.
"""

import functools
import json
import math
import random
import tempfile
import warnings
from collections import Counter
from pathlib import Path
from typing import NamedTuple, Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from differential import (
    QUERIES,
    Workload,
    canonical,
    kill_worker,
    stream,
    witnesses,
    workload,
    workloads,
)
from repro.baselines.oracle import (
    OracleMismatch,
    accepted_events,
    cross_check,
    expected_records,
)
from repro.core.engine import CograEngine
from repro.events.event import Event
from repro.streaming.config import Job, ServerConfig
from repro.streaming.jsonl import write_jsonl_events
from repro.streaming.replan import engine_allowed_granularities
from repro.streaming.server import DONE, JobServer


class Cell(NamedTuple):
    """One configuration; the ``*_at`` indices are taken modulo the stream."""

    slicing: Optional[int]
    workers: int
    plan: str
    rebalance: bool
    fault: Optional[str]
    host: str
    replan_at: int = 1
    move_at: int = 1
    fault_at: int = 1
    seed: int = 0


@st.composite
def cells(draw):
    workers = draw(st.sampled_from([1, 2]))
    host = draw(st.sampled_from(["job", "server"]))
    faults = [None, "kill"] if workers == 2 else [None]
    if host == "job":
        faults.append("restore")
    index = st.integers(min_value=1, max_value=10**6)
    return Cell(
        slicing=draw(st.sampled_from([1, 7, None])),
        workers=workers,
        plan=draw(st.sampled_from(["planned", "forced", "replan"])),
        rebalance=workers == 2 and draw(st.booleans()),
        fault=draw(st.sampled_from(faults)),
        host=host,
        replan_at=draw(index),
        move_at=draw(index),
        fault_at=draw(index),
        seed=draw(st.integers(min_value=0, max_value=10**6)),
    )


def allowed(text):
    return [g.value for g in engine_allowed_granularities(CograEngine(text))]


def job_config(work, cell, forced):
    return {
        "queries": [
            {"text": text, "name": name, "granularity": forced.get(name)}
            for name, text in work.queries
        ],
        "watermark": {"lateness": work.lateness},
        "late": {"policy": "drop"},
        "batch": {"decode_batch_size": cell.slicing or len(work.arrivals)},
        "shards": {"workers": cell.workers, "max_restarts": int(cell.fault == "kill")},
    }


def at(work, index):
    """A drawn index as a position inside the stream, past its first event."""
    return 1 + index % (len(work.arrivals) - 1)


def hooks_of(work, cell):
    """``[(event index, action(runtime))]``: the cell's mid-stream operations."""
    rng = random.Random(cell.seed)
    hooks = []
    if cell.plan == "replan":
        # a query that can move off its planned granularity, and where to
        movable = [
            (name, [g for g in allowed(text) if g != CograEngine(text).granularity])
            for name, text in work.queries
        ]
        movable = [(name, targets) for name, targets in movable if targets]
        if movable:
            name, targets = rng.choice(movable)
            target = rng.choice(targets)
            hooks.append(
                (
                    at(work, cell.replan_at),
                    lambda runtime: runtime.migrate_granularity(name, target),
                )
            )
    if cell.rebalance:
        keys = {(event.get("g"),) for event in work.arrivals}

        def move(runtime):
            # a restore may have resumed on one worker; a count window
            # runs one shard
            if getattr(runtime, "shard_count", 1) > 1:
                router = runtime._router
                slots = sorted({router.slot_of(key) for key in keys})
                runtime.rebalance([(s, 1 - router.assignment[s]) for s in slots])

        hooks.append((at(work, cell.move_at), move))
    if cell.fault == "kill":
        shard = rng.randrange(2)
        hooks.append(
            (
                at(work, cell.fault_at),
                lambda runtime: kill_worker(runtime, shard % runtime.shard_count),
            )
        )
    return hooks


def install(session, runtime, hooks):
    """Run each hook's action right before the event at its index steps.

    A hook inside a pulled slice splits the slice there: how a stream is
    sliced never changes what a job emits.
    """
    step = session.step
    due = sorted(hooks, key=lambda hook: hook[0], reverse=True)
    stepped = 0

    def hooked(batch):
        nonlocal stepped
        start = 0
        while due and due[-1][0] < stepped + len(batch):
            index, hook = due.pop()
            cut = max(index - stepped, start)
            yield from step(batch[start:cut])
            hook(runtime)
            start = cut
        stepped += len(batch)
        yield from step(batch[start:])

    session.step = hooked


def run_job(config, events, hooks):
    running = Job(config, events=events).start()
    install(running.session, running.runtime, hooks)
    return running.results()


def run_restored(config, work, cell, hooks):
    """Checkpoint at ``fault_at``, stop, and resume on the other worker count."""
    cut = at(work, cell.fault_at)
    first = Job(config, events=work.arrivals[:cut]).start()
    install(first.session, first.runtime, [hook for hook in hooks if hook[0] < cut])
    records = []
    for batch in first.session.batches():
        records.extend(first.session.step(batch))
    snapshot = json.loads(json.dumps(first.checkpoint()))
    records.extend(first.runtime.drain_pending())
    first.stop()
    resumed = dict(
        config,
        shards=dict(config["shards"], workers=3 - cell.workers),
        # adopt the granularity a replan left in the checkpoint
        replan={"enabled": True, "check_interval_events": 10**9},
    )
    second = Job(resumed, events=work.arrivals[cut:]).start()
    second.runtime.restore(snapshot)
    install(
        second.session,
        second.runtime,
        [(index - cut, action) for index, action in hooks if index >= cut],
    )
    return records + second.results()


def run_hosted(config, work, hooks):
    with tempfile.TemporaryDirectory() as directory:
        source = Path(directory) / "arrivals.jsonl"
        with open(source, "w", encoding="utf-8") as handle:
            write_jsonl_events(work.arrivals, handle)
        server = JobServer(ServerConfig(dir=directory))
        try:
            job_id = server.submit(dict(config, source={"spec": str(source)}))
            hosted = server._jobs[job_id].pipeline
            install(hosted.session, hosted.runtime, hooks)
            server.start()
            status = server.wait(job_id, timeout=120.0)
            assert status["state"] == DONE, status
            return server.results(job_id)
        finally:
            server.close()


def run_cell(work: Workload, cell: Cell):
    rng = random.Random(cell.seed)
    forced = {}
    if cell.plan == "forced":
        forced = {name: rng.choice(allowed(text)) for name, text in work.queries}
    config = job_config(work, cell, forced)
    hooks = hooks_of(work, cell)
    with warnings.catch_warnings():
        # a count window makes a 2-worker job fall back to one shard
        warnings.simplefilter("ignore", RuntimeWarning)
        if cell.host == "server":
            return run_hosted(config, work, hooks)
        if cell.fault == "restore":
            return run_restored(config, work, cell, hooks)
        return run_job(config, work.arrivals, hooks)


class TestMatrix:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(work=workloads(), cell=cells())
    @example(  # a count window through the sharded single-shard fallback
        work=workload(3, count=60, queries=["count", "any"], lateness=2.0),
        cell=Cell(7, 2, "planned", False, "kill", "job", fault_at=31),
    )
    @example(  # a replan under negation
        work=workload(3, count=24, queries=["negated", "negated-next"]),
        cell=Cell(1, 1, "replan", False, None, "job", replan_at=11),
    )
    @example(  # a restore across worker counts after a replan
        work=workload(8, count=90, queries=["any", "adjacent"], lateness=5.0),
        cell=Cell(7, 2, "replan", False, "restore", "job", replan_at=30, fault_at=60),
    )
    @example(  # a live rebalance while three overlapping windows are open
        work=workload(13, count=100, queries=["any"], lateness=0.0),
        cell=Cell(1, 2, "planned", True, None, "job", move_at=55),
    )
    def test_every_cell_emits_the_oracles_records(self, work, cell):
        expected = expected_records(work.queries, work.arrivals, work.lateness)
        assert canonical(run_cell(work, cell)) == canonical(expected)


@functools.lru_cache(maxsize=None)
def witnesses_over_fifty_seeds():
    seen = Counter()
    for seed in range(50):
        seen.update(witnesses(workload(seed)))
    return seen


class TestWitnesses:
    @pytest.mark.parametrize(
        "kind", ["negation", "ties", "edges", "keys", "count", "semantics"]
    )
    def test_witness_kind_occurs_in_ten_of_fifty_seeds(self, kind):
        seen = witnesses_over_fifty_seeds()
        assert seen[kind] >= 10, seen

    def test_no_other_kind_is_reported(self):
        kinds = {"negation", "ties", "edges", "keys", "count", "semantics"}
        assert set(witnesses_over_fifty_seeds()) <= kinds


def event(event_type, time, sequence, g="x", v=1):
    return Event(event_type, time, {"g": g, "v": v}, sequence=sequence)


class TestOracle:
    def test_an_event_behind_the_watermark_on_arrival_is_dropped(self):
        arrivals = [event("A", 10.0, 0), event("A", 4.0, 1), event("B", 6.0, 2)]
        # the watermark is 10 - 5 once the first event arrives: the one at
        # 4.0 is late, the one at 6.0 is not
        assert accepted_events(arrivals, 5.0) == [arrivals[2], arrivals[0]]
        assert accepted_events(arrivals, 6.0) == [arrivals[1], arrivals[2], arrivals[0]]

    def test_release_order_is_time_then_sequence_then_arrival(self):
        tied = event("A", 3.0, 7, v=1)
        twin = event("A", 3.0, 7, v=2)
        arrivals = [event("B", 3.0, 9), twin, tied, event("A", 1.0, 12)]
        assert accepted_events(arrivals, 5.0) == [arrivals[3], twin, tied, arrivals[0]]

    def test_records_are_the_engines_results_under_the_query_names(self):
        work = workload(4, count=40, queries=["any", "next"], lateness=2.0)
        records = expected_records(work.queries, work.arrivals, work.lateness)
        accepted = accepted_events(work.arrivals, work.lateness)
        for name, text in work.queries:
            mine = [record for record in records if record.query == name]
            assert [record.result for record in mine] == CograEngine(text).run(accepted)
            assert all(record.watermark == math.inf for record in mine)

    def test_cross_check_rejects_a_result_the_enumeration_disagrees_with(self):
        query = CograEngine(QUERIES["any"]).query
        events = stream(2, 30, groups="xyz")
        results = CograEngine(query).run(events)
        cross_check("any", query, events, results)  # agrees
        results[0].values["COUNT(*)"] += 1
        with pytest.raises(OracleMismatch, match="any at"):
            cross_check("any", query, events, results)
        with pytest.raises(OracleMismatch, match="the enumeration"):
            cross_check("any", query, events, results[1:])

    def test_cross_check_tolerates_float_rounding_only(self):
        query = CograEngine(
            "RETURN g, AVG(A.v) PATTERN SEQ(A+, B) GROUP-BY g WITHIN 20 seconds "
            "SLIDE 10 seconds"
        ).query
        events = stream(2, 30, groups="xyz")
        results = CograEngine(query).run(events)
        column = "AVG(A.v)"
        result = next(r for r in results if r.values[column] is not None)
        result.values[column] *= 1 + 1e-12
        cross_check("avg", query, events, results)
        result.values[column] += 0.5
        with pytest.raises(OracleMismatch):
            cross_check("avg", query, events, results)

    @pytest.mark.parametrize("reason", ["count window", "large sub-stream"])
    def test_cross_check_skips_what_it_cannot_enumerate(self, reason):
        if reason == "count window":
            query = CograEngine(QUERIES["count"]).query
            events = stream(2, 30, groups="xyz")
        else:
            query = CograEngine(QUERIES["any"]).query
            # 16 events of one group in every window: past the 12 enumerated
            events = stream(2, 16, groups="x", span=10.0)
        results = CograEngine(query).run(events)
        results[0].values["COUNT(*)"] += 1
        cross_check("q", query, events, results)  # not compared: no error
