"""Shared assertion helpers for the test suite."""

from __future__ import annotations

import json
import math
from typing import Dict, Iterable, List, Tuple

from repro.core.aggregate_state import TrendAccumulator
from repro.core.results import GroupResult
from repro.core.type_grained import TypeGrainedAggregator
from repro.events.event import Event
from repro.query.semantics import Semantics


def reference_record_line(record) -> str:
    """The JSON line of an emitted record, as the standard library writes it.

    ``repro.streaming.jsonl.record_to_json_line`` must write these bytes
    for anything with an ``as_dict()``.
    """
    return json.dumps(record.as_dict(), sort_keys=True, default=str)


def results_by_key(results: Iterable[GroupResult]) -> Dict[Tuple, Dict[str, object]]:
    """Index results by (window id, sorted group items) for comparison."""
    indexed: Dict[Tuple, Dict[str, object]] = {}
    for result in results:
        key = (result.window_id, tuple(sorted(result.group.items())))
        assert key not in indexed, f"duplicate result for {key}"
        indexed[key] = dict(result.values)
    return indexed


def assert_values_close(left: Dict[str, object], right: Dict[str, object], context="") -> None:
    """Compare two value mappings, tolerating floating point rounding."""
    assert left.keys() == right.keys(), f"{context}: columns differ: {left.keys()} vs {right.keys()}"
    for column in left:
        a, b = left[column], right[column]
        if isinstance(a, float) or isinstance(b, float):
            assert a is not None and b is not None, f"{context}/{column}: {a!r} vs {b!r}"
            assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9), (
                f"{context}/{column}: {a!r} != {b!r}"
            )
        else:
            assert a == b, f"{context}/{column}: {a!r} != {b!r}"


def assert_results_equal(left: Iterable[GroupResult], right: Iterable[GroupResult]) -> None:
    """Assert two result sets agree on groups, windows and aggregate values."""
    left_indexed = results_by_key(left)
    right_indexed = results_by_key(right)
    assert left_indexed.keys() == right_indexed.keys(), (
        f"result keys differ: only-left={set(left_indexed) - set(right_indexed)}, "
        f"only-right={set(right_indexed) - set(left_indexed)}"
    )
    for key in left_indexed:
        assert_values_close(left_indexed[key], right_indexed[key], context=str(key))


def total_trend_count(results: Iterable[GroupResult]) -> int:
    """Sum of COUNT(*) over all result rows."""
    return sum(result.trend_count for result in results)


def predecessors_of(plan, variable: str) -> List[str]:
    """``P.predTypes(variable)`` in pattern order: the order the recurrences
    merge predecessor cells in, so float sums do not follow the hash seed."""
    predecessors = plan.automaton.pred_types(variable)
    return [name for name in plan.automaton.variables if name in predecessors]


def reference_type_grained_process(aggregator: TypeGrainedAggregator, event: Event) -> None:
    """Algorithm 1, lines 3-8, literally: the oracle of the in-place fold.

    ``zero`` -> ``merge`` the predecessor cells -> ``extended`` by the event
    -> ``merge(singleton)`` for a start type, every new cell computed
    against the cells as they were before the event and merged afterwards.
    Three accumulators are built per binding; the production fold builds
    none and must leave the aggregator in exactly this state.
    """
    plan = aggregator.plan
    variables = plan.candidate_variables(event)
    if not variables:
        return
    aggregator.events_processed += 1
    new_cells = []
    for variable in variables:
        predecessor = TrendAccumulator.zero(plan.targets)
        for predecessor_variable in predecessors_of(plan, variable):
            predecessor.merge(aggregator.cell(predecessor_variable))
        cell = predecessor.extended(event, variable)
        if plan.is_start(variable):
            cell.merge(TrendAccumulator.singleton(event, variable, plan.targets))
        new_cells.append((variable, cell))
    for variable, cell in new_cells:
        aggregator.cell(variable).merge(cell)


# ---------------------------------------------------------------------------
# the literal recurrences of the event-storing aggregators
#
# What ``process(event)`` was in each class before the in-place
# ``process_run`` kernels: ``zero`` -> ``merge`` every predecessor cell ->
# ``extended`` by the event -> ``merge(singleton)`` for a start type, every
# binding computed against the state before the event and applied
# afterwards.  The production kernels build at most one accumulator per
# stored event and must leave the aggregator in exactly the state these do.
# ---------------------------------------------------------------------------


def _literal_cell(plan, event, variable, predecessor: TrendAccumulator) -> TrendAccumulator:
    cell = predecessor.extended(event, variable)
    if plan.is_start(variable):
        cell.merge(TrendAccumulator.singleton(event, variable, plan.targets))
    return cell


def reference_event_grained_process(aggregator, event: Event, blocked_below=None) -> None:
    """GRETA's graph insertion, literally; also the negation-event recurrence.

    ``blocked_below(predecessor_variable, variable)``, when given, is the
    number of leading stored nodes of the predecessor variable that may not
    precede an event of ``variable`` (the negation cut-off).
    """
    plan = aggregator.plan
    variables = plan.candidate_variables(event)
    if not variables:
        return
    aggregator.events_processed += 1
    staged = []
    for variable in variables:
        predecessor = TrendAccumulator.zero(plan.targets)
        for predecessor_variable in predecessors_of(plan, variable):
            skip = blocked_below(predecessor_variable, variable) if blocked_below else 0
            nodes = aggregator._event_cells[predecessor_variable]
            for position, (stored_event, stored_cell) in enumerate(nodes):
                if position < skip:
                    continue
                if plan.adjacency_satisfied(
                    stored_event, predecessor_variable, event, variable
                ):
                    predecessor.merge(stored_cell)
        staged.append((variable, _literal_cell(plan, event, variable, predecessor)))
    for variable, cell in staged:
        aggregator._event_cells[variable].append((event, cell))
        if plan.is_end(variable):
            aggregator._final.merge(cell)


def reference_mixed_grained_process(aggregator, event: Event) -> None:
    """Algorithm 2, lines 5-14, literally."""
    plan = aggregator.plan
    variables = plan.candidate_variables(event)
    if not variables:
        return
    aggregator.events_processed += 1
    staged = []
    for variable in variables:
        predecessor = TrendAccumulator.zero(plan.targets)
        for predecessor_variable in predecessors_of(plan, variable):
            if predecessor_variable in plan.type_grained:
                predecessor.merge(aggregator._type_cells[predecessor_variable])
            else:
                for stored_event, stored_cell in aggregator._event_cells[predecessor_variable]:
                    if plan.adjacency_satisfied(
                        stored_event, predecessor_variable, event, variable
                    ):
                        predecessor.merge(stored_cell)
        staged.append((variable, _literal_cell(plan, event, variable, predecessor)))
    for variable, cell in staged:
        if variable in plan.type_grained:
            aggregator._type_cells[variable].merge(cell)
        else:
            aggregator._event_cells[variable].append((event, cell))
            if plan.is_end(variable):
                aggregator._final.merge(cell)


def reference_pattern_grained_process(aggregator, event: Event, components=()) -> None:
    """Algorithm 3, lines 2-9, literally; with ``components``, Section 8's
    "the last matched event of the sub-pattern preceding N is set to null"."""
    plan = aggregator.plan
    contiguous = plan.semantics is Semantics.CONTIGUOUS

    def reset_last():
        aggregator._last_event = None
        aggregator._last_variable = None
        aggregator._last_cell = TrendAccumulator.zero(plan.targets)

    negated = [c for c in components if c.event_type == event.event_type]
    if negated:
        for component in negated:
            if aggregator._last_variable is not None and (
                aggregator._last_variable in component.prefix_variables
            ):
                reset_last()
        if contiguous:
            reset_last()  # a negated event breaks contiguity like any other
        return
    variables = plan.candidate_variables(event)
    if not variables:
        if contiguous:
            reset_last()
        return
    variable = variables[0]
    aggregator.events_processed += 1
    adjacent = (
        aggregator._last_event is not None
        and aggregator._last_variable is not None
        and plan.adjacency_satisfied(
            aggregator._last_event, aggregator._last_variable, event, variable
        )
    )
    if not (adjacent or plan.is_start(variable)):
        if contiguous:
            reset_last()
        return
    if adjacent:
        cell = aggregator._last_cell.extended(event, variable)
    else:
        cell = TrendAccumulator.zero(plan.targets)
    if plan.is_start(variable):
        cell.merge(TrendAccumulator.singleton(event, variable, plan.targets))
    if plan.is_end(variable):
        aggregator._final.merge(cell)
    aggregator._last_event = event
    aggregator._last_variable = variable
    aggregator._last_cell = cell


def reference_negation_type_grained_process(aggregator, event: Event, components) -> None:
    """Algorithm 1 with Section 8's "mark ``Tp`` invalid for ``Tf``", literally."""
    plan = aggregator.plan
    negated = [c for c in components if c.event_type == event.event_type]
    if negated:
        for component in negated:
            for variable in component.predecessor_variables:
                aggregator._compatible[(component.index, variable)] = TrendAccumulator.zero(
                    plan.targets
                )
        return
    variables = plan.candidate_variables(event)
    if not variables:
        return
    aggregator.events_processed += 1
    staged = []
    for variable in variables:
        predecessor = TrendAccumulator.zero(plan.targets)
        for predecessor_variable in predecessors_of(plan, variable):
            crossed = [
                c
                for c in components
                if predecessor_variable in c.predecessor_variables
                and variable in c.follower_variables
            ]
            if crossed:
                predecessor.merge(
                    aggregator._compatible[(crossed[0].index, predecessor_variable)]
                )
            else:
                predecessor.merge(aggregator._full[predecessor_variable])
        staged.append((variable, _literal_cell(plan, event, variable, predecessor)))
    for variable, cell in staged:
        aggregator._full[variable].merge(cell)
        for component in components:
            if variable in component.predecessor_variables:
                aggregator._compatible[(component.index, variable)].merge(cell)


def reference_negation_event_grained_process(aggregator, event: Event, components) -> None:
    """The graph insertion with Section 8's per-event incompatibility, literally."""
    negated = [c for c in components if c.event_type == event.event_type]
    if negated:
        for component in negated:
            for variable in component.predecessor_variables:
                aggregator._cutoffs[(component.index, variable)] = len(
                    aggregator._event_cells[variable]
                )
        return

    def blocked_below(predecessor_variable, variable):
        for component in components:
            if (
                predecessor_variable in component.predecessor_variables
                and variable in component.follower_variables
            ):
                return aggregator._cutoffs[(component.index, predecessor_variable)]
        return 0

    reference_event_grained_process(aggregator, event, blocked_below)


# ---------------------------------------------------------------------------
# the streaming runtime, one release -> route -> emit step per event
# ---------------------------------------------------------------------------


def _reference_route(runtime, event: Event, watermark: float, records: list) -> None:
    """Feed one in-order event to every query it concerns, in registration order."""
    for registered in runtime._queries:
        if not (
            registered.broadcast or event.event_type in registered.relevant_types
        ):
            continue
        results = registered.executor.process(event)
        instruments = registered.instruments
        instruments.observe_execution_batch(1, 0.0, 1 if results else 0)
        if results:
            emitted = runtime._controller.collect(registered.name, results, watermark)
            instruments.results.inc(len(emitted))
            records.extend(emitted)


def reference_ingest_per_push(runtime, events) -> list:
    """The literal per-push loop ``StreamingRuntime.process_batch`` stands for.

    Every event is its own step: it is pushed through the reorder buffer,
    what the push releases is fed event by event to each query in
    registration order with the push's watermark as the record stamp, and
    emission then advances to that watermark.  Accounting is per slice, as
    in the runtime.  Like ``process_batch``, a raising late policy leaves
    the records emitted so far on the error (``.records``).  No spans are
    recorded: tracing must never show in records, state or counters.
    """
    from repro.errors import LateEventError
    from repro.streaming.ingest import LatePolicy

    runtime._check_processable()
    ingestor = runtime._ingestor
    reroutes = ingestor.late_policy is LatePolicy.SIDE_CHANNEL
    records: list = []
    ingested = punctuations = released = late_dropped = late_rerouted = 0
    max_time = watermark = -math.inf
    buffered_peak = -1
    try:
        for event in events:
            try:
                batch = ingestor.push(event)
            except LateEventError as error:
                ingested += 1
                late_dropped += 1
                max_time = max(max_time, event.time)
                buffered_peak = max(buffered_peak, len(ingestor))
                error.records = records
                raise
            if batch.punctuation:
                punctuations += 1
            else:
                ingested += 1
                max_time = max(max_time, event.time)
                buffered_peak = max(buffered_peak, batch.buffered)
            if batch.late_event is not None:
                if reroutes:
                    late_rerouted += 1
                else:
                    late_dropped += 1
                continue
            released += len(batch.released)
            for ready in batch.released:
                _reference_route(runtime, ready, batch.watermark, records)
            if batch.advanced:
                watermark = batch.watermark
                runtime._advance_emission(batch.watermark, records)
    finally:
        metrics = runtime.metrics
        metrics.record_punctuation(punctuations)
        metrics.record_ingest_batch(ingested, max_time, buffered_peak)
        metrics.record_late_batch(late_dropped, late_rerouted)
        metrics.record_release(released)
        metrics.record_watermark(watermark)
        metrics.record_emission(len(records))
    return records


def reference_process_ordered(runtime, events, watermark) -> list:
    """``StreamingRuntime.process_ordered`` with every event fed on its own."""
    runtime._check_processable()
    records: list = []
    context = (
        runtime._ordered_watermark
        if watermark is None
        else max(watermark, runtime._ordered_watermark)
    )
    events = list(events)
    for event in events:
        _reference_route(runtime, event, context, records)
    if events:
        runtime.metrics.record_release(len(events))
    if watermark is not None and watermark > runtime._ordered_watermark:
        runtime._ordered_watermark = watermark
        runtime.metrics.record_watermark(watermark)
        runtime._advance_emission(watermark, records)
    runtime.metrics.record_emission(len(records))
    return records
