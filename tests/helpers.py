"""Shared assertion helpers for the test suite."""

from __future__ import annotations

import math
from typing import Dict, Iterable, Tuple

from repro.core.aggregate_state import TrendAccumulator
from repro.core.results import GroupResult
from repro.core.type_grained import TypeGrainedAggregator
from repro.events.event import Event


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
        for predecessor_variable in plan.automaton.pred_types(variable):
            predecessor.merge(aggregator.cell(predecessor_variable))
        cell = predecessor.extended(event, variable)
        if plan.is_start(variable):
            cell.merge(TrendAccumulator.singleton(event, variable, plan.targets))
        new_cells.append((variable, cell))
    for variable, cell in new_cells:
        aggregator.cell(variable).merge(cell)
