"""Edge values through every shape of generated fold, against the literal recurrences.

Each plan generates its folds from one template of the recurrence's
per-target arithmetic (:class:`repro.core.type_grained.Recurrence`).  One
case per generated shape -- Algorithm 1's Kleene self-loop (also with a
target on another variable, which takes the self-loop's non-own branch) and
fixed predecessors (also a negated query's, which read and write the
compatible cells), Algorithm 2's fused scan (plain and past Section 8's
cut-offs) and Algorithm 3's pattern step -- is fed ``-0.0``, ``±inf``,
``NaN``, ``1e308`` and missing values, and compared after every run with
the literal recurrence kept in ``tests/helpers.py`` as checkpoint JSON,
where ``NaN`` equals ``NaN``.  A run of ``1e308`` values long enough to
outgrow the float range saturates the sums.  No sum slot may ever hold
``-0.0``: the self-loop reads a sum slot where the recurrence reads
``0 + slot``.
"""

import json
import math
import random

import pytest

from helpers import (
    reference_event_grained_process,
    reference_mixed_grained_process,
    reference_negation_event_grained_process,
    reference_negation_type_grained_process,
    reference_pattern_grained_process,
    reference_type_grained_process,
)
from repro.analyzer.plan import plan_query
from repro.core.base import create_aggregator
from repro.events.event import Event
from repro.query.parser import parse_query
from repro.streaming.checkpoint import snapshot_aggregator

INF = float("inf")
#: what the events carry: every float edge value, integers, and nothing
EDGES = [-0.0, 0.0, INF, -INF, float("nan"), 1e308, -1e308, None, 0, 1, -2, 2.5, 5e-324]

ALL = "COUNT(*), COUNT(A), SUM(A.v), AVG(A.v), MIN(A.v), MAX(A.v)"


class Case:
    """A query whose plan generates ``shape`` for ``variable``."""

    def __init__(self, shape, variable, pattern, returns, semantics="any", where=None,
                 forced=None, reference=None):
        self.shape = shape
        self.variable = variable
        self.text = f"RETURN {returns} PATTERN {pattern} SEMANTICS {semantics}"
        if where:
            self.text += f" WHERE {where}"
        self.forced = forced
        self.reference = reference

    def __repr__(self):
        return f"{self.shape}: {self.text}"

    def build(self):
        """``(plan, make, reference)`` as in ``test_event_storing_folds``."""
        plan = plan_query(parse_query(self.text), forced_granularity=self.forced)

        def make():
            return create_aggregator(plan)

        if plan.negations is not None:

            def literal(aggregator, event):
                self.reference(aggregator, event, plan.negations.components)

        else:
            literal = self.reference

        def reference(aggregator, event):
            if plan.bind(event) is not None:
                literal(aggregator, event)

        return plan, make, reference


CASES = [
    Case("self-loop", "A", "A+", ALL, reference=reference_type_grained_process),
    # A's self-loop carries targets on B: its non-own branch
    Case("self-loop", "A", "SEQ(A+, B)", "COUNT(*), SUM(B.v), AVG(B.v), MAX(B.v)",
         reference=reference_type_grained_process),
    Case("fixed predecessors", "A", "(SEQ(A+, B))+",
         "COUNT(*), SUM(A.v), MIN(A.v), AVG(B.v), MAX(B.v)",
         reference=reference_type_grained_process),
    Case("scanned", "A", "SEQ(A+, B)", "COUNT(*), SUM(A.v), MIN(A.v), MAX(B.v), AVG(B.v)",
         forced="event", reference=reference_event_grained_process),
    # != admits NaN on either side: the scan must decide it as the predicate does
    Case("scanned", "A", "SEQ(A+, B)", "COUNT(*), SUM(A.v), MAX(A.v), SUM(B.v)",
         where="A.v != NEXT(A).v", reference=reference_mixed_grained_process),
    Case("scanned", "B", "SEQ(A+, NOT C, B)", "COUNT(*), SUM(A.v), MIN(B.v), AVG(A.v)",
         forced="event", reference=reference_negation_event_grained_process),
    Case("pattern", "A", "(SEQ(A+, B))+", ALL, semantics="next",
         reference=reference_pattern_grained_process),
    Case("pattern", "A", "A+", "COUNT(*), SUM(A.v), MIN(A.v), MAX(A.v)",
         semantics="contiguous", where="A.v <= NEXT(A).v",
         reference=reference_pattern_grained_process),
    Case("fixed predecessors", "B", "SEQ(A+, NOT C, B)",
         "COUNT(*), SUM(A.v), MAX(A.v), AVG(B.v)",
         reference=reference_negation_type_grained_process),
    # A's Kleene step also writes A's compatible cell
    Case("fixed predecessors", "A", "SEQ(A+, NOT C, B)", ALL,
         reference=reference_negation_type_grained_process),
]


def state_of(aggregator):
    """The checkpoint JSON: floats bit for bit, ``NaN`` written as ``NaN``."""
    return json.dumps(snapshot_aggregator(aggregator))


def sums_of(state):
    """Every sum slot in a snapshot."""
    if isinstance(state, dict):
        if "states" in state and "trend_count" in state:
            return [target[1] for target in state["states"]]
        return [value for item in state.values() for value in sums_of(item)]
    if isinstance(state, list):
        return [value for item in state for value in sums_of(item)]
    return []


def trend_counts_of(state):
    """Every trend count in a snapshot."""
    if isinstance(state, dict):
        counts = [state["trend_count"]] if "trend_count" in state else []
        return counts + [value for item in state.values() for value in trend_counts_of(item)]
    if isinstance(state, list):
        return [value for item in state for value in trend_counts_of(item)]
    return []


def assert_no_negative_zero_sum(aggregator):
    for value in sums_of(snapshot_aggregator(aggregator)):
        assert not (value == 0 and math.copysign(1.0, value) < 0), "a sum slot holds -0.0"


def edge_stream(seed, count, types="AAABC"):
    rng = random.Random(seed)
    return [
        Event(
            rng.choice(types),
            float(index),
            {} if value is None else {"v": value},
            sequence=index,
        )
        for index, value in ((index, rng.choice(EDGES)) for index in range(count))
    ]


def bound(plan, events):
    run = []
    for event in events:
        binding = plan.bind(event)
        if binding is not None:
            run.append((event, binding))
    return run


def fold_and_compare(case, events, cuts):
    """Fold ``events`` in runs of ``cuts`` sizes, from the second run on
    fanned out to a window opened there, against the recurrence."""
    plan, make, reference = case.build()
    folded, later, oracle, later_oracle = make(), make(), make(), make()
    position = 0
    number = 0
    while position < len(events):
        run = events[position:position + cuts[number % len(cuts)]]
        if number >= 1:
            folded.process_run(bound(plan, run), [later])
            for event in run:
                reference(later_oracle, event)
        else:
            folded.process_run(bound(plan, run))
        for event in run:
            reference(oracle, event)
        assert state_of(folded) == state_of(oracle)
        assert state_of(later) == state_of(later_oracle)
        assert_no_negative_zero_sum(folded)
        assert_no_negative_zero_sum(later)
        position += len(run)
        number += 1
    assert folded.events_processed == oracle.events_processed
    return plan, folded


@pytest.mark.parametrize("case", CASES, ids=repr)
class TestEdgeValues:
    def test_the_plan_generates_the_shape(self, case):
        plan, _make, _reference = case.build()
        assert plan.kernel_shape(case.variable) == case.shape

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_edge_values_fold_as_the_recurrence(self, case, seed):
        fold_and_compare(case, edge_stream(seed, 60), [1, 4, 2, 7])

    def test_huge_values_saturate_as_the_recurrence(self, case):
        # past 2**1024 trends of A+ the multiplicity no longer converts to a
        # float (the pattern-grained trend counts grow linearly: there the
        # sums overflow); the values increase, so every edge admits each pair
        rows = ["A"] * 1030 + ["B", "C", "A", "B"]
        events = [
            Event(kind, float(index), {"v": 1e308 * (0.5 + index * 1e-4)}, sequence=index)
            for index, kind in enumerate(rows)
        ]
        _plan, folded = fold_and_compare(case, events, [97, 3, 250])
        state = snapshot_aggregator(folded)
        assert INF in sums_of(state)
        if case.shape != "pattern":
            assert max(trend_counts_of(state)) > 2 ** 1024
