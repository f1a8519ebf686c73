"""Kleene-pattern flattening for systems without Kleene closure.

Industrial streaming systems (Flink, Esper, Oracle Stream Analytics) and
A-Seq support only fixed-length event sequences.  Following the paper's
experimental setup, a Kleene query is therefore rewritten into a *workload*
of fixed-length sequence queries that covers every possible trend length up
to the longest match.

A flattened variant is a list of positions; each position carries the event
type it matches and the *base variable* of the original pattern it stems
from (so that predicates and aggregates can still be resolved).  The same
shape is never produced twice, which keeps the union of the variants'
results equal to the Kleene query's results.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import ExecutionAbortedError, UnsupportedQueryError
from repro.query.ast import (
    Disjunction,
    EventTypePattern,
    KleenePlus,
    KleeneStar,
    OptionalPattern,
    Pattern,
    Sequence as SequencePattern,
)

#: One position of a flattened sequence: (event type, base variable).
Position = Tuple[str, str]
#: One flattened fixed-length sequence query.
Variant = Tuple[Position, ...]


def flatten_pattern(
    pattern: Pattern, max_repetitions: int, max_variants: int = 100_000
) -> List[Variant]:
    """Expand ``pattern`` into fixed-length variants.

    Parameters
    ----------
    pattern:
        The (possibly Kleene) pattern to flatten.
    max_repetitions:
        Upper bound on the number of repetitions of each Kleene sub-pattern
        (the paper determines it from the longest possible match of the
        window).
    max_variants:
        Safety valve: exceeding it raises
        :class:`~repro.errors.ExecutionAbortedError`, which the benchmark
        harness reports as a "did not terminate" data point.
    """
    variants = _flatten(pattern, max_repetitions, max_variants)
    unique: dict = {}
    for variant in variants:
        if variant:
            unique.setdefault(variant, None)
    return list(unique)


def _flatten(pattern: Pattern, max_repetitions: int, max_variants: int) -> List[Variant]:
    if isinstance(pattern, EventTypePattern):
        return [((pattern.event_type, pattern.variable),)]

    if isinstance(pattern, SequencePattern):
        variants: List[Variant] = [()]
        for part in pattern.parts:
            part_variants = _flatten(part, max_repetitions, max_variants)
            combined: List[Variant] = []
            for prefix in variants:
                for suffix in part_variants:
                    combined.append(prefix + suffix)
                    _check_budget(combined, max_variants)
            variants = combined
        return variants

    if isinstance(pattern, (KleenePlus, KleeneStar)):
        inner = _flatten(pattern.inner, max_repetitions, max_variants)
        inner = [variant for variant in inner if variant]
        variants: List[Variant] = [()] if isinstance(pattern, KleeneStar) else []
        frontier: List[Variant] = [variant for variant in inner]
        repetitions = 1
        while frontier and repetitions <= max_repetitions:
            variants.extend(frontier)
            _check_budget(variants, max_variants)
            repetitions += 1
            if repetitions > max_repetitions:
                break
            next_frontier: List[Variant] = []
            for prefix in frontier:
                for suffix in inner:
                    next_frontier.append(prefix + suffix)
                    _check_budget(next_frontier, max_variants)
            frontier = next_frontier
        return variants

    if isinstance(pattern, OptionalPattern):
        return [()] + _flatten(pattern.inner, max_repetitions, max_variants)

    if isinstance(pattern, Disjunction):
        variants: List[Variant] = []
        for alternative in pattern.alternatives:
            variants.extend(_flatten(alternative, max_repetitions, max_variants))
            _check_budget(variants, max_variants)
        return variants

    raise UnsupportedQueryError(f"cannot flatten pattern node {type(pattern).__name__}")


def _check_budget(variants: List[Variant], max_variants: int) -> None:
    if len(variants) > max_variants:
        raise ExecutionAbortedError(
            f"flattening produced more than {max_variants} fixed-length queries",
            events_processed=len(variants),
        )


def longest_possible_repetition(pattern: Pattern, events) -> int:
    """Number of repetitions needed to cover the longest possible match.

    The bound is the largest number of events in the sub-stream that can be
    bound to any single variable occurring under a Kleene operator -- a
    Kleene sub-pattern can never repeat more often than that.
    """
    kleene_variables = set()
    for node in pattern.walk():
        if isinstance(node, (KleenePlus, KleeneStar)):
            kleene_variables.update(leaf.variable for leaf in node.leaves())
    if not kleene_variables:
        return 1
    variable_types = pattern.variable_types()
    counts = {variable: 0 for variable in kleene_variables}
    for event in events:
        for variable in kleene_variables:
            if variable_types.get(variable) == event.event_type:
                counts[variable] += 1
    return max(1, max(counts.values(), default=1))
