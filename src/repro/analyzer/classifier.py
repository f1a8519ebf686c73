"""Predicate classifier (Section 3.2 of the paper).

The classifier splits the WHERE clause into

* *local* predicates on single events (they filter the stream),
* *stream partitioning* equivalence predicates ``[attr]`` (they split the
  stream into independent sub-streams, exactly like GROUP-BY), and
* predicates on *adjacent* events (they restrict the adjacency relation and
  therefore force event-grained aggregates for their predecessor side).

Variable-scoped equivalence predicates ``[A.attr]`` constrain only the
events bound to ``A``; the classifier rewrites them into adjacency
constraints between consecutive occurrences of ``A``
(:func:`_equivalence_as_adjacency`).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.query.predicates import (
    AdjacentPredicate,
    EquivalencePredicate,
    LocalPredicate,
)
from repro.query.query import Query


class PredicateClassification:
    """The outcome of predicate classification for one query."""

    def __init__(
        self,
        local_predicates: List[LocalPredicate],
        partition_attributes: Tuple[str, ...],
        adjacent_predicates: List[AdjacentPredicate],
    ):
        self.local_predicates = list(local_predicates)
        self.partition_attributes = tuple(partition_attributes)
        self.adjacent_predicates = list(adjacent_predicates)
        self._local_by_variable: Dict[str, List[LocalPredicate]] = {}
        self._local_global: List[LocalPredicate] = []
        for predicate in self.local_predicates:
            if predicate.variable is None:
                self._local_global.append(predicate)
            else:
                self._local_by_variable.setdefault(predicate.variable, []).append(predicate)
        self._adjacent_by_pair: Dict[Tuple[str, str], List[AdjacentPredicate]] = {}
        for predicate in self.adjacent_predicates:
            key = (predicate.predecessor_variable, predicate.successor_variable)
            self._adjacent_by_pair.setdefault(key, []).append(predicate)

    # -- lookup -----------------------------------------------------------------

    @property
    def has_adjacent_predicates(self) -> bool:
        """True when at least one predicate restricts event adjacency."""
        return bool(self.adjacent_predicates)

    def local_for(self, variable: str) -> List[LocalPredicate]:
        """Local predicates applying to events bound to ``variable``."""
        return self._local_global + self._local_by_variable.get(variable, [])

    def adjacent_between(self, predecessor_variable: str, successor_variable: str) -> List[AdjacentPredicate]:
        """Adjacent predicates constraining the given ordered variable pair."""
        return self._adjacent_by_pair.get((predecessor_variable, successor_variable), [])

    def describe(self) -> str:
        """Readable rendering used in plan explanations."""
        lines = []
        if self.local_predicates:
            lines.append("local      : " + "; ".join(p.describe() for p in self.local_predicates))
        if self.partition_attributes:
            lines.append("partition  : " + ", ".join(self.partition_attributes))
        if self.adjacent_predicates:
            lines.append("adjacent   : " + "; ".join(p.describe() for p in self.adjacent_predicates))
        return "\n".join(lines) or "no predicates"


def _equivalence_as_adjacency(predicate: EquivalencePredicate) -> AdjacentPredicate:
    """Rewrite ``[A.attr]`` into an adjacency constraint between consecutive A's."""
    attribute = predicate.attribute
    variable = predicate.variable
    assert variable is not None

    def condition(predecessor, successor) -> bool:
        return predecessor.get(attribute) == successor.get(attribute)

    return AdjacentPredicate(
        variable,
        variable,
        condition,
        description=f"[{variable}.{attribute}] (consecutive {variable} events share {attribute})",
    )


def classify_predicates(query: Query) -> PredicateClassification:
    """Classify the WHERE clause of ``query`` (Section 3.2)."""
    local_predicates: List[LocalPredicate] = []
    adjacent_predicates: List[AdjacentPredicate] = []

    for predicate in query.predicates:
        if isinstance(predicate, LocalPredicate):
            local_predicates.append(predicate)
        elif isinstance(predicate, AdjacentPredicate):
            adjacent_predicates.append(predicate)
        elif isinstance(predicate, EquivalencePredicate):
            if not predicate.is_stream_partitioning:
                adjacent_predicates.append(_equivalence_as_adjacency(predicate))
            # stream partitioning equivalence predicates are folded into
            # Query.partition_attributes below
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown predicate type {type(predicate).__name__}")

    return PredicateClassification(
        local_predicates=local_predicates,
        partition_attributes=query.partition_attributes,
        adjacent_predicates=adjacent_predicates,
    )
