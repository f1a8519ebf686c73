"""The event trend aggregation query (Definition 6 of the paper).

A :class:`Query` bundles the six clauses of the language:

* RETURN    -- grouping attributes to echo plus aggregate specifications,
* PATTERN   -- a (Kleene) pattern,
* SEMANTICS -- one of the three event matching semantics,
* WHERE     -- optional local / equivalence / adjacent predicates,
* GROUP-BY  -- optional grouping attributes,
* WITHIN / SLIDE -- the sliding window.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.errors import InvalidQueryError
from repro.query.aggregates import AggregateSpec
from repro.query.ast import Pattern
from repro.query.predicates import (
    AdjacentPredicate,
    EquivalencePredicate,
    LocalPredicate,
    Predicate,
)
from repro.query.semantics import Semantics
from repro.query.windows import WindowSpec


class Query:
    """An event trend aggregation query.

    Parameters
    ----------
    pattern:
        The PATTERN clause.
    semantics:
        The SEMANTICS clause.
    aggregates:
        Aggregate columns of the RETURN clause.
    predicates:
        WHERE-clause predicates (any mix of local, equivalence and
        adjacent predicates).
    group_by:
        GROUP-BY attribute names.  Grouping attributes must be carried by
        every event that participates in a trend (the parser reads a
        variable-scoped ``A.company`` as the plain attribute ``company``).
    window:
        The WITHIN/SLIDE clause.  ``None`` means a single unbounded window
        covering the whole stream, which is convenient for tests and for
        the paper's running example.
    return_attributes:
        Non-aggregate columns of the RETURN clause (normally the grouping
        attributes, e.g. ``patient`` in q1).
    min_trend_length:
        Optional minimal trend length constraint (Section 8).
    name:
        Optional identifier used in logs and benchmark reports.
    """

    def __init__(
        self,
        pattern: Pattern,
        semantics: Semantics,
        aggregates: Sequence[AggregateSpec],
        predicates: Sequence[Predicate] = (),
        group_by: Sequence[str] = (),
        window: Optional[WindowSpec] = None,
        return_attributes: Sequence[str] = (),
        min_trend_length: int = 1,
        name: str = "",
    ):
        self.pattern = pattern
        self.semantics = semantics
        self.aggregates: Tuple[AggregateSpec, ...] = tuple(aggregates)
        self.predicates: Tuple[Predicate, ...] = tuple(predicates)
        self.group_by: Tuple[str, ...] = tuple(group_by)
        self.window = window
        self.return_attributes: Tuple[str, ...] = tuple(return_attributes)
        self.min_trend_length = int(min_trend_length)
        self.name = name or "query"
        self.validate()

    # -- predicate views -----------------------------------------------------

    @property
    def local_predicates(self) -> List[LocalPredicate]:
        """Predicates on single events (filter the stream)."""
        return [p for p in self.predicates if isinstance(p, LocalPredicate)]

    @property
    def equivalence_predicates(self) -> List[EquivalencePredicate]:
        """``[attr]`` predicates (partition the stream)."""
        return [p for p in self.predicates if isinstance(p, EquivalencePredicate)]

    @property
    def adjacent_predicates(self) -> List[AdjacentPredicate]:
        """Predicates on adjacent events (drive granularity selection)."""
        return [p for p in self.predicates if isinstance(p, AdjacentPredicate)]

    @property
    def has_adjacent_predicates(self) -> bool:
        """True when the query restricts the adjacency relation."""
        return bool(self.adjacent_predicates) or any(
            not p.is_stream_partitioning for p in self.equivalence_predicates
        )

    @property
    def partition_attributes(self) -> Tuple[str, ...]:
        """Attributes that partition the stream: GROUP-BY plus ``[attr]``.

        Duplicates are removed while the original order is preserved.
        """
        attributes: List[str] = []
        for attribute in self.group_by:
            if attribute not in attributes:
                attributes.append(attribute)
        for predicate in self.equivalence_predicates:
            if predicate.is_stream_partitioning and predicate.attribute not in attributes:
                attributes.append(predicate.attribute)
        return tuple(attributes)

    # -- validation ------------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`InvalidQueryError` for inconsistent queries."""
        self.pattern.validate()
        variables = set(self.pattern.variables())
        for spec in self.aggregates:
            if spec.variable is not None and spec.variable not in variables:
                raise InvalidQueryError(
                    f"aggregate {spec.name} refers to variable {spec.variable!r} "
                    f"which is not bound by the pattern {self.pattern!r}"
                )
        for predicate in self.predicates:
            if isinstance(predicate, AdjacentPredicate):
                for variable in (
                    predicate.predecessor_variable,
                    predicate.successor_variable,
                ):
                    if variable not in variables:
                        raise InvalidQueryError(
                            f"adjacent predicate {predicate.describe()} refers to "
                            f"unknown variable {variable!r}"
                        )
            elif isinstance(predicate, LocalPredicate):
                if predicate.variable is not None and predicate.variable not in variables:
                    raise InvalidQueryError(
                        f"local predicate {predicate.describe()} refers to unknown "
                        f"variable {predicate.variable!r}"
                    )
            elif isinstance(predicate, EquivalencePredicate):
                if predicate.variable is not None and predicate.variable not in variables:
                    raise InvalidQueryError(
                        f"equivalence predicate {predicate.describe()} refers to "
                        f"unknown variable {predicate.variable!r}"
                    )
        if not self.aggregates:
            raise InvalidQueryError("a query must request at least one aggregate")
        if self.min_trend_length < 1:
            raise InvalidQueryError("the minimal trend length must be at least 1")

    # -- misc --------------------------------------------------------------------

    def describe(self) -> str:
        """Multi-line textual rendering of the query (for logs and plans)."""
        lines = [
            f"RETURN    {', '.join(list(self.return_attributes) + [a.name for a in self.aggregates])}",
            f"PATTERN   {self.pattern!r}",
            f"SEMANTICS {self.semantics.value}",
        ]
        if self.predicates:
            lines.append(
                "WHERE     " + " AND ".join(p.describe() for p in self.predicates)
            )
        if self.group_by:
            lines.append(f"GROUP-BY  {', '.join(self.group_by)}")
        if self.window is not None:
            if self.window.is_count_based:
                lines.append(f"WITHIN    {self.window.count} events")
            else:
                lines.append(
                    f"WITHIN    {self.window.size:g} seconds SLIDE {self.window.slide:g} seconds"
                )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Query({self.name!r}, {self.pattern!r}, {self.semantics.short_name})"
