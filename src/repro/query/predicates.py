"""Predicates of the WHERE clause (Sections 2.3 and 3.2 of the paper).

The predicate classifier distinguishes three predicate kinds because they
determine the granularity at which COGRA maintains aggregates:

* :class:`LocalPredicate` -- restricts attribute values of a single event
  (``M.activity = passive``).  Local predicates filter the stream.
* :class:`EquivalencePredicate` -- ``[attr]`` requires every event of a
  trend to carry the same value of ``attr``.  Equivalence predicates
  partition the stream into independent sub-streams.
* :class:`AdjacentPredicate` -- restricts the adjacency relation between a
  predecessor event and the event that follows it in a trend
  (``M.rate < NEXT(M).rate``).  These predicates force event-grained
  aggregates for the predecessor side (mixed granularity, Section 5).
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Optional, Tuple

from repro.events.event import Event

#: Comparison operators accepted by the textual query language.
OPERATORS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "=": operator.eq,
    "==": operator.eq,
    "!=": operator.ne,
    "<>": operator.ne,
}


class Predicate:
    """Base class for all WHERE-clause predicates."""

    def describe(self) -> str:
        """Human readable rendering used in query plans and reprs."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.describe()})"


class LocalPredicate(Predicate):
    """A predicate over the attributes of a single event.

    Parameters
    ----------
    variable:
        Pattern variable the predicate applies to, or ``None`` to apply to
        every event that carries the referenced attribute.
    condition:
        Callable mapping an :class:`Event` to a boolean.
    description:
        Human readable text, e.g. ``"M.activity = passive"``.
    """

    def __init__(
        self,
        variable: Optional[str],
        condition: Callable[[Event], bool],
        description: str = "",
    ):
        self.variable = variable
        self.condition = condition
        self.description = description or f"local predicate on {variable or '*'}"

    def evaluate(self, event: Event) -> bool:
        """Return True when ``event`` satisfies the predicate."""
        return bool(self.condition(event))

    def describe(self) -> str:
        return self.description

    @classmethod
    def attribute_equals(cls, variable: Optional[str], attribute: str, value: Any) -> "LocalPredicate":
        """``Var.attribute = value`` convenience constructor."""
        return cls(
            variable,
            lambda event: event.get(attribute) == value,
            description=f"{variable or '*'}.{attribute} = {value!r}",
        )

    @classmethod
    def attribute_compare(
        cls, variable: Optional[str], attribute: str, op: str, value: Any
    ) -> "LocalPredicate":
        """``Var.attribute <op> constant`` convenience constructor."""
        compare = OPERATORS[op]
        return cls(
            variable,
            lambda event: event.has(attribute) and compare(event.get(attribute), value),
            description=f"{variable or '*'}.{attribute} {op} {value!r}",
        )


class EquivalencePredicate(Predicate):
    """``[attr]`` / ``[Var.attr]``: events must share an attribute value.

    With ``variable=None`` the predicate requires *all* events of a trend to
    carry the same value of ``attribute``; the executor implements it by
    partitioning the stream on that attribute (Section 7).  With a variable
    it constrains only the events bound to that variable; the planner turns
    it into an adjacency constraint between consecutive occurrences of the
    variable.
    """

    def __init__(self, attribute: str, variable: Optional[str] = None):
        self.attribute = attribute
        self.variable = variable

    @property
    def is_stream_partitioning(self) -> bool:
        """True when the predicate partitions the whole stream."""
        return self.variable is None

    def describe(self) -> str:
        if self.variable is None:
            return f"[{self.attribute}]"
        return f"[{self.variable}.{self.attribute}]"

    def key(self, event: Event) -> Any:
        """Partition key contributed by this predicate for ``event``."""
        return event.get(self.attribute)


class AdjacentPredicate(Predicate):
    """A predicate between a predecessor event and its successor in a trend.

    The constructor follows the paper's ``NEXT()`` notation: in
    ``M.rate < NEXT(M).rate`` the left side refers to the *predecessor*
    event and the right side to the *successor* (more recent) event.

    Parameters
    ----------
    predecessor_variable:
        Variable of the earlier event of the adjacent pair.
    successor_variable:
        Variable of the later event of the adjacent pair.
    condition:
        Callable ``(predecessor, successor) -> bool``.
    description:
        Human readable text for plans and error messages.
    """

    #: ``(predecessor attribute, operator, successor attribute)`` when the
    #: condition is :func:`comparison`'s, else ``None``: a plan's generated
    #: predecessor scans compare such a pair inline instead of calling it
    compares: Optional[Tuple[str, str, str]] = None

    def __init__(
        self,
        predecessor_variable: str,
        successor_variable: str,
        condition: Callable[[Event, Event], bool],
        description: str = "",
    ):
        self.predecessor_variable = predecessor_variable
        self.successor_variable = successor_variable
        self.condition = condition
        self.description = description or (
            f"adjacent predicate {predecessor_variable} -> {successor_variable}"
        )

    def evaluate(self, predecessor: Event, successor: Event) -> bool:
        """Return True when the pair satisfies the predicate."""
        return bool(self.condition(predecessor, successor))

    def applies_to(self, predecessor_variable: str, successor_variable: str) -> bool:
        """True when the predicate constrains the given variable pair."""
        return (
            self.predecessor_variable == predecessor_variable
            and self.successor_variable == successor_variable
        )

    def describe(self) -> str:
        return self.description


def comparison(
    predecessor_variable: str,
    predecessor_attribute: str,
    op: str,
    successor_variable: str,
    successor_attribute: Optional[str] = None,
) -> AdjacentPredicate:
    """Build an adjacent predicate comparing attributes of an adjacent pair.

    ``comparison("M", "rate", "<", "M")`` encodes the paper's
    ``M.rate < NEXT(M).rate``.  When ``successor_attribute`` is omitted it
    defaults to the predecessor attribute.
    """
    successor_attribute = successor_attribute or predecessor_attribute
    compare = OPERATORS[op]

    def condition(predecessor: Event, successor: Event) -> bool:
        left = predecessor.get(predecessor_attribute)
        right = successor.get(successor_attribute)
        if left is None or right is None:
            return False
        return compare(left, right)

    description = (
        f"{predecessor_variable}.{predecessor_attribute} {op} "
        f"NEXT({successor_variable}).{successor_attribute}"
    )
    predicate = AdjacentPredicate(
        predecessor_variable, successor_variable, condition, description
    )
    predicate.compares = (predecessor_attribute, op, successor_attribute)
    return predicate
