"""Ready-made queries mirroring the paper's examples q1-q3 and Figure 2.

The constructors return fully validated :class:`~repro.query.query.Query`
objects whose knobs (semantics, window, adjacent predicates) can be
overridden -- the benchmark harness uses them to reproduce the parameter
sweeps of Section 9, and the examples use them as-is.
"""

from __future__ import annotations

from typing import List, Optional

from repro.events.event import Event
from repro.query.aggregates import avg, count_star, max_of, min_of
from repro.query.builder import QueryBuilder
from repro.query.ast import KleenePlus, kleene_plus, sequence, atom
from repro.query.predicates import comparison
from repro.query.query import Query
from repro.query.windows import WindowSpec


def healthcare_query(
    semantics: str = "contiguous",
    window: Optional[WindowSpec] = WindowSpec(600.0, 30.0),
    with_rate_predicate: bool = True,
    passive_only: bool = True,
) -> Query:
    """Query q1: min/max heart rate of contiguously increasing measurements.

    ``RETURN patient, MIN(M.rate), MAX(M.rate)``
    ``PATTERN Measurement M+`` under the contiguous semantics, grouped by
    patient, within 10 minutes sliding every 30 seconds.
    """
    builder = (
        QueryBuilder("q1-healthcare")
        .pattern(kleene_plus("Measurement", "M"))
        .semantics(semantics)
        .aggregate(min_of("M", "rate"), max_of("M", "rate"))
        .group_by("patient")
        .window(window)
        .returning("patient")
    )
    if passive_only:
        builder.where_attribute_equals("M", "activity_class", "passive")
    if with_rate_predicate:
        builder.where_adjacent(comparison("M", "rate", "<", "M"))
    return builder.build()


def ridesharing_query(
    semantics: str = "skip-till-next-match",
    window: Optional[WindowSpec] = WindowSpec(600.0, 30.0),
) -> Query:
    """Query q2: number of completed pool trips with call/cancel episodes.

    ``PATTERN SEQ(Accept, (SEQ(Call, Cancel))+, Finish)`` under
    skip-till-next-match, partitioned by driver.
    """
    pattern = sequence(
        atom("Accept"),
        KleenePlus(sequence(atom("Call"), atom("Cancel"))),
        atom("Finish"),
    )
    return (
        QueryBuilder("q2-ridesharing")
        .pattern(pattern)
        .semantics(semantics)
        .aggregate(count_star())
        .group_by("driver")
        .window(window)
        .returning("driver")
        .build()
    )


def stock_query(
    semantics: str = "skip-till-any-match",
    window: Optional[WindowSpec] = WindowSpec(600.0, 10.0),
    with_price_predicate: bool = False,
    group_by_company: bool = False,
) -> Query:
    """Query q3 (simplified grouping): average price of trends following a down-trend.

    ``PATTERN SEQ(Stock A+, Stock B+)`` under skip-till-any-match with the
    ``A.price > NEXT(A).price`` adjacent predicate.  The paper groups by
    ``(sector, A.company, B.company)``; the reproduction groups by the
    common ``sector`` attribute (or ``company`` when ``group_by_company`` is
    set, matching the 19 trend groups the paper reports for the stock data
    set).
    """
    builder = (
        QueryBuilder("q3-stock")
        .pattern(sequence(kleene_plus("Stock", "A"), kleene_plus("Stock", "B")))
        .semantics(semantics)
        .aggregate(count_star(), avg("B", "price"))
        .window(window)
    )
    group_attribute = "company" if group_by_company else "sector"
    builder.group_by(group_attribute).returning(group_attribute)
    if with_price_predicate:
        builder.where_adjacent(comparison("A", "price", ">", "A"))
    return builder.build()


def stock_trend_query(
    semantics: str = "skip-till-any-match",
    window: Optional[WindowSpec] = WindowSpec(600.0, 10.0),
    with_price_predicate: bool = False,
    group_by_company: bool = True,
) -> Query:
    """Single-Kleene variation of q3 used by the evaluation sweeps.

    ``PATTERN Stock A+`` detects (down-)trends per company and aggregates
    their count and average price.  The paper evaluates "variations of
    queries q1-q3"; this is the variation the stock-data sweeps use because
    every baseline (including A-Seq) can evaluate it, which matches the
    approaches shown in Figures 7-9.
    """
    builder = (
        QueryBuilder("q3-stock-trends")
        .pattern(kleene_plus("Stock", "A"))
        .semantics(semantics)
        .aggregate(count_star(), avg("A", "price"))
        .window(window)
    )
    group_attribute = "company" if group_by_company else "sector"
    builder.group_by(group_attribute).returning(group_attribute)
    if with_price_predicate:
        builder.where_adjacent(comparison("A", "price", ">", "A"))
    return builder.build()


def transportation_query(
    semantics: str = "skip-till-next-match",
    window: Optional[WindowSpec] = WindowSpec(600.0, 30.0),
) -> Query:
    """Trip-counting query over the public transportation stream.

    ``PATTERN SEQ(Enter, (SEQ(Wait, Board))+, Exit)`` partitioned by
    passenger -- the q2-shaped query the paper evaluates on its synthetic
    transportation data set (Figures 6 and 10).
    """
    pattern = sequence(
        atom("Enter"),
        KleenePlus(sequence(atom("Wait"), atom("Board"))),
        atom("Exit"),
    )
    return (
        QueryBuilder("transportation-trips")
        .pattern(pattern)
        .semantics(semantics)
        .aggregate(count_star())
        .group_by("passenger")
        .window(window)
        .returning("passenger")
        .build()
    )


def running_example_query(
    semantics: str = "skip-till-any-match",
    window: Optional[WindowSpec] = None,
) -> Query:
    """The paper's running example: ``(SEQ(A+, B))+`` counting trends."""
    return (
        QueryBuilder("running-example")
        .pattern(KleenePlus(sequence(kleene_plus("A"), atom("B"))))
        .semantics(semantics)
        .aggregate(count_star())
        .window(window)
        .build()
    )


def running_example_stream() -> List[Event]:
    """The stream of Figure 2: a1 b2 a3 a4 c5 b6 a7 b8."""
    return [
        Event("A", 1.0),
        Event("B", 2.0),
        Event("A", 3.0),
        Event("A", 4.0),
        Event("C", 5.0),
        Event("B", 6.0),
        Event("A", 7.0),
        Event("B", 8.0),
    ]
