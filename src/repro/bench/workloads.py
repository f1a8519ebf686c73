"""Workload builders for every figure of the paper's evaluation (Section 9).

Each builder returns the list of workload points of one parameter sweep,
at the one size both ``pytest benchmarks`` and ``cogra figures`` run
(neither takes a scale).  The whole suite takes about half an hour on two
vCPUs (``--benchmark-disable``).  Exponential baselines are protected by
cost budgets, so oversized configurations show up as ``DNF`` exactly like
the paper's non-terminating runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.datasets.physical_activity import (
    PhysicalActivityConfig,
    generate_physical_activity_stream,
)
from repro.datasets.queries import (
    healthcare_query,
    stock_query,
    stock_trend_query,
    transportation_query,
)
from repro.datasets.stock import StockConfig, generate_stock_stream
from repro.datasets.transportation import (
    TransportationConfig,
    generate_transportation_stream,
)
from repro.events.event import Event
from repro.query.query import Query


@dataclass
class FigureWorkload:
    """One point of a parameter sweep: a query plus the stream to feed it."""

    name: str
    parameter: object
    query: Query
    events: List[Event]

    def __repr__(self) -> str:
        return f"FigureWorkload({self.name!r}, parameter={self.parameter!r}, {len(self.events)} events)"


# ---------------------------------------------------------------------------
# Figure 5: contiguous semantics, physical activity data, all approaches
# ---------------------------------------------------------------------------


def figure5_contiguous_workload(
    event_counts: Sequence[int] = (500, 1000, 2000, 4000),
    seed: int = 5,
) -> List[FigureWorkload]:
    """Latency of all approaches under the contiguous semantics (Figure 5)."""
    query = healthcare_query(semantics="contiguous", window=None)
    points = []
    for count in event_counts:
        config = PhysicalActivityConfig(event_count=count, seed=seed)
        stream = generate_physical_activity_stream(config)
        points.append(FigureWorkload("figure5", count, query, list(stream)))
    return points


# ---------------------------------------------------------------------------
# Figure 6: skip-till-next-match, public transportation data
# ---------------------------------------------------------------------------


def figure6_next_match_workload(
    event_counts: Sequence[int] = (500, 1000, 2000, 4000),
    seed: int = 6,
) -> List[FigureWorkload]:
    """Latency of the Kleene-capable approaches under skip-till-next-match."""
    query = transportation_query(semantics="skip-till-next-match", window=None)
    points = []
    for count in event_counts:
        config = TransportationConfig(event_count=count, seed=seed)
        stream = generate_transportation_stream(config)
        points.append(FigureWorkload("figure6", count, query, list(stream)))
    return points


# ---------------------------------------------------------------------------
# Figures 7 and 8: skip-till-any-match, stock data
# ---------------------------------------------------------------------------


def figure7_any_all_workload(
    event_counts: Sequence[int] = (100, 200, 400, 800),
    seed: int = 7,
) -> List[FigureWorkload]:
    """All approaches under skip-till-any-match (Figure 7).

    The two-step approaches blow up exponentially in the number of events
    per window, so the sweep stays small; larger points turn into DNF rows
    exactly as Flink and SASE stop terminating beyond 40k events in the
    paper.
    """
    query = stock_trend_query(semantics="skip-till-any-match", window=None)
    points = []
    for count in event_counts:
        config = StockConfig(event_count=count, seed=seed)
        stream = generate_stock_stream(config)
        points.append(FigureWorkload("figure7", count, query, list(stream)))
    return points


def figure8_any_online_workload(
    event_counts: Sequence[int] = (1000, 2000, 4000, 8000),
    seed: int = 8,
) -> List[FigureWorkload]:
    """Online approaches (GRETA, A-Seq, COGRA) at higher rates (Figure 8)."""
    query = stock_trend_query(semantics="skip-till-any-match", window=None)
    points = []
    for count in event_counts:
        config = StockConfig(event_count=count, seed=seed)
        stream = generate_stock_stream(config)
        points.append(FigureWorkload("figure8", count, query, list(stream)))
    return points


# ---------------------------------------------------------------------------
# Figure 9: predicate selectivity, stock data
# ---------------------------------------------------------------------------


def figure9_selectivity_workload(
    selectivities: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
    event_count: int = 400,
    seed: int = 9,
) -> List[FigureWorkload]:
    """Sweep of the adjacent-predicate selectivity (Figure 9).

    The selectivity of ``A.price > NEXT(A).price`` equals the probability
    that a company's price decreases between consecutive transactions,
    which the stock generator exposes directly.  The query is the paper's
    q3 shape ``SEQ(Stock A+, Stock B+)``, for which COGRA keeps the B side
    at type granularity (mixed-grained aggregation, Section 5).
    """
    query = stock_query(
        semantics="skip-till-any-match",
        window=None,
        with_price_predicate=True,
        group_by_company=True,
    )
    points = []
    for selectivity in selectivities:
        config = StockConfig(
            event_count=event_count, seed=seed, decrease_probability=selectivity
        )
        stream = generate_stock_stream(config)
        points.append(
            FigureWorkload("figure9", f"{int(selectivity * 100)}%", query, list(stream))
        )
    return points


# ---------------------------------------------------------------------------
# Figure 10: number of trend groups, public transportation data
# ---------------------------------------------------------------------------


def figure10_grouping_workload(
    group_counts: Sequence[int] = (5, 10, 20, 30),
    event_count: int = 900,
    seed: int = 10,
) -> List[FigureWorkload]:
    """Sweep of the number of trend groups (Figure 10)."""
    query = transportation_query(semantics="skip-till-any-match", window=None)
    points = []
    for groups in group_counts:
        config = TransportationConfig(
            event_count=event_count, passengers=groups, seed=seed
        )
        stream = generate_transportation_stream(config)
        points.append(FigureWorkload("figure10", groups, query, list(stream)))
    return points
