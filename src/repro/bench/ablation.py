"""Granularity ablation: what do the coarse granularities actually buy?

The paper's central design choice is maintaining the
trend aggregates at the *coarsest correct* granularity instead of GRETA's
per-event granularity.  The ablation harness isolates that choice by running
the **same** COGRA executor on the **same** workload while forcing every
granularity that is still correct for the query (see
:func:`repro.analyzer.granularity.allowed_granularities`):

* an ANY query without adjacent predicates runs at type, mixed and event
  granularity,
* an ANY query with adjacent predicates runs at mixed and event granularity,
* NEXT/CONT queries admit only the pattern granularity (no ablation).

Every other part of the pipeline (planner, executor, windows, grouping) is
identical, so latency and storage differences are attributable to the
granularity alone -- unlike the COGRA-vs-GRETA comparison of Figure 8, which
also changes the implementation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.analyzer.granularity import Granularity, allowed_granularities
from repro.analyzer.plan import plan_query
from repro.bench.harness import measure_run
from repro.bench.metrics import RunMetrics
from repro.bench.workloads import FigureWorkload
from repro.datasets.queries import stock_query, stock_trend_query
from repro.datasets.stock import StockConfig, generate_stock_stream
from repro.events.event import Event
from repro.query.query import Query


def ablation_label(granularity: Granularity) -> str:
    """Report label of one ablation arm, e.g. ``cogra[type]``."""
    return f"cogra[{granularity.value}]"


def granularity_ablation(
    query: Query,
    events: Sequence[Event],
    granularities: Optional[Iterable[Granularity]] = None,
    workload: str = "ablation",
    parameter: object = None,
    track_allocations: bool = False,
) -> List[RunMetrics]:
    """Measure the COGRA executor at every correct granularity for ``query``.

    Returns one :class:`~repro.bench.metrics.RunMetrics` per granularity,
    labelled ``cogra[<granularity>]`` so the reporting helpers render them
    as separate series.
    """
    plan = plan_query(query)
    if granularities is None:
        granularities = allowed_granularities(plan.semantics, plan.classification)
    results: List[RunMetrics] = []
    for granularity in granularities:
        metrics = measure_run(
            "cogra",
            query,
            events,
            workload=workload,
            parameter=parameter,
            approach_kwargs={"granularity": granularity},
            track_allocations=track_allocations,
        )
        metrics.approach = ablation_label(granularity)
        metrics.extra["granularity"] = granularity.value
        results.append(metrics)
    return results


# ---------------------------------------------------------------------------
# ready-made ablation sweeps
# ---------------------------------------------------------------------------


def type_vs_event_workload(
    event_counts: Sequence[int] = (500, 1000, 2000, 4000),
    seed: int = 21,
) -> List[FigureWorkload]:
    """Sweep for the TYPE-eligible case (q3 trend query, no adjacent predicates)."""
    query = stock_trend_query(semantics="skip-till-any-match", window=None)
    points = []
    for count in event_counts:
        stream = generate_stock_stream(StockConfig(event_count=count, seed=seed))
        points.append(FigureWorkload("ablation-type-vs-event", count, query, list(stream)))
    return points


def mixed_vs_event_workload(
    event_counts: Sequence[int] = (400, 800, 1600),
    seed: int = 22,
) -> List[FigureWorkload]:
    """Sweep for the MIXED-eligible case (q3 with the price predicate)."""
    query = stock_query(
        semantics="skip-till-any-match",
        window=None,
        with_price_predicate=True,
        group_by_company=True,
    )
    points = []
    for count in event_counts:
        stream = generate_stock_stream(StockConfig(event_count=count, seed=seed))
        points.append(FigureWorkload("ablation-mixed-vs-event", count, query, list(stream)))
    return points


def run_ablation_sweep(
    workloads: Iterable[FigureWorkload],
    granularities: Optional[Iterable[Granularity]] = None,
    track_allocations: bool = False,
) -> List[RunMetrics]:
    """Run :func:`granularity_ablation` over every point of a sweep."""
    results: List[RunMetrics] = []
    for point in workloads:
        results.extend(
            granularity_ablation(
                point.query,
                point.events,
                granularities=granularities,
                workload=point.name,
                parameter=point.parameter,
                track_allocations=track_allocations,
            )
        )
    return results


def summarize_ablation(results: Sequence[RunMetrics]) -> Dict[str, Dict[str, float]]:
    """Per-granularity averages of latency and storage over a sweep.

    Returns ``{label: {"latency_ms": ..., "storage_units": ..., "points": n}}``
    restricted to finished runs; used by the reports and the tests to state
    "type granularity stores K× less than event granularity" concisely.
    """
    summary: Dict[str, Dict[str, float]] = {}
    for result in results:
        if not result.finished:
            continue
        bucket = summary.setdefault(
            result.approach, {"latency_ms": 0.0, "storage_units": 0.0, "points": 0}
        )
        bucket["latency_ms"] += result.latency_ms
        bucket["storage_units"] += result.peak_storage_units
        bucket["points"] += 1
    for bucket in summary.values():
        if bucket["points"]:
            bucket["latency_ms"] /= bucket["points"]
            bucket["storage_units"] /= bucket["points"]
    return summary
