"""Ablation: the same COGRA executor forced to every correct granularity.

The paper attributes COGRA's wins over GRETA to one design choice -- the
coarsest-correct aggregate granularity.  This benchmark isolates that choice:
the planner, executor, windows and grouping are identical across arms; only
the granularity differs.  The expected shape is

* constant storage for type granularity vs. linearly growing storage for
  event granularity, and
* latency growing roughly linearly for type granularity vs. super-linearly
  for event granularity (each event touches every stored predecessor).
"""

import pytest

from conftest import save_report
from repro.analyzer.granularity import Granularity
from repro.bench.ablation import (
    granularity_ablation,
    mixed_vs_event_workload,
    run_ablation_sweep,
    summarize_ablation,
    type_vs_event_workload,
)
from repro.bench.reporting import format_series_table


@pytest.mark.parametrize("granularity", [Granularity.TYPE, Granularity.EVENT])
def test_ablation_type_eligible_query(benchmark, granularity):
    point = type_vs_event_workload(event_counts=(800,))[0]

    def run():
        return granularity_ablation(
            point.query,
            point.events,
            granularities=[granularity],
            workload=point.name,
            parameter=point.parameter,
        )[0]

    metrics = benchmark.pedantic(run, rounds=1, iterations=1)
    assert metrics.finished


def test_ablation_report(benchmark, results_dir):
    def run():
        type_results = run_ablation_sweep(type_vs_event_workload(event_counts=(250, 500, 1000, 2000)))
        mixed_results = run_ablation_sweep(mixed_vs_event_workload(event_counts=(200, 400, 800)))
        return type_results, mixed_results

    type_results, mixed_results = benchmark.pedantic(run, rounds=1, iterations=1)

    for label, results in (("type_vs_event", type_results), ("mixed_vs_event", mixed_results)):
        for metric in ("latency (ms)", "stored units"):
            table = format_series_table(
                f"Ablation {label} — {metric}",
                results,
                metric=metric,
                parameter_label="events per window",
            )
            save_report(results_dir, f"ablation_{label}_{metric.split()[0]}", table)

    # the coarse granularity must never store more than the fine granularity
    summary = summarize_ablation(type_results)
    assert summary["cogra[type]"]["storage_units"] <= summary["cogra[event]"]["storage_units"]
    # and event-granularity storage must grow with the stream while
    # type-granularity storage stays flat
    type_units = [
        r.peak_storage_units for r in type_results if r.approach == "cogra[type]" and r.finished
    ]
    event_units = [
        r.peak_storage_units for r in type_results if r.approach == "cogra[event]" and r.finished
    ]
    assert max(type_units) == min(type_units)
    assert event_units[-1] > event_units[0]

    mixed_summary = summarize_ablation(mixed_results)
    assert (
        mixed_summary["cogra[mixed]"]["storage_units"]
        <= mixed_summary["cogra[event]"]["storage_units"]
    )
