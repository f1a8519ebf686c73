"""Partition-parallel execution and the granularity ablation, end to end.

The paper's Section 7 observes that GROUP-BY and equivalence predicates
partition the stream into independent sub-streams; Section 9.4 exploits that
for scalability.  This example

1. generates the synthetic stock stream (19 companies, 10 sectors),
2. runs query q3's trend variation sequentially and partition-parallel and
   checks that the results agree,
3. reports per-partition load (the skew bounds parallel speed-up), and
4. forces the same query down to GRETA-style event granularity to show what
   the coarse type granularity saves (the ablation of ``repro.bench.ablation``).

Run with::

    python examples/parallel_partitions.py
"""

from repro import CograEngine
from repro.bench.ablation import granularity_ablation
from repro.core.parallel import ParallelExecutor
from repro.datasets.queries import stock_trend_query
from repro.datasets.statistics import events_per_group, load_imbalance
from repro.datasets.stock import StockConfig, generate_stock_stream


def main() -> None:
    stream = list(generate_stock_stream(StockConfig(event_count=10_000, seed=7)))
    query = stock_trend_query(semantics="skip-till-any-match", window=None)

    sequential = CograEngine(query).run(stream)
    parallel_executor = ParallelExecutor(query, workers=4)
    parallel = parallel_executor.run(stream)

    sequential_counts = {tuple(r.group.items()): r.trend_count for r in sequential}
    parallel_counts = {tuple(r.group.items()): r.trend_count for r in parallel}
    assert sequential_counts == parallel_counts, "parallel run must match sequential run"

    print(f"events                 : {len(stream):,}")
    print(f"partitions (companies) : {parallel_executor.partition_count}")
    print(f"load imbalance         : {load_imbalance(stream, 'company'):.2f} (1.0 = even)")
    busiest = max(events_per_group(stream, "company").items(), key=lambda item: item[1])
    print(f"busiest partition      : company {busiest[0]} with {busiest[1]:,} events")
    print(f"result rows            : {len(parallel)} (identical to sequential run)")
    print()

    print("granularity ablation on the same query and stream:")
    for metrics in granularity_ablation(query, stream[:5_000]):
        print(
            f"  {metrics.approach:<14} latency={metrics.latency_ms:8.1f} ms   "
            f"peak storage={metrics.peak_storage_units:>10,} units"
        )
    print()
    print(
        "Type granularity keeps one accumulator per pattern variable and group, so its"
    )
    print(
        "storage stays constant while event granularity stores every matched event."
    )


if __name__ == "__main__":
    main()
