"""Tests for the benchmark harness: metrics, sweeps, workloads and reports."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.bench import (
    RunMetrics,
    RunStatus,
    figure5_contiguous_workload,
    figure7_any_all_workload,
    figure9_selectivity_workload,
    figure10_grouping_workload,
    format_capability_table,
    format_series_table,
    measure_run,
    sweep,
)
from repro.bench.metrics import memory_reduction, speedup
from repro.bench.reporting import dump_results, summarize_winner
from repro.datasets.queries import running_example_query, running_example_stream


class TestMeasureRun:
    def test_successful_run_records_metrics(self):
        metrics = measure_run(
            "cogra", running_example_query(), running_example_stream(), workload="t", parameter=8
        )
        assert metrics.status is RunStatus.OK
        assert metrics.finished
        assert metrics.total_trend_count == 43
        assert metrics.events == 8
        assert metrics.latency_ms > 0
        assert metrics.throughput > 0
        assert metrics.peak_storage_units > 0

    def test_unsupported_query_reported_not_raised(self):
        metrics = measure_run(
            "aseq", running_example_query("contiguous"), running_example_stream()
        )
        assert metrics.status is RunStatus.UNSUPPORTED
        assert metrics.cell("latency_ms") == "n/s"

    def test_budget_exhaustion_reported_as_dnf(self):
        metrics = measure_run(
            "sase", running_example_query(), running_example_stream(), cost_budget=5
        )
        assert metrics.status is RunStatus.DID_NOT_FINISH
        assert metrics.cell("latency_ms") == "DNF"

    def test_memory_tracking_can_be_disabled(self):
        metrics = measure_run(
            "cogra",
            running_example_query(),
            running_example_stream(),
            track_allocations=False,
        )
        assert metrics.peak_memory_bytes == 0

    def test_metrics_serialisable(self):
        metrics = measure_run("cogra", running_example_query(), running_example_stream())
        payload = metrics.as_dict()
        assert payload["approach"] == "cogra"
        json.dumps(payload)


class TestSweep:
    def test_sweep_covers_every_point_and_approach(self):
        points = figure7_any_all_workload(event_counts=(10, 20), seed=1)
        results = sweep(["cogra", "greta"], points, cost_budget=100_000)
        assert len(results) == 4
        assert {r.approach for r in results} == {"cogra", "greta"}

    def test_sweep_skips_approaches_after_first_dnf(self):
        points = figure7_any_all_workload(event_counts=(30, 40), seed=1)
        results = sweep(["sase"], points, cost_budget=50)
        statuses = [r.status for r in results]
        assert statuses[0] is RunStatus.DID_NOT_FINISH
        assert statuses[1] is RunStatus.DID_NOT_FINISH
        assert "skipped" in results[1].extra["reason"]

    def test_speedup_and_memory_reduction_helpers(self):
        slow = RunMetrics("sase", "w", 1, 10, latency_ms=100.0, peak_storage_units=1000)
        fast = RunMetrics("cogra", "w", 1, 10, latency_ms=10.0, peak_storage_units=10)
        assert speedup(slow, fast) == pytest.approx(10.0)
        assert memory_reduction(slow, fast) == pytest.approx(100.0)
        unfinished = RunMetrics("flink", "w", 1, 10, status=RunStatus.DID_NOT_FINISH)
        assert speedup(unfinished, fast) is None


class TestWorkloadBuilders:
    def test_figure5_uses_contiguous_semantics(self):
        points = figure5_contiguous_workload(event_counts=(50,), seed=1)
        assert len(points) == 1
        assert points[0].query.semantics.short_name == "CONT"
        assert len(points[0].events) == 50

    def test_figure9_parameter_is_selectivity(self):
        points = figure9_selectivity_workload(selectivities=(0.2, 0.8), event_count=40, seed=1)
        assert [point.parameter for point in points] == ["20%", "80%"]
        assert points[0].query.has_adjacent_predicates

    def test_figure10_parameter_is_group_count(self):
        points = figure10_grouping_workload(group_counts=(3, 6), event_count=60, seed=1)
        groups = [len({e.get("passenger") for e in point.events}) for point in points]
        assert groups == [3, 6]

    def test_workload_repr(self):
        point = figure5_contiguous_workload(event_counts=(10,), seed=1)[0]
        assert "figure5" in repr(point)


class TestReporting:
    def test_series_table_layout(self):
        results = [
            RunMetrics("cogra", "fig", 100, 100, latency_ms=1.5),
            RunMetrics("sase", "fig", 100, 100, status=RunStatus.DID_NOT_FINISH),
            RunMetrics("aseq", "fig", 100, 100, status=RunStatus.UNSUPPORTED),
        ]
        table = format_series_table("Figure X — latency", results)
        assert "Figure X — latency" in table
        assert "cogra" in table and "sase" in table
        assert "DNF" in table and "n/s" in table

    def test_capability_table_mentions_every_approach(self):
        table = format_capability_table()
        for name in ("flink", "sase", "greta", "aseq", "cogra"):
            assert name in table

    def test_dump_results_writes_json(self, tmp_path):
        results = [RunMetrics("cogra", "fig", 1, 10, latency_ms=2.0)]
        path = tmp_path / "out" / "results.json"
        dump_results(results, path)
        assert json.loads(path.read_text())[0]["approach"] == "cogra"

    def test_summarize_winner(self):
        results = [
            RunMetrics("cogra", "fig", 1, 10, latency_ms=1.0),
            RunMetrics("sase", "fig", 1, 10, latency_ms=5.0),
            RunMetrics("flink", "fig", 1, 10, status=RunStatus.DID_NOT_FINISH),
        ]
        assert summarize_winner(results) == "cogra"
        assert summarize_winner([]) is None


# ---------------------------------------------------------------------------
# the pair count behind every performance claim (benchmarks/ab_pairs.py)
# ---------------------------------------------------------------------------


def _load_benchmark_script(name):
    path = Path(__file__).resolve().parent.parent / "benchmarks" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab_pairs = _load_benchmark_script("ab_pairs")

_END_TO_END = (
    "throughput_eps", "result_latency_p50_ms", "cpu_s_per_mevent", "peak_rss_mib", "setup_s",
)


def write_run_table(directory, rows):
    """A ``run_table.csv`` of ``(kind, throughput, latency)`` rows; the other
    end-to-end metrics are constant."""
    directory.mkdir()
    lines = ["run_id,kind," + ",".join(_END_TO_END)]
    for index, (kind, throughput, latency) in enumerate(rows):
        lines.append(f"r{index},{kind},{throughput},{latency},50.0,24.5,0.1")
    (directory / "run_table.csv").write_text("\n".join(lines) + "\n")
    return directory


class TestPairTable:
    def table(self, tmp_path, parent_rows, change_rows):
        lines = ab_pairs.pair_table(
            write_run_table(tmp_path / "parent", parent_rows),
            write_run_table(tmp_path / "change", change_rows),
        )
        assert lines[0].split()[0] == "metric"
        rows = {line.split()[0]: line.split() for line in lines[1:]}
        assert tuple(rows) == _END_TO_END  # BENCHMARK.json's end-to-end metrics
        return rows

    def test_ties_count_for_neither_side_and_lower_is_better_where_declared(self, tmp_path):
        rows = self.table(
            tmp_path,
            [("run", 100.0, 10.0), ("run", 100.0, 10.0), ("run", 100.0, 10.0)],
            [("run", 110.0, 9.0), ("run", 100.0, 10.0), ("run", 90.0, 12.0)],
        )
        # higher is better: 110 > 100 wins, 100 = 100 does not, 90 < 100 loses
        assert rows["throughput_eps"][1] == "1/3"
        # lower is better: 9 < 10 wins, the tie does not, 12 > 10 loses
        assert rows["result_latency_p50_ms"][1] == "1/3"
        # identical on both sides: all ties, none won
        assert rows["peak_rss_mib"][1] == "0/3"
        # parent median [q1, q3], change median, change/parent
        assert rows["throughput_eps"][2:] == ["100", "[100,", "100]", "100", "1.000"]
        assert rows["result_latency_p50_ms"][2:] == ["10", "[10,", "10]", "10", "1.000"]

    def test_only_run_rows_are_paired(self, tmp_path):
        rows = self.table(
            tmp_path,
            [
                ("run", 100.0, 10.0),
                ("measured", 1.0, 999.0),
                ("run-traced", 1.0, 999.0),
                ("run", 200.0, 20.0),
            ],
            [("warmup", 999.0, 1.0), ("run", 90.0, 8.0), ("run", 260.0, 16.0)],
        )
        # (100, 90) lost and (200, 260) won; had the other rows been paired
        # there would be three pairs and other medians
        assert rows["throughput_eps"][1] == "1/2"
        assert rows["result_latency_p50_ms"][1] == "2/2"
        assert rows["throughput_eps"][2:] == ["150", "[125,", "175]", "175", "1.167"]
