"""The benchmark's metric tables and how each value is derived.

``END_TO_END`` and ``PER_LAYER`` are the single source of the metric names,
units, directions and bounds; ``BENCHMARK.json`` repeats them for the driver
and ``tests/test_perfbench.py`` keeps the two in step.  ``COLUMNS.md`` gives
the formulas in prose.

Every per-run value is a median over repetitions (or over set-up launches);
there is no best-of.  The time-derived end-to-end metrics are then corrected
by the run's ``host_speed`` (see :func:`host_speed` and the README's "Host
speed" section for the measurements that forced this): the raw medians stay
in ``run_table.csv`` beside the factor.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import json
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from perfbench.tracing import LAYERS, ROOT, layer_self_seconds


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: share of the baseline median the metric may worsen by; ``None`` for
    #: per-layer metrics, ``0.0`` for the absolute zero-failures rule
    bound: Optional[float] = None
    #: how the value moves with host speed: +1 a rate (reported as raw /
    #: host_speed), -1 a duration (raw * host_speed), 0 not a time
    host_scaling: int = 0

    def at_nominal_speed(self, raw: float, host_speed: float) -> float:
        """``raw`` as it would read on a host running at the nominal speed."""
        return raw * host_speed ** -self.host_scaling


#: ``failed_ops_share`` is zero on every correct run, so it cannot be a
#: driver-bounded metric (a bound is a share of the median); the contract
#: line carries it as ``failed``/``attempted`` instead.  Everything else is
#: listed in ``BENCHMARK.json``.
END_TO_END = (
    Metric("throughput_eps", "1/s", "higher", 0.25, host_scaling=+1),
    Metric("result_latency_p50_ms", "ms", "lower", 0.25, host_scaling=-1),
    Metric("cpu_s_per_mevent", "s/Mevent", "lower", 0.25, host_scaling=-1),
    Metric("peak_rss_mib", "MiB", "lower", 0.03),
    Metric("setup_s", "s", "lower", 0.25, host_scaling=-1),
    Metric("failed_ops_share", "share", "lower", 0.0),
)

CONTRACT_END_TO_END = tuple(m for m in END_TO_END if m.name != "failed_ops_share")

PER_LAYER = (
    Metric("config.import_s", "s", "lower"),
    Metric("config.build_s", "s", "lower"),
    Metric("config.worker_spawn_s", "s", "lower"),
    Metric("jsonl.decode_self_s", "s", "lower"),
    Metric("jsonl.decode_events", "count", "higher"),
    Metric("jsonl.decode_us_per_event", "us", "lower"),
    Metric("jsonl.encode_self_s", "s", "lower"),
    Metric("sources.pull_self_s", "s", "lower"),
    Metric("sources.pulls", "count", "lower"),
    Metric("sources.sink_emit_self_s", "s", "lower"),
    Metric("sources.sink_records", "count", "higher"),
    Metric("sources.result_latency_p95_ms", "ms", "lower"),
    Metric("sources.result_latency_samples", "count", "higher"),
    Metric("ingest.push_self_s", "s", "lower"),
    Metric("ingest.events_in", "count", "higher"),
    Metric("ingest.events_released", "count", "higher"),
    Metric("ingest.events_late", "count", "lower"),
    Metric("ingest.late_share", "share", "lower"),
    Metric("ingest.buffer_peak_events", "count", "lower"),
    Metric("runtime.process_batch_self_s", "s", "lower"),
    Metric("runtime.driver_self_s", "s", "lower"),
    Metric("runtime.slices", "count", "lower"),
    Metric("runtime.events_per_slice", "count", "higher"),
    Metric("executor.fold_self_s", "s", "lower"),
    Metric("executor.fold_calls", "count", "lower"),
    Metric("executor.events_per_call", "count", "higher"),
    Metric("executor.advance_self_s", "s", "lower"),
    Metric("executor.results_out", "count", "higher"),
    Metric("executor.open_windows_peak", "count", "lower"),
    Metric("executor.storage_units_peak", "count", "lower"),
    Metric("executor.stored_events_peak", "count", "lower"),
    Metric("aggregators.self_s", "s", "lower"),
    Metric("aggregators.process_calls", "count", "lower"),
    Metric("aggregators.process_run_calls", "count", "lower"),
    Metric("aggregators.events_per_run", "count", "higher"),
    Metric("aggregators.state_allocs", "count", "lower"),
    Metric("checkpoint.snapshot_self_s", "s", "lower"),
    Metric("checkpoint.save_self_s", "s", "lower"),
    Metric("checkpoint.saves", "count", "higher"),
    Metric("checkpoint.bytes_written", "count", "lower"),
    Metric("checkpoint.delta_share", "share", "higher"),
    Metric("sharded.parent_self_s", "s", "lower"),
    Metric("sharded.parent_cpu_s", "s", "lower"),
    Metric("sharded.workers_cpu_s", "s", "lower"),
    Metric("sharded.shipments", "count", "lower"),
    Metric("sharded.events_per_shipment", "count", "higher"),
    Metric("sharded.ack_wait_s", "s", "lower"),
    Metric("sharded.skew_ratio", "ratio", "lower"),
    Metric("sharded.rebalance_moves", "count", "lower"),
    Metric("sharded.speedup_vs_single", "ratio", "higher"),
) + tuple(Metric(f"trace.share.{layer}", "share", "lower") for layer in LAYERS) + (
    Metric("trace.overhead_share", "share", "lower"),
)


# -- statistics ----------------------------------------------------------------


@dataclass(frozen=True)
class Summary:
    """Median, quartiles and sample count of one metric's samples."""

    median: float
    q1: float
    q3: float
    n: int


def summarize(values: Sequence[float]) -> Optional[Summary]:
    """Median and quartiles (``statistics.quantiles(n=4)``); None if empty."""
    values = list(values)
    if not values:
        return None
    if len(values) == 1:
        return Summary(values[0], values[0], values[0], 1)
    q1, median, q3 = statistics.quantiles(values, n=4)
    return Summary(median, q1, q3, len(values))


def percentile(sorted_values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    index = min(len(sorted_values) - 1, int(share * len(sorted_values)))
    return sorted_values[index]


# -- host speed --------------------------------------------------------------------

#: what one pass of the calibration kernel takes on the baseline host when
#: it is quiet; only fixes the scale of ``host_speed`` (1.0 = that host)
KERNEL_NOMINAL_SECONDS = 0.021

_KERNEL_LINES: List[str] = []


def calibration_kernel_seconds() -> float:
    """Time one pass of a fixed kernel shaped like the jobs.

    Decode JSON lines, reorder them through a heap, fold them into per-key
    cells whose counts double (the any-match trend count), encode the
    cells: the interpreter, allocator and big-integer paths the program
    spends its time in, with none of the program's code.
    """
    if not _KERNEL_LINES:
        _KERNEL_LINES.extend(
            json.dumps(
                {"type": "AB"[i % 2], "time": i / 8.0, "g": f"k{i % 37:02d}",
                 "v": i * 31 % 997, "pad": "x" * (i % 11)}
            )  # fmt: skip
            for i in range(7000)
        )
    started = time.perf_counter()
    heap: list = []
    cells: Dict[tuple, list] = {}
    for index, line in enumerate(_KERNEL_LINES):
        row = json.loads(line)
        heapq.heappush(heap, (row["time"] + index * 7 % 5, index, row))
        if len(heap) > 200:
            ready = heapq.heappop(heap)[2]
            key = (ready["g"], int(ready["time"]) // 60)
            cell = cells.get(key)
            if cell is None:
                cells[key] = cell = [0, 0, ready["v"]]
            cell[0] = cell[0] * 2 + 1
            cell[1] += ready["v"]
            if ready["v"] > cell[2]:
                cell[2] = ready["v"]
    for key, cell in sorted(cells.items()):
        json.dumps({"g": key[0], "window": key[1], "values": cell})
    return time.perf_counter() - started


def host_speed(kernel_seconds: Sequence[float]) -> float:
    """Speed of the host during a run: nominal / median kernel time.

    The samples are taken before and after each set-up launch, so they are
    spread over the whole run like the repetitions they correct.
    """
    return KERNEL_NOMINAL_SECONDS / statistics.median(kernel_seconds)


# -- one repetition --------------------------------------------------------------


def watermark_after(rows: List[dict], lateness: float) -> List[float]:
    """Bounded-delay watermark after each arrival (index = events delivered - 1)."""
    times = (row["time"] for row in rows)
    return [peak - lateness for peak in itertools.accumulate(times, max)]


def result_latencies_ms(report: dict, watermarks: List[float]) -> List[float]:
    """Latency of every record released before the final flush.

    A record stamped with watermark ``w`` was released by the first source
    pull after which the watermark was at least ``w``: that pull delivered
    the latest arrival contributing to the release.  The latency is the
    sink's stamp minus that pull's delivery stamp.
    """
    pull_stamps = [stamp for stamp, _delivered in report["pulls"]]
    pull_watermarks = [watermarks[delivered - 1] for _stamp, delivered in report["pulls"]]
    latencies = []
    for stamp, watermark in zip(report["record_stamps"], report["record_watermarks"]):
        if watermark is None:
            continue  # final flush: not a streaming release
        pull = bisect.bisect_left(pull_watermarks, watermark)
        if pull < len(pull_stamps):
            latencies.append((stamp - pull_stamps[pull]) * 1000.0)
    return latencies


def repetition_metrics(report: dict, watermarks: List[float]) -> Dict[str, object]:
    """The end-to-end values of one repetition, from the job process's stamps."""
    events = report["events"]
    cpu = report["cpu_self_s"] + report["cpu_children_s"]
    latencies = sorted(result_latencies_ms(report, watermarks))
    return {
        "events": events,
        "wall_s": report["wall_s"],
        "throughput_eps": events / report["wall_s"],
        "cpu_s": cpu,
        "cpu_s_per_mevent": cpu / events * 1e6,
        "peak_rss_mib": (report["rss_self_kib"] + report["rss_largest_child_kib"])
        / 1024.0,
        "setup_s": report["setup_s"],
        "latencies_ms": latencies,
        "result_latency_p50_ms": percentile(latencies, 0.5) if latencies else None,
    }


# -- the layer ledger ------------------------------------------------------------


def layer_metrics(
    *,
    setups: List[dict],
    untraced: List[dict],
    untraced_latencies_ms: List[float],
    timed: dict,
    counted: dict,
    single_worker: Optional[dict],
) -> Dict[str, float]:
    """Every ``PER_LAYER`` value of one traced run.

    ``setups`` are the set-up launch reports, ``untraced`` the measured
    repetitions' reports (the baseline for CPU, overhead and speed-up),
    ``timed``/``counted`` the two traced repetitions' reports and
    ``single_worker`` the untraced 1-worker baseline of a sharded workload.
    """
    trace = timed["trace"]
    spans = trace["spans"]
    counts = counted["trace"]["counts"]
    wall = trace["wall_s"]
    runtime_metrics = counted["runtime_metrics"]

    def self_s(*names: str) -> float:
        return sum(spans[name]["self_s"] for name in names if name in spans)

    def calls(name: str) -> int:
        return counts.get(name, [0, 0])[0]

    def per_call(name: str) -> float:
        made, carried = counts.get(name, [0, 0])
        return carried / made if made else 0.0

    def median_of(reports: List[dict], key: str) -> float:
        return statistics.median(report[key] for report in reports)

    events = timed["events"]
    pulls = len(timed["pulls"])
    late = runtime_metrics["late_events_dropped"] + runtime_metrics["late_events_rerouted"]
    fold_calls, fold_events = counts.get("executor.fold", [0, 0])
    latencies = sorted(untraced_latencies_ms)
    untraced_wall = median_of(untraced, "wall_s")
    sharded = "shards" in counted
    checkpoint_bytes = sum(counted["registry"].values())

    values = {
        "config.import_s": median_of(setups, "import_s"),
        "config.build_s": median_of(setups, "build_s"),
        "config.worker_spawn_s": median_of(setups, "worker_spawn_s") if sharded else 0.0,
        "jsonl.decode_self_s": self_s("jsonl.decode"),
        "jsonl.decode_events": events,
        "jsonl.decode_us_per_event": self_s("jsonl.decode") / events * 1e6,
        "jsonl.encode_self_s": self_s("jsonl.encode"),
        "sources.pull_self_s": self_s("sources.pull"),
        "sources.pulls": pulls,
        "sources.sink_emit_self_s": self_s("sources.sink_emit", "sources.sink_close"),
        "sources.sink_records": len(timed["record_stamps"]),
        "sources.result_latency_p95_ms": percentile(latencies, 0.95) if latencies else 0.0,
        "sources.result_latency_samples": len(latencies),
        "ingest.push_self_s": self_s("ingest.push", "ingest.drain"),
        "ingest.events_in": runtime_metrics["events_ingested"] + late,
        "ingest.events_released": runtime_metrics["events_released"],
        "ingest.events_late": late,
        "ingest.late_share": late / events,
        "ingest.buffer_peak_events": runtime_metrics["events_buffered_peak"],
        "runtime.process_batch_self_s": self_s("runtime.process_batch", "runtime.flush"),
        "runtime.driver_self_s": self_s(ROOT),
        "runtime.slices": pulls,
        "runtime.events_per_slice": events / pulls,
        "executor.fold_self_s": self_s("executor.fold"),
        "executor.fold_calls": fold_calls,
        "executor.events_per_call": fold_events / fold_calls if fold_calls else 0.0,
        "executor.advance_self_s": self_s("executor.advance"),
        "executor.results_out": runtime_metrics["results_emitted"],
        "executor.open_windows_peak": counted["trace"]["peaks"]["open_windows"],
        "executor.storage_units_peak": counted["trace"]["peaks"]["storage_units"],
        "executor.stored_events_peak": counted["trace"]["peaks"]["stored_events"],
        "aggregators.self_s": self_s("aggregators.process", "aggregators.process_run"),
        "aggregators.process_calls": calls("aggregators.process"),
        "aggregators.process_run_calls": calls("aggregators.process_run"),
        "aggregators.events_per_run": per_call("aggregators.process_run"),
        "aggregators.state_allocs": counted["trace"]["state_allocs"],
        "checkpoint.snapshot_self_s": self_s("checkpoint.snapshot"),
        "checkpoint.save_self_s": self_s("checkpoint.save"),
        "checkpoint.saves": calls("checkpoint.snapshot"),
        "checkpoint.bytes_written": checkpoint_bytes,
        "checkpoint.delta_share": (
            counted["registry"]["checkpoint_bytes_delta"] / checkpoint_bytes
            if checkpoint_bytes
            else 0.0
        ),
        "trace.overhead_share": wall / untraced_wall - 1.0,
    }
    if sharded:
        shards = counted["shards"]
        sent = [shard["events_sent"] for shard in shards]
        shipments = sum(shard["batches_sent"] for shard in shards)
        flush_busy = spans.get("sharded.flush", {"busy_s": 0.0})["busy_s"]
        values.update(
            {
                "sharded.parent_self_s": self_s(
                    "sharded.process_batch", "sharded.drain_pending", "sharded.flush"
                ),
                "sharded.parent_cpu_s": median_of(untraced, "cpu_self_s"),
                "sharded.workers_cpu_s": median_of(untraced, "cpu_children_s"),
                "sharded.shipments": shipments,
                "sharded.events_per_shipment": sum(sent) / shipments if shipments else 0.0,
                "sharded.ack_wait_s": timed["backpressure_s"] + flush_busy,
                "sharded.skew_ratio": max(sent) / (sum(sent) / len(sent)),
                "sharded.rebalance_moves": runtime_metrics["rebalance_slots_moved"],
                "sharded.speedup_vs_single": (
                    single_worker["wall_s"] / untraced_wall if single_worker else 0.0
                ),
            }
        )
    shares = layer_self_seconds(spans)
    for layer in LAYERS:
        values[f"trace.share.{layer}"] = shares[layer] / wall
    return {metric.name: float(values.get(metric.name, 0.0)) for metric in PER_LAYER}
