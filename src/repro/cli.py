"""Command line interface of the COGRA reproduction.

The CLI exposes the pieces a user typically wants without writing code:

``cogra explain``
    Parse a textual query and print the COGRA configuration chosen by the
    static analyzer (granularity, predecessor types, predicate classes).

``cogra run``
    Evaluate a textual query over one of the synthetic data sets and print
    the per-group aggregation results.

``cogra figures``
    Re-run the paper's evaluation sweeps (Figures 5-10) and print the
    latency / memory / throughput tables.

``cogra capabilities``
    Print the expressive-power matrix of all approaches (Table 9).

``cogra cost``
    Print the static cost model report for a query (Table 3 growth class,
    complexity of the selected granularity, storage estimates).

``cogra ablation``
    Run the granularity ablation (type/mixed vs. event granularity on the
    same executor) and print the latency / storage tables.

``cogra experiments``
    Run the full experiment suite (every figure and table of Section 9)
    and optionally write the EXPERIMENTS.md report.

``cogra stream``
    Run one or more queries as a streaming job over JSONL events read from
    stdin or a file, with bounded out-of-order ingestion, watermark-driven
    incremental emission, and metrics reporting.

``cogra generate``
    Generate one of the synthetic data sets and write it to a CSV file.

``cogra stats``
    Print workload statistics (event rate, type mixture, trend groups,
    adjacent-predicate selectivity) of a generated or loaded stream.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.analyzer.cost import compare_granularities, estimate_cost
from repro.analyzer.plan import plan_query
from repro.baselines.registry import available_approaches
from repro.bench.ablation import (
    mixed_vs_event_workload,
    run_ablation_sweep,
    type_vs_event_workload,
)
from repro.bench.experiments import (
    EXPERIMENTS,
    render_experiments_markdown,
    run_experiments,
)
from repro.bench.harness import sweep
from repro.bench.reporting import format_capability_table, format_series_table
from repro.bench import workloads as figure_workloads
from repro.core.engine import CograEngine
from repro.datasets.io import read_stream_csv, write_eoddata_csv, write_stream_csv
from repro.datasets.physical_activity import (
    PhysicalActivityConfig,
    generate_physical_activity_stream,
)
from repro.datasets.ridesharing import RidesharingConfig, generate_ridesharing_stream
from repro.datasets.statistics import adjacent_selectivity, describe_stream
from repro.datasets.stock import StockConfig, generate_stock_stream
from repro.datasets.transportation import (
    TransportationConfig,
    generate_transportation_stream,
)
from repro.errors import (
    CheckpointError,
    ConfigError,
    InvalidEventError,
    LateEventError,
    SourceError,
    WorkerCrashError,
)
from repro.query.parser import parse_query
from repro.streaming.config import (
    JobConfig,
    merge_config_layers,
    read_config_file,
    resume_job,
)
from repro.streaming.ingest import LatePolicy
from repro.streaming.jsonl import record_to_json_line, write_jsonl_events
from repro.streaming.observability import PrometheusTextServer
from repro.streaming.sharded import ShardedRuntime
from repro.streaming.sources import CallbackSink

#: dataset name -> (config class, generator)
DATASETS = {
    "physical_activity": (PhysicalActivityConfig, generate_physical_activity_stream),
    "stock": (StockConfig, generate_stock_stream),
    "transportation": (TransportationConfig, generate_transportation_stream),
    "ridesharing": (RidesharingConfig, generate_ridesharing_stream),
}

#: figure name -> workload builder
FIGURES = {
    "figure5": figure_workloads.figure5_contiguous_workload,
    "figure6": figure_workloads.figure6_next_match_workload,
    "figure7": figure_workloads.figure7_any_all_workload,
    "figure8": figure_workloads.figure8_any_online_workload,
    "figure9": figure_workloads.figure9_selectivity_workload,
    "figure10": figure_workloads.figure10_grouping_workload,
}


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="cogra",
        description="COGRA: coarse-grained online event trend aggregation (SIGMOD 2019 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    explain = commands.add_parser("explain", help="print the plan of a textual query")
    explain.add_argument("query", help="query text or path to a file containing it")

    run = commands.add_parser(
        "run", help="run a textual query over a synthetic data set"
    )
    run.add_argument("query", help="query text or path to a file containing it")
    run.add_argument("--dataset", choices=sorted(DATASETS), default="stock")
    run.add_argument(
        "--events", type=int, default=5000, help="number of events to generate"
    )
    run.add_argument("--seed", type=int, default=7)
    run.add_argument(
        "--limit", type=int, default=20, help="maximum result rows to print"
    )
    run.add_argument(
        "--input",
        default=None,
        help="read the stream from this CSV file instead of generating it",
    )
    run.add_argument(
        "--granularity",
        choices=["pattern", "type", "mixed", "event"],
        default=None,
        help="force a finer (still correct) aggregate granularity",
    )

    figures = commands.add_parser(
        "figures", help="reproduce the paper's evaluation sweeps"
    )
    figures.add_argument(
        "names",
        nargs="*",
        default=sorted(FIGURES),
        help="figures to run (default: all), e.g. figure7 figure9",
    )
    figures.add_argument(
        "--budget",
        type=int,
        default=200_000,
        help="cost budget for the two-step baselines (constructed trends)",
    )
    figures.add_argument(
        "--approaches",
        nargs="*",
        default=None,
        help="subset of approaches to run (default: all registered)",
    )

    commands.add_parser(
        "capabilities", help="print the expressive power matrix (Table 9)"
    )

    cost = commands.add_parser(
        "cost", help="print the static cost model report for a query"
    )
    cost.add_argument("query", help="query text or path to a file containing it")
    cost.add_argument(
        "--events", type=int, default=10_000, help="assumed events per window"
    )
    cost.add_argument(
        "--compare",
        action="store_true",
        help="also estimate every finer granularity that is still correct",
    )

    ablation = commands.add_parser(
        "ablation",
        help="run the granularity ablation (same executor, forced granularities)",
    )
    ablation.add_argument(
        "--events",
        nargs="*",
        type=int,
        default=[500, 1000, 2000],
        help="events per window of the sweep points",
    )

    experiments = commands.add_parser(
        "experiments",
        help="run every table/figure experiment and render EXPERIMENTS.md",
    )
    experiments.add_argument(
        "names",
        nargs="*",
        default=list(EXPERIMENTS),
        help="experiments to run (default: all, in paper order), e.g. figure7 tables567",
    )
    experiments.add_argument("--scale", choices=["quick", "full"], default="quick")
    experiments.add_argument("--budget", type=int, default=50_000)
    experiments.add_argument(
        "--out", default=None, help="write the markdown report to this path"
    )

    stream = commands.add_parser(
        "stream", help="run queries as a streaming job over JSONL events"
    )
    # value flags default to None (= "not given") so the effective job spec
    # can be layered: built-in defaults < --config file < explicit flags
    stream.add_argument(
        "queries",
        nargs="*",
        help="one or more query texts (or paths to files containing them); "
        "optional when --config provides the queries",
    )
    stream.add_argument(
        "--config",
        default=None,
        help="load the job from a declarative JobConfig file (JSON, or TOML "
        "on Python 3.11+); explicit flags override the file's settings",
    )
    stream.add_argument(
        "--dry-run",
        action="store_true",
        help="print the fully-resolved JobConfig as JSON (reusable via "
        "--config) and the per-query granularity plan, then exit without "
        "ingesting anything",
    )
    stream.add_argument(
        "--input",
        default=None,
        help="JSONL event file, or '-' to read from stdin (the default); "
        "shorthand for the file/stdin forms of --source",
    )
    stream.add_argument(
        "--source",
        default=None,
        help="event source specification: '-' (stdin), a JSONL file path, "
        "'tail:PATH' (follow a growing JSONL file), 'log:DIR' (a "
        "partitioned append-only log directory with committed consumer "
        "offsets), or 'tcp://HOST:PORT' (connect to a JSONL socket); "
        "overrides --input",
    )
    stream.add_argument(
        "--sink",
        default=None,
        help="write result records to this JSONL file instead of stdout "
        "(same as the sink.spec config key)",
    )
    stream.add_argument(
        "--exactly-once",
        action="store_true",
        help="with --sink FILE: deliver each result exactly once -- "
        "duplicates are suppressed and on --recover the sink file is "
        "rolled back to the offset committed inside the checkpoint, so "
        "a crash between emit and checkpoint never double-delivers",
    )
    stream.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        metavar="N",
        help="bound on records in flight between ingestion and delivery "
        "(default 64): sharded runs cap unacknowledged worker batches, "
        "and a sink reporting not-ready pauses ingestion (the waits are "
        "surfaced as backpressure_waits in --metrics)",
    )
    stream.add_argument(
        "--checkpoint-dir",
        default=None,
        help="directory of the incremental checkpoint store; with "
        "--checkpoint-interval the job checkpoints periodically, with "
        "--recover it resumes from the newest checkpoint",
    )
    stream.add_argument(
        "--checkpoint-interval",
        type=int,
        default=None,
        help="checkpoint every N ingested events into --checkpoint-dir "
        "(incremental deltas, periodically compacted)",
    )
    stream.add_argument(
        "--recover",
        action="store_true",
        help="resume from the newest checkpoint in --checkpoint-dir (start "
        "fresh when the store is empty): re-run the same command with the "
        "same input -- for file and tail: sources the already-ingested "
        "prefix of the replayed stream is skipped automatically; combined "
        "with --checkpoint-interval and --workers >1 it also restarts "
        "crashed shard workers from checkpoints instead of aborting",
    )
    stream.add_argument(
        "--lateness",
        type=float,
        default=None,
        help="bounded-disorder tolerance in seconds (watermark delay; "
        "default 0)",
    )
    stream.add_argument(
        "--late-policy",
        choices=[policy.value for policy in LatePolicy],
        default=None,
        help="what to do with events arriving behind the watermark "
        "(default: drop -- the operational choice; the library default "
        "is raise)",
    )
    stream.add_argument(
        "--punctuation-type",
        default=None,
        help="use punctuation watermarks carried by events of this type "
        "instead of the bounded-delay strategy",
    )
    stream.add_argument(
        "--late-output",
        default=None,
        help="with --late-policy side-channel: write this run's late events "
        "to this JSONL file (truncated first) for out-of-band reprocessing",
    )
    stream.add_argument(
        "--emit-empty-groups",
        action="store_true",
        help="also emit groups that matched no trend",
    )
    stream.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default 1); >1 shards the stream by "
        "partition key (queries without partition attributes fall back "
        "to one shard)",
    )
    stream.add_argument(
        "--ship-interval",
        type=int,
        default=None,
        help="with --workers >1: events coalesced per worker batch "
        "(default 64); 1 matches single-process emission timing and "
        "watermark stamps (line order may still differ), larger values "
        "trade emission latency for throughput",
    )
    stream.add_argument(
        "--decode-batch-size",
        type=int,
        default=None,
        metavar="N",
        help="events decoded and pushed through the runtime per slice "
        "(default 256); larger slices amortise per-event overhead, "
        "smaller ones reduce emission latency",
    )
    stream.add_argument(
        "--rebalance",
        action="store_true",
        help="with --workers >1: adaptively migrate hot partition-key "
        "ranges (and their live aggregator state) between workers when "
        "the routing load skews; tune via the shards.rebalance.* keys of "
        "a --config file",
    )
    stream.add_argument(
        "--replan",
        action="store_true",
        help="adaptively re-plan each query's aggregation granularity from "
        "the observed stream statistics (live migration, results "
        "unchanged); tune via the replan.* keys of a --config file",
    )
    stream.add_argument(
        "--metrics",
        action="store_true",
        help="print throughput / latency / watermark-lag metrics to stderr",
    )
    stream.add_argument(
        "--metrics-export",
        default=None,
        metavar="PATH",
        help="append periodic metrics-registry snapshots to this JSONL file "
        "(one labeled sample per --metrics-interval, plus a final one at "
        "end of stream); for sharded runs the samples are the merged "
        "parent view across all workers",
    )
    stream.add_argument(
        "--metrics-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="seconds between --metrics-export samples (default 10)",
    )
    stream.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write sampled lifecycle span trees (ingest -> route -> "
        "execute -> emit, plus checkpoint/recovery/rebalance operations) "
        "to this JSONL file; requires --trace-sample-rate",
    )
    stream.add_argument(
        "--trace-sample-rate",
        type=float,
        default=None,
        metavar="RATE",
        help="fraction of events whose lifecycle is traced into --trace "
        "(0 < RATE <= 1; the sampling decision is made once per event at "
        "the trace root, so sampled trees are always complete)",
    )
    stream.add_argument(
        "--prometheus-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve the latest metrics snapshot in the Prometheus text "
        "format on 127.0.0.1:PORT (0 binds an ephemeral port, printed to "
        "stderr at startup)",
    )

    generate = commands.add_parser(
        "generate", help="generate a synthetic data set as CSV"
    )
    generate.add_argument("--dataset", choices=sorted(DATASETS), default="stock")
    generate.add_argument("--events", type=int, default=10_000)
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument("--out", required=True, help="output CSV path")
    generate.add_argument(
        "--format",
        choices=["csv", "eoddata"],
        default="csv",
        help="generic stream CSV or the EODData-style stock format",
    )

    stats = commands.add_parser("stats", help="print workload statistics of a stream")
    stats.add_argument("--dataset", choices=sorted(DATASETS), default="stock")
    stats.add_argument("--events", type=int, default=10_000)
    stats.add_argument("--seed", type=int, default=7)
    stats.add_argument(
        "--input", default=None, help="read the stream from this CSV file"
    )
    stats.add_argument(
        "--group", default=None, help="grouping attribute to count trend groups"
    )
    stats.add_argument(
        "--selectivity",
        default=None,
        help="attribute whose falling-value selectivity is reported (e.g. price)",
    )

    serve = commands.add_parser(
        "serve",
        help="run the multi-tenant job server on a local socket",
    )
    serve.add_argument(
        "--config",
        default=None,
        help="server config file (JSON or TOML): endpoint, tenants, quotas",
    )
    serve.add_argument("--host", default=None, help="bind host (default 127.0.0.1)")
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        help="bind port (0 binds an ephemeral port, printed to stderr)",
    )
    serve.add_argument(
        "--dir",
        default=None,
        help="server working directory (per-job checkpoint dirs live under it)",
    )

    submit = commands.add_parser(
        "submit",
        help="submit a job config to a running job server",
    )
    submit.add_argument(
        "--server",
        required=True,
        metavar="HOST:PORT",
        help="address of a running `cogra serve`",
    )
    submit.add_argument(
        "--config", required=True, help="job config file (JSON or TOML)"
    )
    submit.add_argument(
        "--tenant", default="default", help="tenant the job is billed to"
    )
    submit.add_argument(
        "--events",
        default=None,
        help="override the job's source with this JSONL events file",
    )
    submit.add_argument(
        "--no-wait",
        action="store_true",
        help="print the job id and return without waiting for completion",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        help="seconds to wait for the job to finish (with waiting)",
    )
    return parser


def _close_store_quietly(store) -> None:
    """Stop a checkpoint store on an error path (its writer thread included)."""
    try:
        store.close()
    except CheckpointError:
        pass  # the path is already reporting a more primary error


def _load_query_text(argument: str) -> str:
    try:
        with open(argument, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return argument


def _command_explain(args) -> int:
    query = parse_query(_load_query_text(args.query))
    plan = plan_query(query)
    print(query.describe())
    print()
    print(plan.describe())
    return 0


def _generate_or_load(args):
    """Build the input stream for run/stats: a CSV file or a generator."""
    if getattr(args, "input", None):
        return read_stream_csv(args.input)
    config_class, generator = DATASETS[args.dataset]
    config = config_class(event_count=args.events, seed=args.seed)
    return generator(config)


def _command_run(args) -> int:
    query = parse_query(_load_query_text(args.query))
    stream = _generate_or_load(args)
    engine = CograEngine(query, granularity=args.granularity)
    results = engine.run(stream)
    print(f"# {len(results)} result rows (granularity: {engine.granularity})")
    for result in results[: args.limit]:
        print(result.as_dict())
    if len(results) > args.limit:
        print(f"... {len(results) - args.limit} more rows")
    return 0


def _command_figures(args) -> int:
    approaches = args.approaches or available_approaches()
    for name in args.names:
        if name not in FIGURES:
            print(f"unknown figure {name!r}; available: {', '.join(sorted(FIGURES))}")
            return 2
        points = FIGURES[name]()
        results = sweep(approaches, points, cost_budget=args.budget)
        for metric in ("latency (ms)", "peak memory (bytes)", "throughput (events/s)"):
            print(format_series_table(f"{name} — {metric}", results, metric=metric))
            print()
    return 0


def _command_capabilities(_args) -> int:
    print(format_capability_table())
    return 0


def _command_cost(args) -> int:
    query = parse_query(_load_query_text(args.query))
    print(estimate_cost(query, events_per_window=args.events).describe())
    if args.compare:
        print()
        for granularity, estimate in compare_granularities(query, args.events).items():
            print(f"--- forced granularity: {granularity} ---")
            print(estimate.describe())
            print()
    return 0


def _command_ablation(args) -> int:
    event_counts = tuple(args.events)
    sweeps = {
        "type-eligible query (q3 trend query, no adjacent predicates)": run_ablation_sweep(
            type_vs_event_workload(event_counts=event_counts)
        ),
        "mixed-eligible query (q3 with the price predicate)": run_ablation_sweep(
            mixed_vs_event_workload(event_counts=event_counts)
        ),
    }
    for title, results in sweeps.items():
        for metric in ("latency (ms)", "stored units"):
            print(
                format_series_table(
                    f"Ablation — {title} — {metric}", results, metric=metric
                )
            )
            print()
    return 0


def _command_experiments(args) -> int:
    unknown = [name for name in args.names if name not in EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiments {unknown}; "
            f"available: {', '.join(sorted(EXPERIMENTS))}"
        )
        return 2
    outcomes = run_experiments(args.names, scale=args.scale, budget=args.budget)
    markdown = render_experiments_markdown(outcomes, scale=args.scale)
    if args.out:
        Path(args.out).write_text(markdown)
        print(f"wrote {args.out} ({len(markdown.splitlines())} lines)")
    else:
        print(markdown)
    return 0


#: the CLI's own defaults where they deviate from the library's: dropping
#: late events is the operational choice for a long-running pipe (and the
#: subcommand's historical behaviour), while the library default raises
_STREAM_CLI_DEFAULTS = {"late": {"policy": LatePolicy.DROP.value}}


def _stream_flag_overrides(args) -> dict:
    """The raw-config layer contributed by explicitly given flags."""
    overrides: dict = {}

    def put(section: str, key: str, value) -> None:
        overrides.setdefault(section, {})[key] = value

    if args.queries:
        overrides["queries"] = [
            {"text": _load_query_text(text)} for text in args.queries
        ]
    if args.source is not None:
        put("source", "spec", args.source)
    elif args.input is not None:
        put("source", "spec", args.input)
    if args.lateness is not None:
        put("watermark", "lateness", args.lateness)
    if args.punctuation_type is not None:
        put("watermark", "kind", "punctuation")
        put("watermark", "punctuation_type", args.punctuation_type)
        if args.lateness is None:
            # switching the watermark kind moots a config file's lateness;
            # only an explicitly passed --lateness should still conflict
            put("watermark", "lateness", 0.0)
    if args.late_policy is not None:
        put("late", "policy", args.late_policy)
    if args.sink is not None:
        put("sink", "spec", args.sink)
    if args.exactly_once:
        put("sink", "exactly_once", True)
    if args.max_inflight is not None:
        put("backpressure", "max_inflight", args.max_inflight)
    if args.late_output is not None:
        put("late", "side_channel_path", args.late_output)
    if args.emit_empty_groups:
        overrides["emit_empty_groups"] = True
    if args.workers is not None:
        put("shards", "workers", args.workers)
    if args.ship_interval is not None:
        put("shards", "ship_interval", args.ship_interval)
    if args.decode_batch_size is not None:
        put("batch", "decode_batch_size", args.decode_batch_size)
    if args.rebalance:
        # a nested layer: deep-merging preserves any shards.rebalance.*
        # tuning keys a --config file provides alongside the flag
        put("shards", "rebalance", {"enabled": True})
    if args.replan:
        # same deep-merge story for a config file's replan.* tuning keys
        put("replan", "enabled", True)
    if args.checkpoint_dir is not None:
        put("checkpoint", "dir", args.checkpoint_dir)
    if args.checkpoint_interval is not None:
        put("checkpoint", "interval", args.checkpoint_interval)
    if args.recover:
        put("checkpoint", "recover", True)
    if args.metrics_export is not None:
        put("observability", "metrics_export_path", args.metrics_export)
    if args.metrics_interval is not None:
        put("observability", "metrics_interval_seconds", args.metrics_interval)
    if args.trace is not None:
        put("observability", "trace_path", args.trace)
    if args.trace_sample_rate is not None:
        put("observability", "trace_sample_rate", args.trace_sample_rate)
    if args.prometheus_port is not None:
        put("observability", "prometheus_port", args.prometheus_port)
    return overrides


def _dig(data: dict, path: str, default=None):
    """Read a dotted path out of a raw (possibly partial) config dict."""
    for key in path.split("."):
        if not isinstance(data, dict) or key not in data:
            return default
        data = data[key]
    return data


def _check_stream_flags(merged: dict) -> Optional[str]:
    """The flag-phrased cross-field checks, on the merged effective values.

    These mirror :meth:`JobConfig.validate` (which remains authoritative
    for library users) but speak in ``--flag`` terms, because that is what
    the operator typed.  Returns the error message, or ``None``.
    """
    if not merged.get("queries"):
        return (
            "at least one query is required (positional QUERY arguments, "
            "or queries in --config)"
        )
    late_policy = _dig(merged, "late.policy")
    late_output = _dig(merged, "late.side_channel_path")
    reprocess = _dig(merged, "late.reprocess", False)
    side_channel = late_policy == LatePolicy.SIDE_CHANNEL.value
    if late_output and not side_channel:
        return (
            "--late-output requires --late-policy side-channel "
            f"(got {late_policy!r})"
        )
    if side_channel and not late_output and not reprocess:
        # without a sink the side channel would grow without bound and be
        # discarded at exit, which is just --late-policy drop in disguise
        return (
            "--late-policy side-channel requires --late-output FILE "
            "(where the late events are persisted for reprocessing)"
        )
    lateness = _dig(merged, "watermark.lateness", 0.0)
    if _dig(merged, "watermark.kind") == "punctuation" and lateness:
        return (
            "--lateness has no effect with --punctuation-type (the watermark "
            "is carried by punctuation events); pass one or the other"
        )
    if isinstance(lateness, (int, float)) and lateness < 0:
        return f"--lateness must be non-negative, got {lateness:g}"
    decode_batch_size = _dig(merged, "batch.decode_batch_size")
    if decode_batch_size is not None and (
        not isinstance(decode_batch_size, int)
        or isinstance(decode_batch_size, bool)
        or decode_batch_size < 1
    ):
        return (
            f"--decode-batch-size must be a positive integer, "
            f"got {decode_batch_size!r}"
        )
    exactly_once = _dig(merged, "sink.exactly_once", False)
    sink_spec = _dig(merged, "sink.spec")
    if exactly_once and (sink_spec is None or sink_spec in ("-", "stdout")):
        return (
            "--exactly-once requires --sink FILE (the committed byte offset "
            "of a file is what makes delivery transactional; stdout cannot "
            "be rolled back)"
        )
    max_inflight = _dig(merged, "backpressure.max_inflight", 64)
    if isinstance(max_inflight, int) and max_inflight < 1:
        return f"--max-inflight must be at least 1, got {max_inflight}"
    workers = _dig(merged, "shards.workers", 1)
    if isinstance(workers, int) and workers < 1:
        return f"--workers must be at least 1, got {workers}"
    ship_interval = _dig(merged, "shards.ship_interval", 64)
    if isinstance(ship_interval, int) and ship_interval < 1:
        return f"--ship-interval must be at least 1, got {ship_interval}"
    interval = _dig(merged, "checkpoint.interval")
    directory = _dig(merged, "checkpoint.dir")
    recover = _dig(merged, "checkpoint.recover", False)
    if isinstance(interval, int) and interval < 1:
        return f"--checkpoint-interval must be at least 1, got {interval}"
    if interval is not None and not directory:
        return (
            "--checkpoint-interval requires --checkpoint-dir DIR "
            "(where the incremental checkpoints are stored)"
        )
    if recover and not directory:
        return "--recover requires --checkpoint-dir DIR (the store to resume from)"
    if directory and interval is None and not recover:
        return (
            "--checkpoint-dir does nothing by itself; add --checkpoint-interval N "
            "to write periodic checkpoints and/or --recover to resume from the "
            "store"
        )
    metrics_interval = _dig(merged, "observability.metrics_interval_seconds")
    if (
        isinstance(metrics_interval, (int, float))
        and not isinstance(metrics_interval, bool)
        and metrics_interval <= 0
    ):
        return f"--metrics-interval must be positive, got {metrics_interval:g}"
    trace_path = _dig(merged, "observability.trace_path")
    trace_rate = _dig(merged, "observability.trace_sample_rate", 0.0)
    if (
        isinstance(trace_rate, (int, float))
        and not isinstance(trace_rate, bool)
        and not 0.0 <= trace_rate <= 1.0
    ):
        return f"--trace-sample-rate must be between 0 and 1, got {trace_rate:g}"
    if trace_path and not trace_rate:
        return (
            "--trace requires --trace-sample-rate RATE > 0 "
            "(no span is ever sampled at rate 0)"
        )
    if trace_rate and not trace_path:
        return (
            "--trace-sample-rate requires --trace FILE "
            "(where the sampled spans are written)"
        )
    return None


def _resolve_stream_config(args) -> JobConfig:
    """Layer defaults < ``--config`` file < flags into one validated spec.

    Raises :class:`~repro.errors.ConfigError` (flag-phrased where a flag
    owns the concept) for anything invalid.
    """
    file_layer = read_config_file(args.config) if args.config else {}
    merged = merge_config_layers(
        _STREAM_CLI_DEFAULTS, file_layer, _stream_flag_overrides(args)
    )
    message = _check_stream_flags(merged)
    if message is not None:
        raise ConfigError(message)
    config = JobConfig.from_dict(merged)
    config.validate()
    if (
        config.checkpoint.recover
        and config.checkpoint.interval
        and config.shards.workers > 1
        and config.shards.max_restarts == 0
    ):
        # --recover with periodic checkpoints also means "survive worker
        # crashes": restart shards from the latest checkpoint instead of
        # aborting.  Without an interval the replay buffers would never be
        # trimmed (nothing calls checkpoint()) and the parent would retain
        # every shipped event, so restarts stay disabled then.
        config = dataclasses.replace(
            config, shards=dataclasses.replace(config.shards, max_restarts=3)
        )
    return config


def _command_stream(args) -> int:
    try:
        config = _resolve_stream_config(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if args.dry_run:
        # stdout gets the resolved spec as valid JSON -- reusable verbatim
        # as a --config file -- and stderr the human-readable plan
        print(json.dumps(config.to_dict(), indent=2))
        for name, granularity in config.granularity_plan().items():
            print(f"# {name}: granularity={granularity}", file=sys.stderr)
        return 0

    runtime = config.build_runtime()

    if args.source:
        spec_flag = "--source"
    elif args.input:
        spec_flag = "--input"
    else:
        spec_flag = "--config source"  # the spec came from the config file
    try:
        source = config.source.build()
    except SourceError as exc:
        runtime.close()
        print(f"error: cannot open {spec_flag}: {exc}", file=sys.stderr)
        return 1

    # a sink spec in the config routes records there instead of stdout; it
    # is built BEFORE recovery so resume_job can roll an exactly-once sink
    # back to the checkpoint's committed offset (recover=True preserves the
    # existing file until restore decides how much of it is committed)
    try:
        config_sink = config.sink.build(recover=config.checkpoint.recover)
    except (SourceError, CheckpointError) as exc:
        source.close()
        runtime.close()
        print(f"error: cannot open sink: {exc}", file=sys.stderr)
        return 1

    store = None
    if config.checkpoint.dir:
        try:
            store = config.checkpoint.build_store(
                registry=runtime.observability.registry
            )
            if config.checkpoint.recover:
                # restore the newest checkpoint; a replayable source then
                # skips the already-ingested prefix, and a restorable sink
                # rolls back to its committed offset (resume_job decides)
                info = resume_job(runtime, store, source, sink=config_sink)
                source = info.source
                for note in info.notes:
                    print(f"# {note}", file=sys.stderr)
        except (CheckpointError, WorkerCrashError) as exc:
            source.close()
            runtime.close()
            if config_sink is not None:
                config_sink.close()
            if store is not None:
                _close_store_quietly(store)
            print(f"error: {exc}", file=sys.stderr)
            return 1

    late_sink = None
    if config.late.side_channel_path:
        try:
            # truncate: the file holds THIS run's late events -- appending
            # across runs would silently replay stale events on reprocessing
            late_sink = open(config.late.side_channel_path, "w", encoding="utf-8")
        except OSError as exc:
            source.close()
            runtime.close()
            if config_sink is not None:
                config_sink.close()
            if store is not None:
                _close_store_quietly(store)
            print(f"error: cannot open --late-output: {exc}", file=sys.stderr)
            return 1

    def persist_late_events(late_events) -> None:
        """Persist side-channelled late events so they never pile up."""
        write_jsonl_events(late_events, late_sink)
        late_sink.flush()

    def emit(record) -> None:
        # flush per line: incremental emission must reach a piped consumer
        # immediately, not sit in the block buffer until end of stream
        print(record_to_json_line(record), flush=True)

    sink = config_sink if config_sink is not None else CallbackSink(emit)

    exporter = config.observability.build_exporter()
    prometheus = None
    if config.observability.prometheus_port is not None:
        try:
            prometheus = PrometheusTextServer(
                lambda: exporter.latest,
                port=config.observability.prometheus_port,
            ).start()
        except OSError as exc:
            source.close()
            runtime.close()
            if late_sink is not None:
                late_sink.close()
            if config_sink is not None:
                config_sink.close()
            if store is not None:
                _close_store_quietly(store)
            exporter.close()
            print(f"error: cannot bind --prometheus-port: {exc}", file=sys.stderr)
            return 1
        host, port = prometheus.address
        print(f"# serving Prometheus metrics on http://{host}:{port}/", file=sys.stderr)

    store_failed = False
    try:
        runtime.run(
            source,
            sink,
            checkpoint_store=store if config.checkpoint.interval else None,
            checkpoint_interval=config.checkpoint.interval,
            on_late=persist_late_events if late_sink is not None else None,
            metrics_exporter=exporter,
            backpressure=config.backpressure,
            decode_batch_size=config.batch.decode_batch_size,
        )
        if config.late.reprocess:
            # replay the side channel into is_correction=True records
            for record in runtime.reprocess_late():
                sink.emit(record)
    except BrokenPipeError:
        # the consumer (e.g. ``| head``) went away: stop emitting to stdout
        # but still persist pending late events and fall through to the
        # stderr reporting below (stderr is still open)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if late_sink is not None and runtime.late_events:
            persist_late_events(runtime.take_late_events())
    except (
        InvalidEventError,
        LateEventError,
        WorkerCrashError,
        SourceError,
        CheckpointError,
    ) as exc:
        # the subcommand's documented failure modes (malformed wire input,
        # --late-policy raise, a crashed shard worker, a dropped source
        # connection, an unusable checkpoint store) get a one-line message,
        # not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if prometheus is not None:
            prometheus.close()  # stop serving before the registry goes away
        runtime.close()  # stops sharded workers; no-op for the single runtime
        if exporter is not None:
            exporter.close()
        if late_sink is not None:
            late_sink.close()
        if config_sink is not None:
            config_sink.close()
        if store is not None:
            try:
                store.close()  # waits for queued background writes
            except CheckpointError as exc:
                # the run's results are already out, but its checkpoints are
                # not durable -- that must fail the command (see below; a
                # return here would be swallowed by the finally block)
                print(f"error: {exc}", file=sys.stderr)
                store_failed = True
    if store_failed:
        return 1

    metrics = runtime.metrics
    if metrics.late_events:
        note = f"# {metrics.late_events} late events (policy: {config.late.policy})"
        if config.late.side_channel_path:
            note += f", written to {config.late.side_channel_path}"
        print(note, file=sys.stderr)
    if args.metrics:
        print(metrics.describe(), file=sys.stderr)
        if isinstance(runtime, ShardedRuntime):
            print(runtime.shard_report(), file=sys.stderr)
    return 0


def _command_generate(args) -> int:
    config_class, generator = DATASETS[args.dataset]
    stream = generator(config_class(event_count=args.events, seed=args.seed))
    if args.format == "eoddata":
        written = write_eoddata_csv(stream, args.out)
    else:
        written = write_stream_csv(stream, args.out)
    print(f"wrote {written} events to {args.out}")
    return 0


def _command_stats(args) -> int:
    stream = list(_generate_or_load(args))
    group = args.group
    if group is None and stream:
        # sensible defaults per data set schema
        for candidate in ("company", "patient", "passenger", "driver"):
            if stream[0].has(candidate):
                group = candidate
                break
    numeric = (args.selectivity,) if args.selectivity else ()
    stats = describe_stream(
        stream,
        name=args.input or args.dataset,
        group_attribute=group,
        numeric_attributes=numeric,
    )
    print(stats.describe())
    if args.selectivity:
        selectivity = adjacent_selectivity(
            stream, args.selectivity, ">", partition_attribute=group
        )
        print(f"falling-{args.selectivity} selectivity: {selectivity:.2%}")
    return 0


def _command_serve(args) -> int:
    """Run the multi-tenant job server until its protocol says shutdown."""
    from repro.streaming.config import ServerConfig
    from repro.streaming.server import JobServer

    try:
        data = read_config_file(args.config) if args.config else {}
        config = ServerConfig.from_dict(data)
        overrides = {}
        if args.host is not None:
            overrides["host"] = args.host
        if args.port is not None:
            overrides["port"] = args.port
        if args.dir is not None:
            overrides["dir"] = args.dir
        if overrides:
            config = dataclasses.replace(config, **overrides)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import time as _time

    server = JobServer(config).start()
    host, port = server.address
    print(f"cogra job server listening on {host}:{port}", file=sys.stderr)
    print(f"server directory: {server.directory}", file=sys.stderr)
    try:
        while not server._stop.is_set():
            _time.sleep(0.1)
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def _command_submit(args) -> int:
    """Submit a job config over the socket protocol; print its records."""
    from repro.errors import QuotaError
    from repro.streaming.server import JobServerClient
    from repro.streaming.server.server import job_config_replacing_source

    host, separator, port_text = args.server.rpartition(":")
    if not separator or not port_text.isdigit():
        print(
            f"error: --server must be HOST:PORT, got {args.server!r}",
            file=sys.stderr,
        )
        return 2
    try:
        config = JobConfig.load(args.config)
        if args.events is not None:
            config = job_config_replacing_source(config, args.events)
        config.validate()
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        with JobServerClient(host, int(port_text)) as client:
            try:
                job_id = client.submit(config.to_dict(), tenant=args.tenant)
            except (QuotaError, ConfigError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 3
            print(f"submitted {job_id} (tenant {args.tenant})", file=sys.stderr)
            if args.no_wait:
                print(job_id)
                return 0
            status = client.wait(job_id, timeout=args.timeout)
            if status["state"] != "done":
                print(
                    f"job {job_id} {status['state']}: "
                    f"{status.get('error', 'cancelled')}",
                    file=sys.stderr,
                )
                return 1
            for record in client.results(job_id)["records"]:
                print(json.dumps(record, sort_keys=True))
            return 0
    except (SourceError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``cogra`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "explain": _command_explain,
        "run": _command_run,
        "figures": _command_figures,
        "capabilities": _command_capabilities,
        "cost": _command_cost,
        "ablation": _command_ablation,
        "experiments": _command_experiments,
        "stream": _command_stream,
        "generate": _command_generate,
        "stats": _command_stats,
        "serve": _command_serve,
        "submit": _command_submit,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
