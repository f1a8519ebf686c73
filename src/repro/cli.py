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
import re
import sys
from pathlib import Path
from typing import List, Optional

from repro.analyzer.cost import compare_granularities, estimate_cost
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
    JobStartError,
    LateEventError,
    SourceError,
    WorkerCrashError,
)
from repro.query.parser import parse_query
from repro.streaming.config import (
    JobConfig,
    job,
    merge_config_layers,
    read_config_file,
)
from repro.streaming.ingest import LatePolicy
from repro.streaming.jsonl import record_to_json_line
from repro.streaming.sharded import ShardedRuntime

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
        help="with --workers >1: released events, across all workers, "
        "between two shipped waves, checked at ingest-step ends (default "
        "64); a window edge ships at once whatever the value",
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


def _load_query_text(argument: str) -> str:
    try:
        with open(argument, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return argument


def _command_explain(args) -> int:
    query = parse_query(_load_query_text(args.query))
    print(query.describe())
    print()
    # the plan the engine runs: a negated query's is planned for its
    # positive part, and mixed escalates to event
    print(CograEngine(query).explain())
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


#: ``cogra stream`` flag (its argparse dest) -> the config path it sets: the
#: one table behind both directions.  A given flag overrides its path
#: (:func:`_stream_flag_overrides`; where two flags set one path the later
#: wins, ``--source`` over ``--input``), and an error naming a path is
#: reported as the flag (:func:`_in_flag_words`).  What a value may be is
#: not repeated here -- the config dataclass field declares it.
_STREAM_FLAGS = {
    "input": "source.spec",
    "source": "source.spec",
    "sink": "sink.spec",
    "exactly_once": "sink.exactly_once",
    "max_inflight": "backpressure.max_inflight",
    "checkpoint_dir": "checkpoint.dir",
    "checkpoint_interval": "checkpoint.interval",
    "recover": "checkpoint.recover",
    "lateness": "watermark.lateness",
    "late_policy": "late.policy",
    "punctuation_type": "watermark.punctuation_type",
    "late_output": "late.side_channel_path",
    "emit_empty_groups": "emit_empty_groups",
    "workers": "shards.workers",
    "ship_interval": "shards.ship_interval",
    "decode_batch_size": "batch.decode_batch_size",
    "rebalance": "shards.rebalance.enabled",
    "replan": "replan.enabled",
    "metrics_export": "observability.metrics_export_path",
    "metrics_interval": "observability.metrics_interval_seconds",
    "trace": "observability.trace_path",
    "trace_sample_rate": "observability.trace_sample_rate",
    "prometheus_port": "observability.prometheus_port",
}


def _flag_given(args, dest: str) -> bool:
    """Value flags default to ``None`` and switches to ``False``: "not given"."""
    value = getattr(args, dest)
    return value is not None and value is not False  # 0 is a given value


def _stream_flag_overrides(args) -> dict:
    """The raw-config layer contributed by explicitly given flags."""
    overrides: dict = {}

    def put(path: str, value) -> None:
        # nested layers: deep-merging preserves the sibling keys (say,
        # shards.rebalance.* tuning) a --config file provides
        *sections, key = path.split(".")
        layer = overrides
        for section in sections:
            layer = layer.setdefault(section, {})
        layer[key] = value

    for dest, path in _STREAM_FLAGS.items():
        if _flag_given(args, dest):
            put(path, getattr(args, dest))
    if args.queries:
        overrides["queries"] = [
            {"text": _load_query_text(text)} for text in args.queries
        ]
    if args.punctuation_type is not None:
        put("watermark.kind", "punctuation")
        if args.lateness is None:
            # switching the watermark kind moots a config file's lateness;
            # only an explicitly passed --lateness should still conflict
            put("watermark.lateness", 0.0)
    return overrides


def _in_flag_words(message: str, args) -> str:
    """Rewrite the config paths an error names into the flags that set them.

    The library speaks in config paths (``checkpoint.dir``); the operator
    typed ``--checkpoint-dir``.  Where two flags set one path the one
    actually given is named.
    """
    flags: dict = {}
    for given_only in (False, True):  # a given flag beats one that merely exists
        for dest, path in _STREAM_FLAGS.items():
            # a dotless path (emit_empty_groups) is also a key of other
            # sections, where it is not this flag: leave the bare word alone
            if "." in path and (not given_only or _flag_given(args, dest)):
                flags[path] = "--" + dest.replace("_", "-")
    paths = "|".join(re.escape(path) for path in sorted(flags, key=len, reverse=True))
    # whole paths only: checkpoint.dir, but not checkpoint.directory
    return re.sub(
        rf"(?<![\w.])({paths})(?!\w|\.\w)",
        lambda match: flags[match.group(1)],
        message,
    )


def _resolve_stream_config(args) -> JobConfig:
    """Layer defaults < ``--config`` file < flags into one spec.

    Raises :class:`~repro.errors.ConfigError` (in config-path words; see
    :func:`_in_flag_words`) for anything invalid.
    """
    file_layer = read_config_file(args.config) if args.config else {}
    config = JobConfig.from_dict(
        merge_config_layers(
            _STREAM_CLI_DEFAULTS, file_layer, _stream_flag_overrides(args)
        )
    )
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
        running = job(_resolve_stream_config(args))  # validates, opens nothing
    except ConfigError as exc:
        print(_in_flag_words(str(exc), args), file=sys.stderr)
        return 2
    config = running.config

    if args.dry_run:
        # stdout gets the resolved spec as valid JSON -- reusable verbatim
        # as a --config file -- and stderr the human-readable plan
        print(json.dumps(config.to_dict(), indent=2))
        for name, granularity in config.granularity_plan().items():
            print(f"# {name}: granularity={granularity}", file=sys.stderr)
        return 0

    drive = running.records()  # lazy: nothing runs until it is iterated
    try:
        running.start()
        for note in running.resume_notes:
            print(f"# {note}", file=sys.stderr)
        if running.prometheus_address is not None:
            host, port = running.prometheus_address
            print(
                f"# serving Prometheus metrics on http://{host}:{port}/",
                file=sys.stderr,
            )
        to_stdout = config.sink.spec is None  # no sink configured: stdout is it
        for record in drive:
            if to_stdout:
                # flush per line: incremental emission must reach a piped
                # consumer immediately, not sit in the block buffer
                print(record_to_json_line(record), flush=True)
    except BrokenPipeError:
        # the consumer (e.g. ``| head``) went away: stop emitting to stdout
        # but still end the job cleanly (which persists pending late
        # events) and fall through to the stderr reporting below
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except (
        JobStartError,
        InvalidEventError,
        LateEventError,
        WorkerCrashError,
        SourceError,
        CheckpointError,
    ) as exc:
        # the subcommand's documented failure modes (an endpoint that
        # cannot be opened, malformed wire input, --late-policy raise, a
        # crashed shard worker, a dropped source connection, a checkpoint
        # store that is unusable or could not make its writes durable) get
        # a one-line message, not a traceback
        print(f"error: {_in_flag_words(str(exc), args)}", file=sys.stderr)
        return 1
    finally:
        drive.close()  # stops the job if the loop was left early

    metrics = running.metrics
    if metrics.late_events:
        note = f"# {metrics.late_events} late events (policy: {config.late.policy})"
        if config.late.side_channel_path:
            note += f", written to {config.late.side_channel_path}"
        print(note, file=sys.stderr)
    if args.metrics:
        print(metrics.describe(), file=sys.stderr)
        if isinstance(running.runtime, ShardedRuntime):
            print(running.runtime.shard_report(), file=sys.stderr)
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
    with JobServer(config) as server:
        host, port = server.address
        print(f"cogra job server listening on {host}:{port}", file=sys.stderr)
        print(f"server directory: {server.directory}", file=sys.stderr)
        server.wait_for_shutdown()
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
