"""Streaming runtime on top of the COGRA executors.

This package turns the batch-oriented library into a production-style
stream processor:

* :mod:`repro.streaming.config` -- the declarative job API:
  :class:`JobConfig` (one typed, serializable spec behind every entry
  point) and the :class:`Job` facade (:func:`job`);
* :mod:`repro.streaming.ingest` -- out-of-order ingestion with a bounded
  lateness reorder buffer, watermark strategies and late-event policies;
* :mod:`repro.streaming.runtime` -- :class:`StreamingRuntime`, evaluating
  many registered queries over one input stream with shared routing;
* :mod:`repro.streaming.emission` -- watermark-driven window emission and
  eviction;
* :mod:`repro.streaming.sharded` -- :class:`ShardedRuntime`, the
  multi-process deployment: one worker process per hash-range of partition
  keys, fed by a single parent ingestor (:mod:`repro.streaming.routing`
  holds its slot -> worker map, rebalance policy and per-shard counters);
* :mod:`repro.streaming.sources` -- the pipeline's two ends: pluggable
  :class:`EventSource` implementations (in-memory, JSONL file, tailed
  file, TCP socket) and :class:`Sink` implementations (callback, JSONL
  file, in-memory) driven by ``runtime.run(source, sink)``;
* :mod:`repro.streaming.checkpoint` -- snapshot/restore of the complete
  runtime state, plus :class:`CheckpointStore`: incremental on-disk
  checkpoints with periodic compaction and optional background writes;
* :mod:`repro.streaming.metrics` -- throughput, latency, watermark lag and
  late-event counters;
* :mod:`repro.streaming.observability` -- the labeled metrics registry
  (counters / gauges / mergeable log-bucket histograms), sampled lifecycle
  tracing, and the JSONL / Prometheus-text exporters behind
  ``cogra stream --metrics-export``;
* :mod:`repro.streaming.jsonl` -- the JSON-lines wire format of the
  ``cogra stream`` CLI subcommand;
* :mod:`repro.streaming.server` -- the multi-tenant :class:`JobServer`:
  many concurrent jobs over one fair round-robin scheduler, per-tenant
  quotas (:class:`TenantConfig`), per-job checkpoint/metrics isolation,
  and the socket protocol behind :class:`JobServerClient` and
  ``cogra serve`` / ``cogra submit``.
"""

from repro.streaming.checkpoint import (
    CHECKPOINT_VERSION,
    STORE_VERSION,
    CheckpointEntry,
    CheckpointStore,
    load_checkpoint,
    save_checkpoint,
)
from repro.streaming.config import (
    BackpressureConfig,
    CheckpointConfig,
    Job,
    JobConfig,
    LatenessConfig,
    LogSourceConfig,
    ObsConfig,
    QueryConfig,
    RebalanceConfig,
    ReplanConfig,
    ServerConfig,
    ShardConfig,
    SinkConfig,
    SourceConfig,
    TenantConfig,
    WatermarkConfig,
    job,
    read_config_file,
    resume_job,
)
from repro.streaming.emission import EmissionController, EmissionRecord
from repro.streaming.ingest import (
    BoundedDelayWatermark,
    IngestBatch,
    LatePolicy,
    OutOfOrderIngestor,
    PunctuationWatermark,
    WatermarkStrategy,
)
from repro.streaming.jsonl import (
    event_from_json,
    event_to_json,
    read_jsonl_events,
    write_jsonl_events,
)
from repro.streaming.metrics import StreamingMetrics
from repro.streaming.observability import (
    Counter,
    Gauge,
    Histogram,
    JsonlMetricsExporter,
    JsonlTraceSink,
    MetricsRegistry,
    Observability,
    PrometheusTextServer,
    Span,
    Tracer,
    filter_snapshot,
    histogram_quantile,
    label_snapshot,
    merge_snapshots,
    render_prometheus,
    snapshot_quantile,
    snapshot_value,
)
from repro.streaming.replan import (
    QueryObservation,
    ReplanController,
    ReplanPolicy,
    migrate_engine,
)
from repro.streaming.routing import RebalancePolicy, ShardRouter, ShardStats
from repro.streaming.runtime import (
    DriveSession,
    PipelineDriver,
    StreamingRuntime,
    group_results,
)
from repro.streaming.server import JobServer, JobServerClient, TokenBucket
from repro.streaming.sharded import ShardedRuntime
from repro.streaming.sources import (
    CallbackSink,
    EventSource,
    IterableSource,
    JsonlFileSink,
    JsonlFileSource,
    JsonlFileTailSource,
    MemorySink,
    PartitionedLogSource,
    PartitionedLogWriter,
    Sink,
    SkippingSource,
    SocketJsonlSource,
    TransactionalSink,
    as_source,
    open_sink,
    open_source,
)

__all__ = [
    "BackpressureConfig",
    "BoundedDelayWatermark",
    "CHECKPOINT_VERSION",
    "CallbackSink",
    "CheckpointConfig",
    "CheckpointEntry",
    "CheckpointStore",
    "Counter",
    "DriveSession",
    "EmissionController",
    "EmissionRecord",
    "EventSource",
    "Gauge",
    "Histogram",
    "IngestBatch",
    "IterableSource",
    "Job",
    "JobConfig",
    "JobServer",
    "JobServerClient",
    "JsonlFileSink",
    "JsonlFileSource",
    "JsonlFileTailSource",
    "JsonlMetricsExporter",
    "JsonlTraceSink",
    "LatePolicy",
    "LatenessConfig",
    "LogSourceConfig",
    "MemorySink",
    "MetricsRegistry",
    "ObsConfig",
    "Observability",
    "OutOfOrderIngestor",
    "PartitionedLogSource",
    "PartitionedLogWriter",
    "PipelineDriver",
    "PrometheusTextServer",
    "PunctuationWatermark",
    "QueryConfig",
    "QueryObservation",
    "RebalanceConfig",
    "RebalancePolicy",
    "ReplanConfig",
    "ReplanController",
    "ReplanPolicy",
    "STORE_VERSION",
    "ServerConfig",
    "ShardConfig",
    "ShardRouter",
    "ShardStats",
    "ShardedRuntime",
    "Sink",
    "SinkConfig",
    "SkippingSource",
    "SocketJsonlSource",
    "SourceConfig",
    "Span",
    "StreamingMetrics",
    "StreamingRuntime",
    "TenantConfig",
    "TokenBucket",
    "Tracer",
    "TransactionalSink",
    "WatermarkConfig",
    "WatermarkStrategy",
    "as_source",
    "event_from_json",
    "event_to_json",
    "filter_snapshot",
    "group_results",
    "histogram_quantile",
    "job",
    "label_snapshot",
    "load_checkpoint",
    "merge_snapshots",
    "migrate_engine",
    "open_sink",
    "open_source",
    "read_config_file",
    "read_jsonl_events",
    "render_prometheus",
    "resume_job",
    "save_checkpoint",
    "snapshot_quantile",
    "snapshot_value",
    "write_jsonl_events",
]
