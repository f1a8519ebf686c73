"""COGRA: coarse-grained online event trend aggregation.

A from-scratch Python reproduction of *"Event Trend Aggregation Under Rich
Event Matching Semantics"* (Poppe, Lei, Rundensteiner, Maier).  The package
exposes

* the event and query model (:mod:`repro.events`, :mod:`repro.query`),
* the static query analyzer (:mod:`repro.analyzer`),
* the COGRA runtime (:mod:`repro.core`) with its public facade
  :class:`~repro.core.engine.CograEngine`,
* re-implementations of the state-of-the-art baselines used in the paper's
  evaluation (:mod:`repro.baselines`),
* synthetic data-set generators mirroring the paper's workloads
  (:mod:`repro.datasets`),
* the benchmark harness that regenerates every figure of the evaluation
  (:mod:`repro.bench`), and
* the streaming runtime (:mod:`repro.streaming`) with its declarative job
  API: :class:`~repro.streaming.config.JobConfig` and :func:`repro.job`.
"""

from repro.analyzer.granularity import Granularity
from repro.core.engine import CograEngine
from repro.errors import ConfigError, JobStartError
from repro.core.parallel import ParallelExecutor
from repro.core.results import GroupResult
from repro.events.event import Event, EventSchema
from repro.events.stream import EventStream
from repro.query.aggregates import (
    avg,
    count_star,
    count_type,
    max_of,
    min_of,
    sum_of,
)
from repro.query.ast import (
    EventTypePattern,
    KleenePlus,
    KleeneStar,
    Negation,
    OptionalPattern,
    Sequence,
    atom,
    kleene_plus,
    sequence,
)
from repro.query.builder import QueryBuilder
from repro.query.parser import parse_query
from repro.query.predicates import (
    AdjacentPredicate,
    EquivalencePredicate,
    LocalPredicate,
    comparison,
)
from repro.query.query import Query
from repro.query.semantics import Semantics
from repro.query.windows import CountWindowSpec, WindowSpec
from repro.streaming.checkpoint import CheckpointStore
from repro.streaming.config import (
    CheckpointConfig,
    Job,
    JobConfig,
    LatenessConfig,
    ObsConfig,
    QueryConfig,
    RebalanceConfig,
    ReplanConfig,
    ShardConfig,
    SinkConfig,
    SourceConfig,
    WatermarkConfig,
    job,
)
from repro.streaming.emission import EmissionRecord
from repro.streaming.ingest import (
    BoundedDelayWatermark,
    LatePolicy,
    PunctuationWatermark,
)
from repro.streaming.metrics import StreamingMetrics
from repro.streaming.observability import (
    MetricsRegistry,
    Observability,
    render_prometheus,
    snapshot_quantile,
    snapshot_value,
)
from repro.streaming.replan import QueryObservation, ReplanPolicy
from repro.streaming.routing import RebalancePolicy, ShardRouter
from repro.streaming.runtime import StreamingRuntime, group_results
from repro.streaming.sharded import ShardedRuntime
from repro.streaming.sources import (
    CallbackSink,
    EventSource,
    IterableSource,
    JsonlFileSink,
    JsonlFileSource,
    JsonlFileTailSource,
    MemorySink,
    Sink,
    SocketJsonlSource,
)

__version__ = "1.0.0"

__all__ = [
    "AdjacentPredicate",
    "BoundedDelayWatermark",
    "CallbackSink",
    "CheckpointConfig",
    "CheckpointStore",
    "CograEngine",
    "ConfigError",
    "CountWindowSpec",
    "EmissionRecord",
    "EquivalencePredicate",
    "Event",
    "EventSchema",
    "EventSource",
    "EventStream",
    "EventTypePattern",
    "Granularity",
    "GroupResult",
    "IterableSource",
    "Job",
    "JobConfig",
    "JobStartError",
    "JsonlFileSink",
    "JsonlFileSource",
    "JsonlFileTailSource",
    "KleenePlus",
    "KleeneStar",
    "LatePolicy",
    "LatenessConfig",
    "LocalPredicate",
    "MemorySink",
    "MetricsRegistry",
    "Negation",
    "ObsConfig",
    "Observability",
    "OptionalPattern",
    "ParallelExecutor",
    "PunctuationWatermark",
    "Query",
    "QueryBuilder",
    "QueryConfig",
    "QueryObservation",
    "RebalanceConfig",
    "RebalancePolicy",
    "ReplanConfig",
    "ReplanPolicy",
    "Semantics",
    "Sequence",
    "ShardConfig",
    "ShardRouter",
    "ShardedRuntime",
    "Sink",
    "SinkConfig",
    "SocketJsonlSource",
    "SourceConfig",
    "StreamingMetrics",
    "StreamingRuntime",
    "WatermarkConfig",
    "WindowSpec",
    "__version__",
    "atom",
    "avg",
    "comparison",
    "count_star",
    "count_type",
    "group_results",
    "job",
    "kleene_plus",
    "max_of",
    "min_of",
    "parse_query",
    "render_prometheus",
    "sequence",
    "snapshot_quantile",
    "snapshot_value",
    "sum_of",
]
