"""Declarative job configuration: one typed, serializable spec per job.

Three PRs of streaming growth (watermarks, sharding, sources/sinks,
checkpointing, recovery) accreted as keyword-argument sprawl: the same
knobs were re-declared -- with drifting defaults -- on
:meth:`CograEngine.stream`, :class:`~repro.streaming.runtime.
StreamingRuntime`, :class:`~repro.streaming.sharded.ShardedRuntime`,
:meth:`~repro.streaming.runtime.PipelineDriver.run` and a dozen CLI flags.
This module is the seam that replaces the sprawl, mirroring how production
engines separate a declarative job description (Flink's job graph, Beam's
pipeline options) from the runtime that executes it:

* a :class:`JobConfig` is a frozen dataclass tree -- queries, watermarking,
  late-event handling, sharding, checkpointing, source and sink -- that
  validates eagerly (:class:`~repro.errors.ConfigError` with actionable
  messages), round-trips through :meth:`JobConfig.to_dict` /
  :meth:`JobConfig.from_dict`, and loads from JSON or TOML files
  (:meth:`JobConfig.load`);
* every setting is declared once, on its dataclass field: the annotation
  and ``field(metadata=...)`` are all the one validator
  (:class:`_Section`) and :meth:`JobConfig.from_dict` read, and errors
  name the setting by its dotted path, which the CLI maps to its flag;
* the :class:`Job` facade (:func:`job`) is the only place a spec becomes
  a running pipeline -- runtime, source, sink, checkpoint store and
  recovery, late-event persistence or reprocessing, exporters, teardown
  -- behind ``start()`` / ``records()`` / ``results()`` / ``metrics`` /
  ``checkpoint()`` / ``stop()``; ``cogra stream`` runs through it.

Every entry point builds on this spec: ``CograEngine.stream(**kwargs)``
and the runtime constructors assemble the component configs internally
(which is what reconciled their once-divergent defaults), and ``cogra
stream --config job.json`` loads one directly, with CLI flags acting as
overrides.

Example
-------
::

    config = JobConfig(
        queries=(QueryConfig(text=QUERY, name="trends"),),
        watermark=WatermarkConfig(lateness=5.0),
        late=LatenessConfig(policy="drop"),
        shards=ShardConfig(workers=4),
    )
    records = job(config, events=feed).results()

    config.to_dict() == JobConfig.load(path).to_dict()   # serializable
"""

from __future__ import annotations

import dataclasses
import difflib
import json
import math
import threading
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from repro.core.partitioner import single_shard_reason
from repro.errors import ConfigError, CograError, JobStartError
from repro.events.event import Event
from repro.streaming.checkpoint import CheckpointStore
from repro.streaming.emission import EmissionRecord
from repro.streaming.ingest import (
    BoundedDelayWatermark,
    LatePolicy,
    PunctuationWatermark,
    WatermarkStrategy,
)
from repro.streaming.jsonl import write_jsonl_events
from repro.streaming.sources import (
    EventSource,
    PartitionedLogSource,
    Sink,
    SkippingSource,
    TransactionalSink,
    as_source,
    open_sink,
    open_source,
)

#: granularities a query may force (mirrors ``cogra run --granularity``)
GRANULARITIES = ("pattern", "type", "mixed", "event")


@lru_cache(maxsize=256)
def _query_plan_info(
    text: str, granularity: Optional[str]
) -> Tuple[Tuple[str, ...], str, bool]:
    """(partition attributes, resolved granularity, count-windowed) facts.

    ``validate()`` and ``granularity_plan()`` both need the static
    analysis but never the (stateful) engine; caching the read-only
    facts avoids re-parsing and re-planning the same query text on every
    validation -- the CLI validates and then builds, a dry run validates
    and then plans.
    """
    from repro.core.engine import CograEngine

    engine = CograEngine(text, granularity=granularity)
    window = engine.query.window
    count_windowed = window is not None and window.is_count_based
    return engine.plan.partition_attributes, engine.granularity, count_windowed


def late_replay_reason(queries: Mapping[str, bool]) -> Optional[str]:
    """Why late events of these queries cannot be replayed, or ``None``.

    ``queries`` maps each query name to whether it uses a count-based
    window.  ``late.reprocess`` (``reprocess_late()`` on either runtime)
    replays late events through a fresh runtime whose event ordinals
    restart at 0, so a count window's corrections would land in windows the
    late events never belonged to.  :meth:`JobConfig.validate` and both
    runtimes' ``reprocess_late`` raise a :class:`ConfigError` with this
    message.
    """
    count_windowed = sorted(name for name, count in queries.items() if count)
    if not count_windowed:
        return None
    return (
        f"queries {count_windowed} use count-based windows, which "
        "late.reprocess cannot correct: its replay restarts event ordinals "
        "at 0, so corrections would land in windows the late events never "
        "belonged to; persist late events with late.side_channel_path instead"
    )


def _did_you_mean(word: object, valid: Iterable[str]) -> str:
    """The ``(did you mean 'x'?)`` suffix for a near-miss of a valid word."""
    close = difflib.get_close_matches(str(word), list(valid), n=1)
    return f" (did you mean {close[0]!r}?)" if close else ""


class _Field(NamedTuple):
    """One declared setting: what its annotation and ``metadata`` say it holds."""

    name: str
    #: ``bool`` / ``int`` / ``float`` / ``str``, or the nested section's class
    base: type
    optional: bool  # ``Optional[base]``: ``None`` is a valid value
    many: bool  # ``Tuple[base, ...]`` of nested sections
    #: ``min`` / ``max`` (inclusive), ``above`` (exclusive), ``choices``
    meta: Mapping[str, object]


@lru_cache(maxsize=None)
def _schema(cls) -> Tuple[_Field, ...]:
    """The field table of a config class, resolved from its annotations once."""
    hints = get_type_hints(cls)
    table = []
    for spec in dataclasses.fields(cls):
        hint = hints[spec.name]
        args = get_args(hint)
        optional = type(None) in args
        many = get_origin(hint) is tuple
        base = args[0] if optional or many else hint
        table.append(_Field(spec.name, base, optional, many, spec.metadata))
    return tuple(table)


@lru_cache(maxsize=None)
def _prefixes() -> Dict[type, str]:
    """Dotted path prefix of every section class, walked from the two roots."""
    prefixes = {JobConfig: "", ServerConfig: ""}
    pending = [JobConfig, ServerConfig]
    while pending:
        cls = pending.pop()
        for spec in _schema(cls):
            if dataclasses.is_dataclass(spec.base):
                suffix = "[]." if spec.many else "."
                prefixes[spec.base] = prefixes[cls] + spec.name + suffix
                pending.append(spec.base)
    return prefixes


def _expected(spec: _Field) -> str:
    """What a valid value of the field is, in the words of the error message."""
    meta = spec.meta
    if "choices" in meta:
        text = "one of " + ", ".join(meta["choices"])
    elif spec.base is bool:
        text = "true or false"
    elif spec.base is str:
        text = "a non-empty string"
    else:
        text = "an integer" if spec.base is int else "a finite number"
        words = (("above", "greater than"), ("min", "at least"), ("max", "at most"))
        bounds = [f"{word} {meta[key]:g}" for key, word in words if key in meta]
        if bounds:
            text += ", " + " and ".join(bounds)
    return "null or " + text if spec.optional else text


def _conforms(value: object, spec: _Field) -> bool:
    """Whether a scalar ``value`` has the field's declared type and range."""
    base, meta = spec.base, spec.meta
    if base is bool:
        # real booleans only -- the string 'false' is truthy
        return isinstance(value, bool)
    if base is str:
        ok = isinstance(value, str) and bool(value.strip())
        return ok and value in meta.get("choices", (value,))
    # bool is an int subclass, but True is not a count; NaN and the
    # infinities (which json.loads accepts) are not measurements
    numeric = (int, float) if base is float else int
    if isinstance(value, bool) or not isinstance(value, numeric):
        return False
    if isinstance(value, float) and not math.isfinite(value):
        return False
    if "above" in meta and not value > meta["above"]:
        return False
    return meta.get("min", value) <= value <= meta.get("max", value)


def _coerce(cls, value: object, path: str):
    """An instance of section ``cls`` from a mapping of its settings.

    Instances pass through; a mapping must carry known keys only (a typo
    fails loudly, with the closest valid key) and every required one.
    """
    if isinstance(value, cls):
        return value
    where = path or "the config"
    if not isinstance(value, dict):
        raise ConfigError(
            f"{where} must be an object of settings, got {type(value).__name__}"
        )
    valid = [spec.name for spec in dataclasses.fields(cls)]
    prefix = path + "." if path else ""
    unknown = [
        f"'{prefix}{key}'{_did_you_mean(key, valid)}"
        for key in value
        if key not in valid
    ]
    if unknown:
        raise ConfigError(
            f"unknown key{'s' if len(unknown) > 1 else ''} {', '.join(unknown)}; "
            f"valid keys of {where}: {', '.join(valid)}"
        )
    for spec in dataclasses.fields(cls):
        required = spec.default is spec.default_factory is dataclasses.MISSING
        if required and spec.name not in value:
            raise ConfigError(f"{prefix}{spec.name} is required")
    return cls(**value)


class _Section:
    """Base of the config dataclasses: one validator, run from ``__post_init__``.

    A setting is declared once, on its dataclass field: the annotation
    gives the type (real ``bool``, ``int``, finite ``float``, non-empty
    ``str``, ``Optional[...]`` of those, a nested section or a tuple of
    them) and ``field(metadata=...)`` the range or choices.  Subclasses
    extend ``__post_init__`` with their cross-field rules only.  Every
    :class:`~repro.errors.ConfigError` names the setting by its dotted
    config path (``shards.workers``), which is what lets the CLI rewrite
    it into the flag the operator typed.
    """

    def __post_init__(self) -> None:
        for spec in _schema(type(self)):
            value = getattr(self, spec.name)
            if value is None and spec.optional:
                continue
            if not dataclasses.is_dataclass(spec.base):
                if not _conforms(value, spec):
                    hint = _did_you_mean(value, spec.meta.get("choices", ()))
                    raise ConfigError(
                        f"{self._path(spec.name)} must be {_expected(spec)}, "
                        f"got {value!r}{hint}"
                    )
                continue
            # nested sections arrive as raw mappings from from_dict (and
            # kwargs users); coerce so equality and hashing keep working
            path = self._path(spec.name)
            if not spec.many:
                value = _coerce(spec.base, value, path)
            elif isinstance(value, (list, tuple)):
                value = tuple(
                    _coerce(spec.base, entry, f"{path}[{index}]")
                    for index, entry in enumerate(value)
                )
            else:
                raise ConfigError(
                    f"{path} must be a list of objects of settings, "
                    f"got {type(value).__name__}"
                )
            object.__setattr__(self, spec.name, value)

    @classmethod
    def _path(cls, name: str) -> str:
        """The dotted config path of this section's setting ``name``."""
        return _prefixes()[cls] + name


@dataclass(frozen=True)
class WatermarkConfig(_Section):
    """How the job derives watermarks from the arrival stream.

    ``kind="bounded-delay"`` trusts the source to stay within ``lateness``
    seconds of disorder (watermark = max event time seen - lateness);
    ``kind="punctuation"`` reads the watermark from dedicated marker events
    of type ``punctuation_type`` and ignores ``lateness`` -- mixing the two
    is rejected, exactly like the CLI's ``--lateness`` /
    ``--punctuation-type`` conflict.
    """

    KINDS = ("bounded-delay", "punctuation")

    kind: str = field(default="bounded-delay", metadata={"choices": KINDS})
    lateness: float = field(default=0.0, metadata={"min": 0})
    punctuation_type: Optional[str] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.kind == "punctuation":
            if not self.punctuation_type:
                raise ConfigError(
                    "watermark.kind 'punctuation' requires "
                    "watermark.punctuation_type (the event type carrying the "
                    "watermark)"
                )
            if self.lateness:
                raise ConfigError(
                    "watermark.lateness has no effect with "
                    "watermark.punctuation_type (the watermark is carried by "
                    "punctuation events); set one or the other"
                )
        elif self.punctuation_type is not None:
            raise ConfigError(
                "watermark.punctuation_type requires watermark.kind "
                f"'punctuation' (got kind {self.kind!r})"
            )

    def build(self) -> WatermarkStrategy:
        """The :class:`WatermarkStrategy` this spec describes."""
        if self.kind == "punctuation":
            return PunctuationWatermark(self.punctuation_type)
        return BoundedDelayWatermark(float(self.lateness))


@dataclass(frozen=True)
class LatenessConfig(_Section):
    """What happens to events that arrive behind the watermark.

    This is the single home of the late-event policy: the runtimes and
    :meth:`CograEngine.stream` all resolve their ``late_policy`` keyword
    through it, so the default -- ``"raise"``, mirroring the batch path's
    strictness on disorder -- is declared exactly once.  ``"drop"``
    discards late events (counted in the metrics), ``"side-channel"``
    collects them for out-of-band handling: either persisted to
    ``side_channel_path`` as JSONL, or replayed at end of job into
    ``is_correction=True`` records when ``reprocess`` is set.
    """

    policy: str = field(
        default="raise",
        metadata={"choices": tuple(policy.value for policy in LatePolicy)},
    )
    side_channel_path: Optional[str] = None
    reprocess: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        side_channel = self.policy == LatePolicy.SIDE_CHANNEL.value
        if self.side_channel_path and not side_channel:
            raise ConfigError(
                "late.side_channel_path requires late.policy 'side-channel' "
                f"(got {self.policy!r})"
            )
        if self.reprocess and not side_channel:
            raise ConfigError(
                "late.reprocess requires late.policy 'side-channel' (late events "
                f"must be collected to be replayed; got {self.policy!r})"
            )
        if self.side_channel_path and self.reprocess:
            raise ConfigError(
                "late.side_channel_path and late.reprocess are mutually "
                "exclusive: persist late events for out-of-band handling, or "
                "replay them in-band at end of job -- not both"
            )

    @classmethod
    def of(cls, policy: Union[LatePolicy, str, None]) -> "LatenessConfig":
        """Normalize a ``late_policy`` keyword (member, string or ``None``).

        ``None`` means "the shared default" -- the single place the
        runtimes, :meth:`CograEngine.stream` and the job spec agree on.
        """
        if policy is None:
            return cls()
        if isinstance(policy, LatePolicy):
            policy = policy.value
        return cls(policy=str(policy))

    @property
    def resolved_policy(self) -> LatePolicy:
        """The validated :class:`LatePolicy` member."""
        return LatePolicy(self.policy)


@dataclass(frozen=True)
class RebalanceConfig(_Section):
    """Adaptive shard rebalancing: when the router migrates hash sub-ranges.

    With ``enabled`` the sharded runtime watches the routing load per hash
    slot and moves hot slots -- with their live aggregator state, via the
    checkpoint split/merge path -- from overloaded to underloaded workers.
    ``skew_threshold`` fires a cycle when the busiest worker's load reaches
    that multiple of the mean load (note the busiest of N workers can reach
    at most N times the mean, so keep the threshold below the worker
    count); ``min_interval`` is the number of released events between skew
    checks, checked at the end of each ingest step (each cycle briefly
    quiesces the workers, so this bounds the migration overhead);
    ``max_moves`` caps the slots migrated per cycle; ``slots_per_worker``
    sets the router granularity (hash slots = ``slots_per_worker`` x
    workers).
    """

    enabled: bool = False
    skew_threshold: float = field(default=1.5, metadata={"above": 1})
    min_interval: int = field(default=512, metadata={"min": 1})
    max_moves: int = field(default=4, metadata={"min": 1})
    slots_per_worker: int = field(default=16, metadata={"min": 1})


@dataclass(frozen=True)
class ReplanConfig(_Section):
    """Adaptive granularity re-planning: the online cost-model control loop.

    With ``enabled`` the runtime periodically re-evaluates the cost model
    against *observed* per-query statistics (mean events per open
    sub-stream, match rate) and live-migrates a query whose chosen
    granularity stopped being optimal -- through the checkpoint
    snapshot/restore path, so answers never change, only cost.
    ``check_interval_events`` is the number of ingested events between
    checks; ``hysteresis`` is the fractional cost margin the current plan
    must be beaten by before a migration happens (borderline queries keep
    their plan instead of flapping); ``max_migrations`` caps the queries
    migrated per check; ``ewma_alpha`` is the smoothing factor of the
    observed-statistics EWMAs (1.0 trusts only the latest check).
    """

    enabled: bool = False
    check_interval_events: int = field(default=2048, metadata={"min": 1})
    hysteresis: float = field(default=0.25, metadata={"min": 0})
    max_migrations: int = field(default=4, metadata={"min": 1})
    ewma_alpha: float = field(default=0.5, metadata={"above": 0, "max": 1})


@dataclass(frozen=True)
class ShardConfig(_Section):
    """The process topology: worker count and batching/recovery knobs.

    ``workers=1`` runs the whole job in-process on a
    :class:`~repro.streaming.runtime.StreamingRuntime`; more workers shard
    the stream by partition key across processes
    (:class:`~repro.streaming.sharded.ShardedRuntime`).  The remaining
    fields only apply to the sharded topology.  ``ship_interval`` is how
    many released events the parent gathers before it ships a wave,
    checked at the end of each ingest step; the push reaching a window
    edge -- a time edge, or a count window's next ordinal edge -- ships at
    once whatever it is, so it never moves a watermark stamp.
    ``max_batch`` ships a worker's outbox at the end of the step in which
    it reaches that size.  ``rebalance`` configures live migration of hot
    hash ranges between the workers (:class:`RebalanceConfig`).
    """

    workers: int = field(default=1, metadata={"min": 1})
    ship_interval: int = field(default=64, metadata={"min": 1})
    max_batch: int = field(default=512, metadata={"min": 1})
    max_restarts: int = field(default=0, metadata={"min": 0})
    start_method: Optional[str] = None
    rebalance: RebalanceConfig = field(default_factory=RebalanceConfig)


@dataclass(frozen=True)
class BatchConfig(_Section):
    """Hot-path batching: the decode granularity.

    ``decode_batch_size`` is how many events the driver pulls from the
    source (and pushes through the runtime) per slice; larger slices
    amortise per-event Python overhead, smaller ones reduce emission
    latency.  When checkpointing is on, the effective slice size is
    clamped so no slice straddles a checkpoint boundary.
    """

    decode_batch_size: int = field(default=256, metadata={"min": 1})


@dataclass(frozen=True)
class CheckpointConfig(_Section):
    """Periodic checkpointing and recovery of the job.

    ``dir`` names the on-disk :class:`~repro.streaming.checkpoint.
    CheckpointStore`; ``interval`` checkpoints every N ingested events
    (incremental deltas, compacted every ``compact_every`` checkpoints,
    written on a background thread unless ``background=False``);
    ``recover`` resumes the job from the newest checkpoint in ``dir`` --
    and, combined with ``interval`` on a sharded topology, also restarts
    crashed workers from checkpoints instead of aborting.
    """

    dir: Optional[str] = None
    interval: Optional[int] = field(default=None, metadata={"min": 1})
    background: bool = True
    compact_every: int = field(default=8, metadata={"min": 1})
    recover: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.interval is not None and not self.dir:
            raise ConfigError(
                "checkpoint.interval requires checkpoint.dir "
                "(where the incremental checkpoints are stored)"
            )
        if self.recover and not self.dir:
            raise ConfigError(
                "checkpoint.recover requires checkpoint.dir (the store to resume from)"
            )
        if self.dir and self.interval is None and not self.recover:
            raise ConfigError(
                "checkpoint.dir does nothing by itself; add checkpoint.interval "
                "to write periodic checkpoints and/or checkpoint.recover to "
                "resume from the store"
            )

    def build_store(self, registry=None) -> Optional[CheckpointStore]:
        """Open the configured :class:`CheckpointStore`, or ``None``.

        ``registry`` is an optional
        :class:`~repro.streaming.observability.MetricsRegistry` the store
        records write/restore durations and bytes into (the Job facade
        passes the runtime's, so checkpoint metrics land in the exported
        view).
        """
        if not self.dir:
            return None
        return CheckpointStore(
            self.dir,
            compact_every=self.compact_every,
            background=self.background,
            registry=registry,
        )


@dataclass(frozen=True)
class BackpressureConfig(_Section):
    """Bounded decoupling between ingestion and the slower pipeline ends.

    ``max_inflight`` bounds the worker inboxes of a sharded topology: at
    most that many shipped epochs may await worker acknowledgement before
    ingestion blocks (the bounded-queue half of backpressure).
    ``poll_interval_seconds`` paces the driver loop's
    :meth:`~repro.streaming.sources.Sink.ready` polls while a sink reports
    no capacity; ``max_wait_seconds`` turns a permanently stalled sink
    into an error instead of an unbounded hang (``null`` waits forever,
    like a blocking producer).  Both wait kinds are surfaced as
    ``backpressure_waits`` / ``backpressure_seconds`` in the metrics
    registry.
    """

    max_inflight: int = field(default=64, metadata={"min": 1})
    poll_interval_seconds: float = field(default=0.01, metadata={"above": 0})
    max_wait_seconds: Optional[float] = field(default=None, metadata={"above": 0})


@dataclass(frozen=True)
class ObsConfig(_Section):
    """Observability: metrics export, lifecycle tracing, Prometheus endpoint.

    ``metrics_export_path`` appends periodic registry snapshots (every
    ``metrics_interval_seconds``) as JSONL time-series samples;
    ``trace_path`` + ``trace_sample_rate`` emit sampled lifecycle span
    trees (ingest -> route -> execute -> emit, plus checkpoint / recovery /
    rebalance operations) as JSONL; ``prometheus_port`` serves the most
    recent snapshot in the Prometheus text format on localhost (``0``
    binds an ephemeral port).  All default to off -- the runtime still
    collects its registry metrics, it just exports nothing.
    """

    metrics_export_path: Optional[str] = None
    metrics_interval_seconds: float = field(default=10.0, metadata={"above": 0})
    trace_path: Optional[str] = None
    trace_sample_rate: float = field(default=0.0, metadata={"min": 0, "max": 1})
    prometheus_port: Optional[int] = field(
        default=None, metadata={"min": 0, "max": 65535}
    )

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.trace_path and not self.trace_sample_rate:
            raise ConfigError(
                "observability.trace_path requires a positive "
                "observability.trace_sample_rate (no span is ever sampled at "
                "rate 0)"
            )
        if self.trace_sample_rate and not self.trace_path:
            raise ConfigError(
                "observability.trace_sample_rate requires "
                "observability.trace_path (where the sampled spans are written)"
            )

    @property
    def exports_anything(self) -> bool:
        """Whether any exporter/endpoint is configured."""
        return bool(
            self.metrics_export_path
            or self.trace_path
            or self.prometheus_port is not None
        )

    def build_observability(self, namespace: Optional[Dict[str, object]] = None):
        """The :class:`~repro.streaming.observability.Observability` bundle.

        Always enabled (metric collection is cheap and the registry feeds
        checkpoints); tracing is attached only when configured, every root
        span stamped with ``namespace`` (the job server's ``job_id`` and
        ``tenant``).
        """
        from repro.streaming.observability import (
            JsonlTraceSink,
            Observability,
            Tracer,
        )

        tracer = None
        if self.trace_path and self.trace_sample_rate:
            tracer = Tracer(
                sample_rate=float(self.trace_sample_rate),
                sink=JsonlTraceSink(self.trace_path),
                namespace=namespace,
            )
        return Observability(tracer=tracer)

    def build_exporter(self):
        """The configured JSONL exporter, or ``None`` when nothing exports.

        A Prometheus endpoint without an export path still needs the
        exporter (with ``path=None``) -- it serves the exporter's most
        recent cached snapshot.
        """
        if not self.metrics_export_path and self.prometheus_port is None:
            return None
        from repro.streaming.observability import JsonlMetricsExporter

        return JsonlMetricsExporter(
            self.metrics_export_path,
            interval=float(self.metrics_interval_seconds),
        )


@dataclass(frozen=True)
class LogSourceConfig(_Section):
    """A Kafka-style partitioned log as the job's source.

    ``dir`` names the log directory (see
    :class:`~repro.streaming.sources.PartitionedLogSource`); consumer
    offsets are checkpointed with the runtime state, so ``--recover``
    resumes from the committed offset without re-reading the prefix.  The
    partition count and segment layout are read from the directory.
    """

    dir: Optional[str] = None


@dataclass(frozen=True)
class SourceConfig(_Section):
    """Where the job's events come from, as a ``--source``-style spec.

    ``"-"`` reads JSONL from stdin, ``tail:PATH`` follows a growing JSONL
    file, ``tcp://HOST:PORT`` connects to a JSONL socket, ``log:DIR``
    reads a partitioned log directory, and anything else reads a static
    JSONL file (see :func:`~repro.streaming.sources.open_source`).  The
    ``log`` section is the typed alternative to ``log:DIR``.
    """

    spec: str = "-"
    log: LogSourceConfig = field(default_factory=LogSourceConfig)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.log.dir is not None and self.spec != "-":
            raise ConfigError(
                f"source.log.dir and source.spec {self.spec!r} are both set; "
                f"a job reads from one place -- drop one of them"
            )

    def build(self) -> EventSource:
        """Open the configured :class:`EventSource`."""
        if self.log.dir is not None:
            return PartitionedLogSource(self.log.dir)
        return open_source(self.spec)


@dataclass(frozen=True)
class SinkConfig(_Section):
    """Where the job's emitted records go.

    ``None`` collects them in memory (returned by :meth:`Job.results`),
    ``"-"``/``"stdout"`` writes JSON lines to stdout, anything else writes
    a JSONL file (see :func:`~repro.streaming.sources.open_sink`).

    ``exactly_once`` upgrades a file sink to a
    :class:`~repro.streaming.sources.TransactionalSink`: duplicate
    ``(query, window, group)`` deliveries are suppressed and the delivered
    offset is checkpointed atomically with the runtime state, so a crash
    between emit and checkpoint recovers without double-delivery.  It
    requires a real file path -- stdout cannot be truncated back to a
    committed offset.
    """

    spec: Optional[str] = None
    exactly_once: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.exactly_once and self.spec in (None, "-", "stdout"):
            raise ConfigError(
                "sink.exactly_once requires sink.spec to name a file (the "
                "delivered prefix must be truncatable on recovery; stdout and "
                "in-memory collection are not)"
            )

    def build(self, recover: bool = False) -> Optional[Sink]:
        """Open the configured :class:`Sink`, or ``None`` to collect.

        ``recover`` matters only for exactly-once sinks: it preserves the
        existing file until checkpoint recovery truncates it back to the
        committed offset (a fresh start truncates immediately).
        """
        if self.exactly_once:
            return TransactionalSink(self.spec, recover=recover)
        return open_sink(self.spec)


@dataclass(frozen=True)
class QueryConfig(_Section):
    """One query of the job: text plus its per-query execution settings."""

    text: str
    name: Optional[str] = None
    granularity: Optional[str] = field(
        default=None, metadata={"choices": GRANULARITIES}
    )
    emit_empty_groups: Optional[bool] = None


@dataclass(frozen=True)
class JobConfig(_Section):
    """The complete declarative description of one streaming job.

    Composes the component specs above; an instance is immutable,
    hashable, comparable and serializable: ``JobConfig.from_dict(c.to_dict())
    == c`` holds for every valid config (property-tested), and
    :meth:`load` reads the same dictionary shape from JSON or TOML files.
    Use :func:`dataclasses.replace` to derive variants.
    """

    queries: Tuple[QueryConfig, ...] = ()
    watermark: WatermarkConfig = field(default_factory=WatermarkConfig)
    late: LatenessConfig = field(default_factory=LatenessConfig)
    shards: ShardConfig = field(default_factory=ShardConfig)
    batch: BatchConfig = field(default_factory=BatchConfig)
    checkpoint: CheckpointConfig = field(default_factory=CheckpointConfig)
    source: SourceConfig = field(default_factory=SourceConfig)
    sink: SinkConfig = field(default_factory=SinkConfig)
    backpressure: BackpressureConfig = field(default_factory=BackpressureConfig)
    observability: ObsConfig = field(default_factory=ObsConfig)
    replan: ReplanConfig = field(default_factory=ReplanConfig)
    emit_empty_groups: bool = False

    # -- serialization ---------------------------------------------------------

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "JobConfig":
        """Build a config from the dictionary shape :meth:`to_dict` writes.

        Unknown keys -- at any nesting level -- are rejected with a
        :class:`~repro.errors.ConfigError` naming the closest valid key,
        so a typo'd setting fails loudly instead of being ignored.
        """
        return _coerce(cls, data, "")

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dictionary form; the inverse of :meth:`from_dict`."""
        return dataclasses.asdict(self)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "JobConfig":
        """Load a config from a JSON (default) or TOML (``.toml``) file."""
        return cls.from_dict(read_config_file(path))

    # -- resolution ------------------------------------------------------------

    def resolved_names(self) -> Tuple[str, ...]:
        """The emission names of the queries: explicit or ``q1``, ``q2``...."""
        return tuple(
            query.name or f"q{index}"
            for index, query in enumerate(self.queries, start=1)
        )

    def validate(self) -> "JobConfig":
        """Cross-field validation beyond what each component checks locally.

        Raises :class:`~repro.errors.ConfigError` for conflicts, and warns
        (``RuntimeWarning``) when a multi-worker topology cannot actually
        shard the registered queries.  Returns ``self`` for chaining.
        """
        if not self.queries:
            raise ConfigError("a job needs at least one query (queries is empty)")
        names = self.resolved_names()
        duplicates = sorted({name for name in names if names.count(name) > 1})
        if duplicates:
            raise ConfigError(
                f"duplicate query names {duplicates}; every query emits under "
                "a unique name (explicit or positional q1, q2, ...)"
            )
        side_channel = self.late.policy == LatePolicy.SIDE_CHANNEL.value
        if side_channel and not (self.late.side_channel_path or self.late.reprocess):
            raise ConfigError(
                "late.policy 'side-channel' requires late.side_channel_path "
                "(where the late events are persisted) or late.reprocess=true "
                "(replay them at end of job); otherwise late events pile up "
                "unobserved -- use the 'drop' policy instead"
            )
        if self.late.reprocess:
            reason = late_replay_reason(
                {name: count for name, (_, _, count) in self._plan_facts().items()}
            )
            if reason is not None:
                raise ConfigError(reason)
        if self.shards.workers > 1:
            self._warn_unshardable()
        return self

    def _plan_facts(self) -> Dict[str, Tuple[Tuple[str, ...], str, bool]]:
        """Per query name, the static facts of :func:`_query_plan_info`."""
        return {
            name: _query_plan_info(query.text, query.granularity)
            for name, query in zip(self.resolved_names(), self.queries)
        }

    def _warn_unshardable(self) -> None:
        """Warn when workers>1 will fall back to a single shard.

        The warning is the :attr:`ShardedRuntime.fallback_reason` the
        runtime reports (:func:`~repro.core.partitioner.single_shard_reason`).
        """
        reason = single_shard_reason(
            {
                name: (keys, count)
                for name, (keys, _, count) in self._plan_facts().items()
            }
        )
        if reason is not None:
            warnings.warn(reason, RuntimeWarning, stacklevel=3)

    def granularity_plan(self) -> Dict[str, str]:
        """Per-query granularity the static analyzer resolves (dry runs)."""
        return {
            name: _query_plan_info(query.text, query.granularity)[1]
            for name, query in zip(self.resolved_names(), self.queries)
        }

    # -- building --------------------------------------------------------------

    def build_runtime(
        self,
        watermark_strategy: Optional[WatermarkStrategy] = None,
        register: bool = True,
        observability=None,
    ):
        """Resolve the runtime this spec describes.

        Returns a :class:`~repro.streaming.sharded.ShardedRuntime` when
        ``shards.workers > 1``, a :class:`~repro.streaming.runtime.
        StreamingRuntime` otherwise, with the queries registered under
        their resolved names (``register=False`` skips registration --
        :meth:`CograEngine.stream` registers its own engine instead).
        ``watermark_strategy`` and ``observability`` override the
        declarative specs with explicit strategy/bundle objects (they
        cannot be serialized, so they never live *in* the config).
        """
        strategy = watermark_strategy or self.watermark.build()
        if observability is None:
            observability = self.observability.build_observability()
        if self.shards.workers > 1:
            from repro.streaming.sharded import ShardedRuntime

            runtime = ShardedRuntime(
                workers=self.shards.workers,
                watermark_strategy=strategy,
                late_policy=self.late.policy,
                emit_empty_groups=self.emit_empty_groups,
                ship_interval=self.shards.ship_interval,
                max_batch=self.shards.max_batch,
                max_restarts=self.shards.max_restarts,
                start_method=self.shards.start_method,
                rebalance=self.shards.rebalance,
                max_inflight=self.backpressure.max_inflight,
                observability=observability,
                replan=self.replan,
            )
        else:
            from repro.streaming.runtime import StreamingRuntime

            runtime = StreamingRuntime(
                watermark_strategy=strategy,
                late_policy=self.late.policy,
                emit_empty_groups=self.emit_empty_groups,
                observability=observability,
                replan=self.replan,
            )
        if register:
            for name, query in zip(self.resolved_names(), self.queries):
                runtime.register(
                    query.text,
                    name=name,
                    granularity=query.granularity,
                    emit_empty_groups=query.emit_empty_groups,
                )
        return runtime


@dataclass(frozen=True)
class TenantConfig(_Section):
    """Admission-control quotas for one tenant of the job server.

    Every limit is optional (``None`` means unlimited):

    * ``max_events_per_second`` throttles the tenant's jobs at the source
      driver via one token bucket *shared by all the tenant's jobs* (N
      concurrent jobs split the rate, they do not each get it) -- the
      scheduler feeds a job only the events the bucket can pay for, so a
      tenant over its rate is slowed, never failed;
    * ``burst`` is the bucket capacity (defaults to one second's worth of
      tokens), bounding how far a briefly-idle tenant can catch up;
    * ``max_state_bytes`` caps the serialized aggregator state of each
      job, enforced at checkpoint time
      (:class:`~repro.errors.StateQuotaError` fails the job);
    * ``max_concurrent_jobs`` bounds the tenant's live (pending or
      running) jobs; one more submit is rejected with
      :class:`~repro.errors.ConcurrencyQuotaError`.
    """

    name: str
    max_events_per_second: Optional[float] = field(default=None, metadata={"above": 0})
    burst: Optional[float] = field(default=None, metadata={"above": 0})
    max_state_bytes: Optional[int] = field(default=None, metadata={"min": 1})
    max_concurrent_jobs: Optional[int] = field(default=None, metadata={"min": 1})

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.burst is not None and self.max_events_per_second is None:
            raise ConfigError(
                f"tenant {self.name!r} sets tenants[].burst without "
                f"tenants[].max_events_per_second; burst is the rate limiter's "
                f"bucket capacity"
            )


@dataclass(frozen=True)
class ServerConfig(_Section):
    """The multi-tenant job server: endpoint, working directory, tenants.

    ``host``/``port`` are the local socket the newline-delimited JSON
    protocol listens on (``port=0`` binds an ephemeral port -- read the
    bound address from the running server); ``dir`` is the server's
    working directory, under which every job gets its own checkpoint
    directory (``<dir>/checkpoints/<job_id>``; ``None`` uses a fresh
    temporary directory).  ``tenants`` declares the known tenants and
    their quotas -- an empty tuple accepts any tenant name, unlimited.
    ``queue_slices`` bounds each job's prefetch queue between its source
    feeder and the scheduler (per-job backpressure);
    ``poll_interval_seconds`` paces the scheduler when no job has work.
    """

    host: str = "127.0.0.1"
    port: int = field(default=0, metadata={"min": 0, "max": 65535})
    dir: Optional[str] = None
    tenants: Tuple[TenantConfig, ...] = ()
    queue_slices: int = field(default=4, metadata={"min": 1})
    poll_interval_seconds: float = field(default=0.005, metadata={"above": 0})

    def __post_init__(self) -> None:
        super().__post_init__()
        names = [tenant.name for tenant in self.tenants]
        duplicates = sorted({name for name in names if names.count(name) > 1})
        if duplicates:
            raise ConfigError(f"duplicate tenant names {duplicates} in tenants")

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ServerConfig":
        """Build a server config from its dictionary form (JSON/TOML)."""
        return _coerce(cls, data, "")

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dictionary form; the inverse of :meth:`from_dict`."""
        return dataclasses.asdict(self)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ServerConfig":
        """Load a server config from a JSON (default) or TOML file."""
        return cls.from_dict(read_config_file(path))

    def tenant(self, name: str) -> TenantConfig:
        """The named tenant's quotas.

        With no tenants declared, any name is admitted unlimited; with a
        tenant list, unknown names are rejected
        (:class:`~repro.errors.ConfigError`) -- declaring tenants IS the
        admission list.
        """
        for tenant in self.tenants:
            if tenant.name == name:
                return tenant
        if not self.tenants:
            return TenantConfig(name=name)
        known = ", ".join(sorted(tenant.name for tenant in self.tenants))
        raise ConfigError(
            f"unknown tenant {name!r}; this server admits only: {known}"
        )


def read_config_file(path: Union[str, Path]) -> Dict[str, object]:
    """Read a job-config file into its raw dictionary form.

    JSON by default, TOML for ``.toml`` suffixes (requires Python 3.11+,
    whose standard library bundles ``tomllib``).  The CLI merges this raw
    form with flag overrides before :meth:`JobConfig.from_dict` validates
    the result; library users normally call :meth:`JobConfig.load`.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read job config {path}: {exc}") from exc
    if path.suffix.lower() == ".toml":
        try:
            import tomllib
        except ImportError:  # pragma: no cover - py<3.11 only
            raise ConfigError(
                f"loading TOML job configs requires Python 3.11+ "
                f"(tomllib); convert {path.name} to JSON or upgrade"
            ) from None
        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise ConfigError(f"invalid TOML in {path}: {exc}") from exc
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(
            f"the config in {path} must be an object of settings, "
            f"got {type(data).__name__}"
        )
    return data


def merge_config_layers(*layers: Dict[str, object]) -> Dict[str, object]:
    """Deep-merge raw config dictionaries, later layers winning key by key.

    The CLI's override semantics: defaults < ``--config`` file < explicit
    flags.  Nested dictionaries merge recursively; anything else (lists
    included -- a flag-provided query list replaces the file's) is
    replaced wholesale.
    """
    merged: Dict[str, object] = {}
    for layer in layers:
        for key, value in layer.items():
            if isinstance(value, dict) and isinstance(merged.get(key), dict):
                merged[key] = merge_config_layers(merged[key], value)
            else:
                merged[key] = value
    return merged


# ---------------------------------------------------------------------------
# checkpoint recovery shared by the Job facade and the CLI
# ---------------------------------------------------------------------------


@dataclass
class ResumeInfo:
    """Outcome of resuming a job from its checkpoint store.

    ``source`` is the effective source to drive (wrapped in a
    :class:`~repro.streaming.sources.SkippingSource` when the original
    replays an already-ingested prefix), ``notes`` the human-readable
    progress lines the CLI prints to stderr.
    """

    source: EventSource
    notes: List[str]
    checkpoint_id: Optional[int] = None
    skipped: int = 0


def resume_job(
    runtime,
    store: CheckpointStore,
    source: EventSource,
    sink: Optional[Sink] = None,
) -> ResumeInfo:
    """Restore ``runtime`` from the newest checkpoint in ``store``.

    Starts fresh (with a note) when the store is empty.  The source
    resumes where the checkpoint left off, preferring exactness and
    efficiency in this order:

    * an offset-aware source (:class:`PartitionedLogSource`) seeks to the
      checkpointed per-partition offsets -- the committed prefix is never
      re-read;
    * a replayable source -- static or tailed files, which re-deliver the
      stream from the beginning on a restart -- is wrapped in a
      :class:`SkippingSource` so the already-ingested prefix is skipped;
    * live sources (sockets, stdin pipes) deliver fresh data and are left
      alone, with a warning note that the producer must resume where the
      checkpoint left off.

    A ``sink`` exposing ``restore()`` (the
    :class:`~repro.streaming.sources.TransactionalSink`) is rolled back to
    the delivered offset stored in the same checkpoint -- or to empty when
    no checkpoint exists -- so the replayed suffix is delivered exactly
    once.
    """
    state = store.load_latest()
    if state is None:
        if sink is not None and hasattr(sink, "restore"):
            # a fresh start replays everything; whatever an earlier crashed
            # run left in the file would be delivered twice
            sink.restore(None)
        return ResumeInfo(
            source=source,
            notes=[f"no checkpoint in {store.directory}; starting fresh"],
        )
    runtime.restore(state)
    ingested = int(state["metrics"].get("events_ingested", 0))
    # punctuation events consumed source lines too without counting as
    # ingested data events; the skip must cover every line the
    # checkpointed run read
    consumed = ingested + int(state["metrics"].get("punctuations_seen", 0))
    checkpoint_id = store.latest_id()
    notes = [f"resumed from checkpoint {checkpoint_id} ({ingested} events in)"]
    skipped = 0
    offsets = state.get("source_offsets")
    if offsets is not None and hasattr(source, "seek"):
        source.seek(offsets)
        skipped = sum(int(offset) for offset in offsets.values())
        notes.append(
            f"seeking the partitioned log to its committed offsets "
            f"({skipped} records already consumed)"
        )
    elif getattr(source, "replayable", False):
        source = SkippingSource(source, consumed)
        skipped = consumed
        notes.append(
            f"skipping the {consumed} already-ingested events of the "
            "replayed input"
        )
    elif consumed:
        notes.append(
            "warning: this source type does not replay from the start; "
            "events are NOT skipped -- ensure the producer resumes where "
            "the checkpoint left off"
        )
    if sink is not None and hasattr(sink, "restore"):
        sink_state = state.get("sink")
        if sink_state is not None:
            sink.restore(sink_state)
            notes.append(
                f"sink rolled back to the committed offset "
                f"({sink_state.get('records', '?')} records, "
                f"{sink_state.get('bytes', '?')} bytes)"
            )
        else:
            notes.append(
                "warning: the checkpoint carries no sink state (was it "
                "written without exactly_once?); the sink file is left "
                "as-is and delivery is at-least-once for this resume"
            )
    return ResumeInfo(
        source=source, notes=notes, checkpoint_id=checkpoint_id, skipped=skipped
    )


# ---------------------------------------------------------------------------
# the Job facade
# ---------------------------------------------------------------------------


class Job:
    """Lifecycle facade over one :class:`JobConfig`: the public job API.

    ``start()`` builds the runtime, opens source/sink/store, performs
    checkpoint recovery and opens the :attr:`session` the job is driven
    through (a failure is a :class:`~repro.errors.JobStartError` naming
    the setting); ``records()`` drives the pipeline lazily -- every record
    enters the configured sink inside the session, then is yielded -- and
    ``results()`` is the cached list of that; ``metrics`` exposes the
    runtime's counters; ``checkpoint()`` snapshots mid-stream state
    (persisted when a store is open); ``stop()`` is the one teardown
    (idempotent, also called automatically when the drive ends).

    ``records()`` is a plain loop over the step-wise form, which a host
    that interleaves many jobs (the job server's scheduler) runs itself:
    ``session.batches()`` pulls source slices, ``session.step(batch)``
    runs one, :meth:`finish` flushes after the last, ``stop()`` tears down.

    ``stop()`` and ``results()`` are safe to call from a second thread:
    ``stop()`` during a live drive cancels it -- the source is closed to
    unblock the driving thread, which performs the actual teardown and
    returns the records emitted so far -- and concurrent ``results()``
    calls serialize, the late ones returning the first one's collected
    list.

    ``events`` overrides the configured source with an in-memory iterable
    or :class:`EventSource` (tests, embedded use); ``sink`` overrides the
    configured sink with a :class:`Sink` instance the job does not close.
    What belongs to a host rather than to the job description is passed
    the same way: ``observability`` replaces the bundle built from
    ``config.observability`` (the server namespaces its tracer per job),
    and ``store`` with ``checkpoint_interval`` replaces the store built
    from ``config.checkpoint`` (the server keeps each job's under its own
    directory, capped at the tenant's quota); the job closes that store.

    Example
    -------
    ::

        records = job(config, events=feed).results()

        with job("job.json").start() as running:
            snapshot = running.checkpoint()
    """

    def __init__(
        self,
        config: Union[JobConfig, Dict[str, object], str, Path],
        events: Optional[Union[EventSource, Iterable[Event]]] = None,
        sink: Optional[Sink] = None,
        *,
        observability=None,
        store: Optional[CheckpointStore] = None,
        checkpoint_interval: Optional[int] = None,
    ):
        if isinstance(config, (str, Path)):
            config = JobConfig.load(config)
        elif isinstance(config, dict):
            config = JobConfig.from_dict(config)
        elif not isinstance(config, JobConfig):
            raise ConfigError(
                f"job() takes a JobConfig, a config dict or a config file "
                f"path, got {type(config).__name__}"
            )
        config.validate()
        self.config = config
        self._events = events
        #: a sink passed in from outside outlives the job; a built one doesn't
        self._owns_sink = sink is None
        self._observability = observability
        self._runtime = None
        self._source: Optional[EventSource] = None
        self._sink = sink
        self._store = store
        self._checkpoint_interval = (
            config.checkpoint.interval if store is None else checkpoint_interval
        )
        self._late_sink = None
        self._exporter = None
        self._prometheus = None
        #: the :class:`~repro.streaming.runtime.DriveSession` opened by
        #: :meth:`start`; ``None`` until then
        self.session = None
        self._records: Optional[List[EmissionRecord]] = None
        self._started = False
        self._stopped = False
        #: protects the lifecycle flags; re-entrant so stop() may run
        #: inside the driving thread's finally while it holds the lock
        self._lock = threading.RLock()
        #: serializes concurrent results() callers (the drive runs once)
        self._results_lock = threading.Lock()
        self._stop_requested = threading.Event()
        #: True while a records() drive is live; a concurrent stop() then
        #: only cancels (closes the source) and leaves the teardown to
        #: the driving thread
        self._driving = False
        #: human-readable recovery notes, populated by :meth:`start`
        self.resume_notes: List[str] = []

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "Job":
        """Build the pipeline and perform checkpoint recovery; returns self."""
        from repro.streaming.runtime import DriveSession

        with self._lock:
            if self._started:
                raise RuntimeError("this job was already started")
            if self._stopped:
                raise RuntimeError("this job was stopped; build a new one")
            self._started = True
            config = self.config
            try:
                self._runtime = config.build_runtime(observability=self._observability)
                if self._events is not None:
                    self._source = as_source(self._events)
                else:
                    log_dir = config.source.log.dir is not None
                    self._source = self._open(
                        "source.log.dir" if log_dir else "source.spec",
                        config.source.build,
                    )
                if self._owns_sink:
                    self._sink = self._open(
                        "sink.spec",
                        lambda: config.sink.build(recover=config.checkpoint.recover),
                    )
                self._open("checkpoint.dir", self._open_store)
                self._exporter = self._open(
                    "observability.metrics_export_path",
                    config.observability.build_exporter,
                )
                if config.observability.prometheus_port is not None:
                    from repro.streaming.observability import PrometheusTextServer

                    self._prometheus = self._open(
                        "observability.prometheus_port",
                        PrometheusTextServer(
                            lambda: self._exporter.latest,
                            port=config.observability.prometheus_port,
                        ).start,
                    )
                if config.late.side_channel_path:
                    # truncate: the file holds THIS run's late events --
                    # appending across runs would replay stale ones
                    self._late_sink = self._open(
                        "late.side_channel_path",
                        lambda: open(
                            config.late.side_channel_path, "w", encoding="utf-8"
                        ),
                    )
                interval = self._checkpoint_interval
                self.session = DriveSession(
                    self._runtime,
                    self._source,
                    checkpoint_store=self._store if interval else None,
                    checkpoint_interval=interval,
                    on_late=self._persist_late if self._late_sink is not None else None,
                    metrics_exporter=self._exporter,
                    sink=self._sink,
                    backpressure=config.backpressure,
                    decode_batch_size=config.batch.decode_batch_size,
                )
            except Exception:
                self.stop()
                raise
        return self

    @staticmethod
    def _open(path: str, opener):
        """Run one start-up step; its failure names the setting at ``path``."""
        try:
            return opener()
        except (CograError, OSError) as exc:
            raise JobStartError(path, exc) from exc

    def _open_store(self) -> None:
        """Open the checkpoint store and, with ``recover``, resume from it."""
        if self._store is None:
            self._store = self.config.checkpoint.build_store(
                registry=self._runtime.observability.registry
            )
        if self._store is not None and self.config.checkpoint.recover:
            # the sink is open already, so an exactly-once sink is rolled
            # back to the offset committed inside the restored checkpoint
            info = resume_job(self._runtime, self._store, self._source, self._sink)
            self._source = info.source
            self.resume_notes = info.notes

    def finish(self) -> Iterator[EmissionRecord]:
        """Flush after the last slice; deliver and yield the tail records.

        With ``late.reprocess`` the side-channelled late events are then
        replayed into ``is_correction=True`` records.
        """
        yield from self.session.finish()
        if self.config.late.reprocess:
            yield from self.session.deliver(self._runtime.reprocess_late())

    def records(self) -> Iterator[EmissionRecord]:
        """Run the job lazily: each record is in the sink when it is yielded.

        Starts the job if :meth:`start` was not called yet.  Nothing is
        retained, so an unbounded stream runs in bounded memory; the job
        is stopped when the generator ends -- exhausted, closed or failed
        -- and cannot be driven again.

        A concurrent :meth:`stop` cancels the run between source slices:
        the generator just ends early.
        """
        with self._lock:
            if not self._started:
                self.start()
            if self._stopped:
                raise RuntimeError(
                    "this job already ran, was stopped or failed; build a new one"
                )
            self._driving = True
        try:
            try:
                for batch in self.session.batches():
                    if self._stop_requested.is_set():
                        return
                    yield from self.session.step(batch)
            except Exception:
                if not self._stop_requested.is_set():
                    raise
                # a concurrent stop() closed the source under the reading
                # thread; whatever the read raised is the cancellation
                return
            if not self._stop_requested.is_set():
                yield from self.finish()
        finally:
            with self._lock:
                self._driving = False
            self.stop()

    def results(self) -> List[EmissionRecord]:
        """Run the job to completion; return every emitted record.

        The cached ``list`` of :meth:`records`: the collected records stay
        available from repeated calls, and concurrent callers serialize
        (only one drives the pipeline).  A cancelled run caches the
        records emitted so far; a failed run caches nothing and keeps
        raising, never serving a partial list as if the job had completed.
        """
        with self._results_lock:
            if self._records is None:
                self._records = list(self.records())
            return self._records

    def stop(self) -> None:
        """Release every resource the job holds (idempotent, thread-safe).

        Every resource is closed even when an earlier ``close()`` raises;
        the first such error is re-raised once all were attempted.

        Called while another thread is driving :meth:`records`, it cancels
        the run instead: the source is closed (unblocking a live read)
        and the driving thread -- which notices between slices -- does
        the actual teardown and returns the records emitted so far.
        """
        with self._lock:
            self._stop_requested.set()
            if self._driving:
                if self._source is not None:
                    self._source.close()
                return
            if self._stopped:
                return
            self._stopped = True
            steps = []
            if self._late_sink is not None:
                # an abandoned drive (consumer gone, failed slice) must not
                # lose the late events its last slice side-channelled
                steps.append(
                    lambda: self._persist_late(self._runtime.take_late_events())
                )
            steps += [
                resource.close
                for resource in (
                    self._source,
                    self._late_sink,
                    self._prometheus,
                    self._runtime,
                    self._exporter,
                    self._sink if self._owns_sink else None,
                    self._store,
                )
                if resource is not None
            ]
            first_error = None
            for step in steps:
                try:
                    step()
                except Exception as exc:
                    if first_error is None:
                        first_error = exc
            if first_error is not None:
                raise first_error

    def __enter__(self) -> "Job":
        if not self._started:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- introspection and control --------------------------------------------

    @property
    def metrics(self):
        """The runtime's :class:`StreamingMetrics` (requires a started job)."""
        if self._runtime is None:
            raise RuntimeError("the job is not started; call start() first")
        return self._runtime.metrics

    @property
    def runtime(self):
        """The underlying runtime (requires a started job)."""
        if self._runtime is None:
            raise RuntimeError("the job is not started; call start() first")
        return self._runtime

    @property
    def prometheus_address(self) -> Optional[tuple]:
        """``(host, port)`` of the live Prometheus endpoint, or ``None``."""
        return None if self._prometheus is None else self._prometheus.address

    def checkpoint(self) -> Dict[str, object]:
        """Snapshot the runtime state; persist it when a store is open."""
        if self._runtime is None:
            raise RuntimeError("the job is not started; call start() first")
        snapshot = self._runtime.checkpoint()
        if self._store is not None:
            self._store.save(snapshot)
        return snapshot

    def _persist_late(self, late_events: List[Event]) -> None:
        """Persist side-channelled late events so they never pile up."""
        write_jsonl_events(late_events, self._late_sink)
        self._late_sink.flush()

    def __repr__(self) -> str:
        state = (
            "stopped"
            if self._stopped
            else "started"
            if self._started
            else "unstarted"
        )
        return f"Job({len(self.config.queries)} queries, {state})"


def job(
    config: Union[JobConfig, Dict[str, object], str, Path],
    events: Optional[Union[EventSource, Iterable[Event]]] = None,
    sink: Optional[Sink] = None,
) -> Job:
    """Create a :class:`Job` from a config, config dict or config file path.

    The documented entry point of the declarative API::

        records = repro.job("job.json").results()
        records = repro.job(config, events=feed).results()
    """
    return Job(config, events=events, sink=sink)
