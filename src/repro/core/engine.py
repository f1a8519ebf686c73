"""Public facade of the COGRA runtime.

:class:`CograEngine` is the recommended entry point of the library::

    from repro import CograEngine

    engine = CograEngine.from_text('''
        RETURN patient, MIN(M.rate), MAX(M.rate)
        PATTERN Measurement M+
        SEMANTICS contiguous
        WHERE [patient] AND M.rate < NEXT(M).rate AND M.activity = 'passive'
        GROUP-BY patient
        WITHIN 10 minutes SLIDE 30 seconds
    ''')
    results = engine.run(stream)

The engine wraps the static analyzer and the runtime executor; it can be
used in batch mode (:meth:`run`) or incrementally (:meth:`process` /
:meth:`flush`).
"""

from __future__ import annotations

from typing import Iterable, List, Union

from repro.analyzer.plan import CograPlan, plan_query
from repro.core.executor import QueryExecutor
from repro.core.results import GroupResult
from repro.events.event import Event
from repro.query.parser import parse_query
from repro.query.query import Query


class CograEngine:
    """Evaluate event trend aggregation queries with the COGRA strategy.

    Parameters
    ----------
    query:
        A :class:`~repro.query.query.Query` or the textual form of one.
    emit_empty_groups:
        When True, groups with zero matched trends are emitted as well.
    granularity:
        Optional granularity override (a :class:`~repro.analyzer.granularity.
        Granularity` or its string value).  Only finer, still-correct
        granularities are accepted; used by ablation studies to compare
        COGRA's coarse granularities against GRETA-style event granularity.
    """

    def __init__(
        self,
        query: Union[Query, str],
        emit_empty_groups: bool = False,
        granularity=None,
    ):
        if isinstance(query, str):
            query = parse_query(query)
        self.query: Query = query
        if query.pattern.has_negation:
            # Queries with negated sub-patterns are planned for their positive
            # part and executed with negation-aware aggregators (Section 8).
            from repro.extensions.negation import (
                create_negation_aggregator,
                plan_negated_query,
            )

            self.plan, self.negation_analysis = plan_negated_query(
                query, forced_granularity=granularity
            )
            # compiled once per query, not per (window, group) aggregator
            tables = self.negation_analysis.tables
            self._aggregator_factory = (
                lambda plan: create_negation_aggregator(plan, tables)
            )
        else:
            self.plan: CograPlan = plan_query(query, forced_granularity=granularity)
            self.negation_analysis = None
            self._aggregator_factory = None
        self._emit_empty_groups = emit_empty_groups
        self._stream_active = False
        self._executor = self._build_executor()

    # -- constructors ----------------------------------------------------------------

    @classmethod
    def from_text(cls, text: str, name: str = "") -> "CograEngine":
        """Build an engine from the textual query language."""
        return cls(parse_query(text, name=name))

    # -- evaluation ------------------------------------------------------------------

    def run(self, events: Iterable[Event]) -> List[GroupResult]:
        """Evaluate the query over a finite stream and return all results.

        The engine is reset before the run, so :meth:`run` can be called
        repeatedly with different streams.
        """
        self.reset()
        return self._executor.run(events)

    def process(self, event: Event) -> List[GroupResult]:
        """Feed one event; return results of any windows that closed."""
        self._check_not_streaming("process")
        return self._executor.process(event)

    def flush(self) -> List[GroupResult]:
        """Close all open windows and return their results."""
        self._check_not_streaming("flush")
        return self._executor.flush()

    def advance_time(self, time: float) -> List[GroupResult]:
        """Close (and return) windows ending at or before ``time``.

        Used by the streaming runtime to drive window emission from
        watermarks instead of event arrivals; see
        :meth:`~repro.core.executor.QueryExecutor.advance_time`.
        """
        self._check_not_streaming("advance_time")
        return self._executor.advance_time(time)

    def _check_not_streaming(self, operation: str) -> None:
        """Engine state is owned by an active stream() run; reject mutation."""
        if self._stream_active:
            raise RuntimeError(
                f"cannot call {operation}() while one of this engine's "
                "stream() runs is active; exhaust or close the generator "
                "first, or use a separate engine"
            )

    def stream(
        self,
        events: Iterable[Event],
        lateness: float = 0.0,
        watermark_strategy=None,
        late_policy="raise",
        workers: int = 1,
        observability=None,
    ):
        """Evaluate the query over a possibly out-of-order stream, lazily.

        Yields each :class:`GroupResult` as soon as the watermark passes its
        window -- before end of stream -- instead of collecting everything
        like :meth:`run`.  ``events`` may be any iterable or an
        :class:`~repro.streaming.sources.EventSource` (a tailed JSONL file,
        a socket, ...); ``lateness`` bounds the tolerated disorder in
        seconds; see :class:`~repro.streaming.runtime.StreamingRuntime` for
        the full option set (this method is the single-query shortcut).

        Events later than ``lateness`` allows raise
        :class:`~repro.errors.LateEventError` by default, mirroring
        :meth:`run`'s strictness on disorder -- pass ``late_policy="drop"``
        (and use a :class:`~repro.streaming.runtime.StreamingRuntime`
        directly when you need its metrics and side channel) to tolerate
        loss instead.

        ``workers > 1`` runs the stream on a
        :class:`~repro.streaming.sharded.ShardedRuntime`: one worker
        process per hash-range of partition keys, with ingestion and
        watermarking in this process.  Execution state then lives in the
        workers, so :meth:`storage_units` and friends observe nothing;
        results may also trail the input by a batching interval (they are
        complete when the iterator is exhausted).  Queries without
        partition attributes fall back to one shard with a warning.

        With ``workers=1`` the engine itself hosts the execution (it is
        reset first), so :meth:`storage_units` and friends observe the
        streaming run.  Either way the engine is claimed *at the call*, not
        at first iteration: until the returned iterator is exhausted or
        closed, any other mutation (:meth:`run`, :meth:`process`,
        :meth:`flush`, :meth:`reset`, or a second :meth:`stream`) raises
        :class:`RuntimeError` instead of silently mixing two streams into
        one executor.

        ``observability`` accepts an
        :class:`~repro.streaming.observability.Observability` bundle --
        e.g. one with a sampling tracer attached; the default collects
        registry metrics with tracing off.

        Internally the kwargs assemble a
        :class:`~repro.streaming.config.JobConfig` -- the declarative spec
        behind every entry point -- and the runtime is resolved from it;
        multi-query jobs, sinks, checkpointing and recovery are the
        config's (and :func:`repro.job`'s) territory.
        """
        from repro.streaming.config import (
            JobConfig,
            LatenessConfig,
            ShardConfig,
            WatermarkConfig,
        )

        config = JobConfig(
            watermark=WatermarkConfig(lateness=float(lateness)),
            late=LatenessConfig.of(late_policy),
            shards=ShardConfig(workers=workers),
            emit_empty_groups=self._emit_empty_groups,
        )
        runtime = config.build_runtime(
            watermark_strategy=watermark_strategy,
            register=False,
            observability=observability,
        )
        if workers > 1:
            # the engine cannot host sharded execution (state lives in the
            # worker processes); ship the definition at this engine's
            # resolved granularity instead
            runtime.register(self.query, granularity=self.granularity)
            self.reset()
        else:
            runtime.register(self)  # resets the engine, so claim afterwards
        self._stream_active = True
        return _StreamRun(self, self._stream_records(runtime, events))

    def _stream_records(self, runtime, events: Iterable[Event]):
        try:
            # the runtimes' shared pipeline driver owns ingestion (and closes
            # the source); ``events`` may equally be an EventSource -- e.g. a
            # tailed file or socket (repro.streaming.sources)
            for record in runtime.drive(events):
                yield record.result
        finally:
            # stops ShardedRuntime workers on early close; no-op otherwise
            runtime.close()

    def reset(self) -> None:
        """Discard all runtime state while keeping the compiled plan."""
        self._check_not_streaming("reset")
        self._executor = self._build_executor()

    def _build_executor(self) -> QueryExecutor:
        return QueryExecutor(
            self.plan,
            emit_empty_groups=self._emit_empty_groups,
            aggregator_factory=self._aggregator_factory,
        )

    # -- introspection ------------------------------------------------------------------

    @property
    def executor(self) -> QueryExecutor:
        """The current runtime executor (replaced by :meth:`reset`)."""
        return self._executor

    def explain(self) -> str:
        """Describe the COGRA configuration chosen by the static analyzer."""
        text = self.plan.describe()
        if self.negation_analysis is not None and self.negation_analysis.has_negations:
            negations = "; ".join(
                component.describe() for component in self.negation_analysis.components
            )
            text += f"\nnegations   : {negations}"
        return text

    @property
    def granularity(self) -> str:
        """Granularity selected for the query (pattern / type / mixed / event)."""
        return self.plan.granularity.value

    def storage_units(self) -> int:
        """Current number of stored scalar aggregates (memory metric)."""
        return self._executor.storage_units()

    def stored_event_count(self) -> int:
        """Current number of stored matched events."""
        return self._executor.stored_event_count()

    def __repr__(self) -> str:
        return f"CograEngine({self.query.name!r}, granularity={self.granularity})"


class _StreamRun:
    """Iterator returned by :meth:`CograEngine.stream`.

    Owns the engine's ``_stream_active`` claim and releases it on
    exhaustion, on any error raised mid-iteration, on :meth:`close`, and on
    garbage collection -- including when the iterator was never started
    (a bare generator's ``finally`` would not run in that case).
    """

    __slots__ = ("_engine", "_generator", "_released")

    def __init__(self, engine: CograEngine, generator):
        self._engine = engine
        self._generator = generator
        self._released = False

    def __iter__(self) -> "_StreamRun":
        return self

    def __next__(self) -> GroupResult:
        try:
            return next(self._generator)
        except BaseException:
            # StopIteration, LateEventError, anything: a generator cannot
            # be resumed after raising, so the claim can be released
            self._release()
            raise

    def close(self) -> None:
        """Abandon the stream and free the engine for other use."""
        self._generator.close()
        self._release()

    def _release(self) -> None:
        if not self._released:
            self._released = True
            self._engine._stream_active = False

    def __del__(self):  # pragma: no cover - GC timing dependent
        self._release()
