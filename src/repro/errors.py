"""Exception hierarchy for the COGRA reproduction.

Every error raised by the library derives from :class:`CograError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish parse errors from planning or runtime
errors.
"""

from __future__ import annotations


class CograError(Exception):
    """Base class for all errors raised by this library."""


class QueryParseError(CograError):
    """Raised when the textual query language cannot be parsed."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class InvalidPatternError(CograError):
    """Raised when a pattern violates the structural rules of the model.

    Examples: an empty sequence, a Kleene operator applied to nothing, or a
    pattern in which the same variable name is bound twice.
    """


class InvalidQueryError(CograError):
    """Raised when a query is structurally valid but semantically unusable.

    Examples: an aggregate referring to a variable that does not occur in
    the pattern, a window whose slide is non-positive, or a semantics that
    an approach does not support.
    """


class UnsupportedQueryError(CograError):
    """Raised by an execution approach that cannot evaluate a query.

    The baselines reproduce the expressive-power limits of the original
    systems (Table 9 of the paper): for instance A-Seq refuses queries with
    predicates on adjacent events and GRETA refuses the contiguous
    semantics.
    """


class PlanningError(CograError):
    """Raised when the static analyzer cannot derive a COGRA configuration."""


class StreamOrderError(CograError):
    """Raised when events are fed to an executor out of timestamp order."""


class InvalidEventError(CograError):
    """Raised when event data is malformed.

    Examples: a JSONL line without a ``type``/``time`` field, a non-numeric
    timestamp, an ``attributes`` value that is not an object, or an
    aggregated attribute whose value is not a number.
    """


class ConfigError(CograError, ValueError):
    """Raised when a declarative job configuration is invalid.

    Examples: an unknown (typo'd) key in a ``JobConfig`` dictionary, an
    out-of-range value (``workers=0``), or a cross-field conflict such as
    ``recover=True`` without a checkpoint directory.  Subclasses
    :class:`ValueError` as well, because the same validations used to be
    plain ``ValueError``s raised by the runtime constructors.
    """


class JobStartError(CograError):
    """Raised by ``Job.start()`` when a configured endpoint cannot be opened.

    ``path`` is the dotted config path of the setting that failed
    (``source.spec``, ``sink.spec``, ``checkpoint.dir``,
    ``late.side_channel_path``, ``observability.prometheus_port``, ...);
    the original error is the ``__cause__``.
    """

    def __init__(self, path: str, cause: BaseException):
        super().__init__(f"cannot open {path}: {cause}")
        self.path = path


class SourceError(CograError):
    """Raised when an event source cannot be opened or fails mid-stream.

    Examples: a ``tcp://`` source whose peer refuses the connection or
    drops it mid-line, a tailed JSONL file that cannot be opened, or a
    malformed ``--source`` specification.
    """


class LateEventError(StreamOrderError):
    """Raised by the streaming runtime when an event arrives later than the
    configured lateness bound allows and the late-event policy is ``raise``.

    ``records`` holds what the earlier events of the same ``process_batch``
    slice had already emitted (their windows are evicted, so nothing else
    can produce them again); the driver loop delivers them before the error
    propagates.
    """

    def __init__(self, message: str, event=None, watermark: float | None = None):
        super().__init__(message)
        self.event = event
        self.watermark = watermark
        self.records: list = []


class WorkerCrashError(CograError):
    """Raised when a sharded-runtime worker process dies unexpectedly.

    Carries the shard index and the process exit code (or the remote
    traceback text when the worker reported an error before exiting) so
    operators can tell an OOM kill from a Python failure.
    """

    def __init__(self, message: str, shard: int | None = None, exitcode: int | None = None):
        super().__init__(message)
        self.shard = shard
        self.exitcode = exitcode


class CheckpointError(CograError):
    """Raised when runtime state cannot be snapshotted or restored.

    Examples: restoring a checkpoint into a runtime whose registered
    queries differ from the checkpointed ones, or snapshotting an
    aggregator class the checkpoint module does not know about.
    """


class QuotaError(CograError):
    """Base class for per-tenant admission-control violations.

    The multi-tenant job server enforces three quota kinds, each with its
    own subclass so callers (and the wire protocol) can distinguish a
    throttle from a hard rejection: :class:`RateQuotaError` (events/sec),
    :class:`StateQuotaError` (aggregator state bytes at checkpoint time)
    and :class:`ConcurrencyQuotaError` (concurrent jobs per tenant).
    Carries the ``tenant`` the violation belongs to.
    """

    def __init__(self, message: str, tenant: str | None = None):
        super().__init__(message)
        self.tenant = tenant


class RateQuotaError(QuotaError):
    """Raised when a tenant's event-rate token bucket rejects a request."""


class StateQuotaError(QuotaError):
    """Raised when a checkpoint exceeds a tenant's state-byte budget.

    Enforced at checkpoint save time -- the serialized snapshot is the
    authoritative measure of a job's aggregator state size.
    """

    def __init__(
        self,
        message: str,
        tenant: str | None = None,
        state_bytes: int | None = None,
        limit_bytes: int | None = None,
    ):
        super().__init__(message, tenant=tenant)
        self.state_bytes = state_bytes
        self.limit_bytes = limit_bytes


class ConcurrencyQuotaError(QuotaError):
    """Raised when a tenant submits more concurrent jobs than allowed."""


class ExecutionAbortedError(CograError):
    """Raised when an execution exceeds a configured cost budget.

    The benchmark harness uses cost budgets to reproduce the paper's
    "does not terminate" data points without actually hanging the test
    machine.
    """

    def __init__(self, message: str, events_processed: int = 0):
        super().__init__(message)
        self.events_processed = events_processed
