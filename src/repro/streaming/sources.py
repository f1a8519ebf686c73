"""Pluggable event sources and emission sinks (the pipeline's two ends).

The streaming runtimes used to be hard-wired to in-memory iterables: every
caller (CLI, examples, benchmarks, ``CograEngine.stream``) hand-rolled its
own ``for event in ...: runtime.process(event)`` loop and its own result
handling.  This module defines the two protocols the shared driver loop
(:meth:`~repro.streaming.runtime.StreamingRuntime.run`) is written against
instead:

* an :class:`EventSource` produces :class:`~repro.events.event.Event`
  objects -- from an in-memory iterable (:class:`IterableSource`), a static
  JSONL file or handle (:class:`JsonlFileSource`), a growing JSONL file
  followed ``tail -f``-style (:class:`JsonlFileTailSource`), or a TCP
  socket speaking JSON lines (:class:`SocketJsonlSource`);
* a :class:`Sink` consumes the emitted
  :class:`~repro.streaming.emission.EmissionRecord` objects -- a callback
  (:class:`CallbackSink`), a JSONL file (:class:`JsonlFileSink`), or an
  in-memory list (:class:`MemorySink`).

Two pieces extend the basic protocols toward delivery guarantees:

* :class:`PartitionedLogSource` reads a Kafka-style partitioned log --
  append-only JSONL segment files written by :class:`PartitionedLogWriter`
  -- and exposes :meth:`~PartitionedLogSource.offsets` /
  :meth:`~PartitionedLogSource.seek` so a recovering job resumes from the
  committed per-partition offsets without re-reading the prefix;
* :class:`TransactionalSink` makes a JSONL file sink exactly-once: it
  dedups on ``(query, window, group)`` and exposes
  :meth:`~TransactionalSink.state` / :meth:`~TransactionalSink.restore`
  so the delivered byte offset is checkpointed atomically with executor
  state and a crash between emit and checkpoint replays without
  double-delivery.

:func:`as_source` adapts plain iterables so existing call sites keep
working; :func:`open_source` parses the CLI's ``--source`` specification
(``-``, a file path, ``tail:PATH``, ``tcp://HOST:PORT``, ``log:DIR``).
"""

from __future__ import annotations

import heapq
import json
import socket
import time as _time
import zlib
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    TextIO,
    Tuple,
    Union,
)

from repro.errors import CheckpointError, InvalidEventError, SourceError
from repro.events.event import Event
from repro.streaming.emission import EmissionRecord
from repro.streaming.jsonl import (
    event_to_json,
    parse_jsonl_line,
    read_jsonl_event_batches,
    read_jsonl_events,
    record_to_json_line,
)

# ---------------------------------------------------------------------------
# sources
# ---------------------------------------------------------------------------


class EventSource:
    """Something the driver loop can pull a stream of events from.

    Implementations yield events from :meth:`events` and release any
    held resources in :meth:`close` (called by the driver loop even when
    iteration fails).  Sources are single-use: one :meth:`events` iterator
    per source instance.
    """

    #: True when re-creating the source re-delivers the SAME stream from its
    #: beginning (a file re-read on restart).  Consumers resuming from a
    #: checkpoint may then skip the already-ingested prefix; live sources
    #: (sockets, stdin pipes) deliver fresh data instead and must not be
    #: skipped.
    replayable = False

    def events(self) -> Iterator[Event]:
        """Yield the source's events, in arrival order."""
        raise NotImplementedError

    def batches(self, size: int) -> Iterator[List[Event]]:
        """Yield the same stream as lists of at most ``size`` events.

        The driver loop pulls batches so per-event Python overhead (iterator
        resumption, method dispatch) amortises over a slice.  The default
        buffers :meth:`events`; file-backed sources override it with a
        chunked decoder, and live sources (tails, sockets) override it to
        yield singleton batches so delivery latency does not grow with
        ``size``.
        """
        if size < 1:
            raise ValueError(f"batch size must be >= 1, got {size!r}")
        batch: List[Event] = []
        append = batch.append
        for event in self.events():
            append(event)
            if len(batch) >= size:
                yield batch
                batch = []
                append = batch.append
        if batch:
            yield batch

    def close(self) -> None:
        """Release held resources (idempotent; default: nothing to do)."""

    def __iter__(self) -> Iterator[Event]:
        return self.events()

    def __enter__(self) -> "EventSource":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class IterableSource(EventSource):
    """Adapts any in-memory iterable of events (the original call style)."""

    def __init__(self, events: Iterable[Event]):
        self._events = events

    def events(self) -> Iterator[Event]:
        return iter(self._events)

    def batches(self, size: int) -> Iterator[List[Event]]:
        """Slice materialized sequences; pull lazy iterables one by one.

        A list or tuple carries no hidden effects, so it is sliced into
        ``size``-element chunks directly.  A generator may interleave side
        effects with consumption (tests drive chaos injection this way),
        so it keeps the historical event-at-a-time pull via singleton
        batches -- reading ahead would reorder those effects around the
        runtime's processing.
        """
        if size < 1:
            raise ValueError(f"batch size must be >= 1, got {size!r}")
        events = self._events
        if isinstance(events, (list, tuple)):
            for start in range(0, len(events), size):
                yield list(events[start : start + size])
            return
        for event in self.events():
            yield [event]

    def __repr__(self) -> str:
        return f"IterableSource({self._events!r})"


class JsonlFileSource(EventSource):
    """Reads a static JSONL file (or open text handle, e.g. stdin) once.

    Parameters
    ----------
    source:
        A path, or an already-open text handle.  Handles passed in are
        *not* closed by :meth:`close` unless ``close_handle`` is true --
        the CLI hands over ``sys.stdin``, which it must keep.
    """

    def __init__(
        self,
        source: Union[str, Path, TextIO],
        close_handle: Optional[bool] = None,
    ):
        if isinstance(source, (str, Path)):
            try:
                self._handle: TextIO = open(source, "r", encoding="utf-8")
            except OSError as exc:
                raise SourceError(f"cannot open JSONL source {source}: {exc}") from exc
            self._close_handle = True if close_handle is None else close_handle
            self.replayable = True  # a restart re-reads the same file
        else:
            # an already-open handle (e.g. stdin) is a live stream: a
            # restart does NOT re-deliver what was already read
            self._handle = source
            self._close_handle = False if close_handle is None else close_handle

    def events(self) -> Iterator[Event]:
        return read_jsonl_events(self._handle)

    def batches(self, size: int) -> Iterator[List[Event]]:
        """Chunked decode: one ``json.loads`` loop per slice of the file."""
        if size < 1:
            raise ValueError(f"batch size must be >= 1, got {size!r}")
        return read_jsonl_event_batches(self._handle, size)

    def close(self) -> None:
        if self._close_handle:
            self._handle.close()
            self._close_handle = False

    def __repr__(self) -> str:
        return f"JsonlFileSource({getattr(self._handle, 'name', self._handle)!r})"


class JsonlFileTailSource(EventSource):
    """Follows a growing JSONL file, ``tail -f`` style.

    The source reads complete lines as they are appended; at end of file it
    polls for growth every ``poll_interval`` seconds.  A line without a
    trailing newline is assumed to be mid-write and re-read once complete.
    Iteration stops when no new data arrives for ``idle_timeout`` seconds
    (``None`` follows forever -- the CLI's interactive mode); a trailing
    newline-less line is parsed at that point so a producer that does not
    terminate its last record still gets it delivered (a fragment truncated
    mid-write is dropped instead of aborting the stream).

    ``clock`` and ``sleep`` are injectable for deterministic tests.
    """

    #: a restarted tail re-reads the grown file from its beginning
    replayable = True

    def __init__(
        self,
        path: Union[str, Path],
        poll_interval: float = 0.05,
        idle_timeout: Optional[float] = None,
        clock: Callable[[], float] = _time.monotonic,
        sleep: Callable[[float], None] = _time.sleep,
    ):
        if poll_interval <= 0:
            raise ValueError(f"poll_interval must be positive, got {poll_interval!r}")
        if idle_timeout is not None and idle_timeout <= 0:
            raise ValueError(f"idle_timeout must be positive, got {idle_timeout!r}")
        self._path = Path(path)
        self._poll_interval = poll_interval
        self._idle_timeout = idle_timeout
        self._clock = clock
        self._sleep = sleep
        self._handle: Optional[TextIO] = None
        self._stopped = False

    def events(self) -> Iterator[Event]:
        try:
            self._handle = open(self._path, "r", encoding="utf-8")
        except OSError as exc:
            raise SourceError(f"cannot open tail source {self._path}: {exc}") from exc
        index = 0
        last_data = self._clock()
        partial_length = 0
        while not self._stopped:
            position = self._handle.tell()
            line = self._handle.readline()
            if line.endswith("\n"):
                last_data = self._clock()
                partial_length = 0
                event = parse_jsonl_line(line, default_sequence=index)
                if event is not None:
                    yield event
                    index += 1
                continue
            # nothing new, or a record still being written: wait for growth
            now = self._clock()
            if len(line) != partial_length:
                # a slowly-growing partial line is activity, not idleness
                partial_length = len(line)
                last_data = now
            if self._idle_timeout is not None and now - last_data >= self._idle_timeout:
                if line.strip():
                    # the producer stopped mid-file without a final newline:
                    # deliver the trailing record if it is complete, ignore
                    # a truncated mid-write fragment
                    try:
                        event = parse_jsonl_line(line, default_sequence=index)
                    except InvalidEventError:
                        event = None
                    if event is not None:
                        yield event
                break
            self._handle.seek(position)
            self._sleep(self._poll_interval)

    def batches(self, size: int) -> Iterator[List[Event]]:
        """Singleton batches: a followed file must not trade latency for size."""
        if size < 1:
            raise ValueError(f"batch size must be >= 1, got {size!r}")
        for event in self.events():
            yield [event]

    def stop(self) -> None:
        """Make the iterator finish after the line it is currently reading."""
        self._stopped = True

    def close(self) -> None:
        self._stopped = True
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __repr__(self) -> str:
        return (
            f"JsonlFileTailSource({str(self._path)!r}, "
            f"idle_timeout={self._idle_timeout})"
        )


class SocketJsonlSource(EventSource):
    """Reads JSON-lines events from a TCP connection.

    Connects to ``host:port`` as a client (the shape of Flink's
    ``socketTextStream``) and yields events until the peer closes the
    connection.  Events without an explicit ``"sequence"`` receive their
    arrival index, mirroring :func:`~repro.streaming.jsonl.read_jsonl_events`.

    Two hardening behaviours for long-lived server deployments:

    * **Partial lines.**  A peer that drops mid-record leaves a trailing
      fragment without a newline.  If the fragment parses as a complete
      JSON event it is delivered (the peer wrote the record but died before
      the newline) and refills the retry budget like any other event; a
      truncated fragment is discarded.  Either way the close counts as a
      *dirty* drop, not an orderly EOF.  Fragments never concatenate
      across connections -- a reconnected peer starts on a fresh line.
    * **Reconnects.**  With ``max_retries > 0`` a dropped or refused
      connection is retried with capped exponential backoff
      (``base_backoff * 2^n``, capped at ``max_backoff``); every delivered
      event refills the retry budget, so the budget bounds *consecutive*
      failures, not total reconnects over the stream's lifetime.  When the
      budget runs out the stream ends normally if the last peer closed
      cleanly, or raises :class:`~repro.errors.SourceError` if it dropped
      -- including a mid-record (partial-line) drop.  The default
      ``max_retries=0`` preserves the historical single-shot behaviour:
      any peer close, even mid-record, simply ends the stream.
    """

    def __init__(
        self,
        host: str,
        port: int,
        connect_timeout: float = 10.0,
        max_retries: int = 0,
        base_backoff: float = 0.1,
        max_backoff: float = 5.0,
        sleep: Callable[[float], None] = _time.sleep,
    ):
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries!r}")
        if base_backoff <= 0:
            raise ValueError(f"base_backoff must be positive, got {base_backoff!r}")
        if max_backoff < base_backoff:
            raise ValueError(
                f"max_backoff must be >= base_backoff, got {max_backoff!r}"
            )
        self._host = host
        self._port = int(port)
        self._connect_timeout = connect_timeout
        self._max_retries = int(max_retries)
        self._base_backoff = float(base_backoff)
        self._max_backoff = float(max_backoff)
        self._sleep = sleep
        self._socket: Optional[socket.socket] = None
        self._file: Optional[TextIO] = None
        self._closed = False

    def _connect(self) -> None:
        self._socket = socket.create_connection(
            (self._host, self._port), timeout=self._connect_timeout
        )
        # reads block until the peer sends a full line or closes; no
        # per-read timeout -- a quiet source is legitimate
        self._socket.settimeout(None)
        self._file = self._socket.makefile("r", encoding="utf-8")

    def _disconnect(self) -> None:
        file, self._file = self._file, None
        sock, self._socket = self._socket, None
        if file is not None:
            try:
                file.close()
            except OSError:
                pass
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def _backoff(self, consecutive_failures: int) -> None:
        delay = min(
            self._max_backoff,
            self._base_backoff * (2.0 ** (consecutive_failures - 1)),
        )
        self._sleep(delay)

    def events(self) -> Iterator[Event]:
        index = 0
        failures = 0
        connected_once = False
        #: True when the last established connection ended with the peer's
        #: orderly EOF rather than a transport error -- a cleanly-finished
        #: producer that then stops listening ends the stream quietly,
        #: while a dirty drop (or never connecting at all) raises
        clean_close = False
        while True:
            if self._closed:
                return
            try:
                self._connect()
            except OSError as exc:
                failures += 1
                if failures > self._max_retries:
                    if connected_once and clean_close:
                        return  # the producer finished and went away
                    verb = "reconnect" if connected_once else "connect"
                    raise SourceError(
                        f"cannot {verb} to event source "
                        f"{self._host}:{self._port}: {exc}"
                    ) from exc
                self._backoff(failures)
                continue
            connected_once = True
            dropped: Optional[OSError] = None
            partial = False
            try:
                while True:
                    line = self._file.readline()
                    if not line:
                        break  # clean EOF: the peer closed the connection
                    if not line.endswith("\n"):
                        # the peer dropped mid-record -- a dirty disconnect,
                        # even though readline raised nothing.  Deliver the
                        # fragment if it is a complete JSON event, discard
                        # it if it was truncated mid-write; either way it
                        # never concatenates with the next connection's
                        # first line
                        partial = True
                        try:
                            event = parse_jsonl_line(line, default_sequence=index)
                        except InvalidEventError:
                            event = None
                        if event is not None:
                            yield event
                            index += 1
                            failures = 0  # delivered data refills the budget
                        break
                    event = parse_jsonl_line(line, default_sequence=index)
                    if event is not None:
                        yield event
                        index += 1
                        failures = 0  # live data refills the retry budget
            except OSError as exc:
                dropped = exc
            finally:
                self._disconnect()
            if self._closed:
                return
            clean_close = dropped is None and not partial
            failures += 1
            if failures > self._max_retries:
                if dropped is not None:
                    raise SourceError(
                        f"connection to {self._host}:{self._port} failed "
                        f"mid-stream: {dropped}"
                    ) from dropped
                if partial and self._max_retries > 0:
                    # a retrying client ran its budget down on dirty
                    # mid-record drops -- data was lost, say so.  (In
                    # single-shot mode a partial line stays the historical
                    # quiet end of stream.)
                    raise SourceError(
                        f"connection to {self._host}:{self._port} dropped "
                        f"mid-record and the retry budget is exhausted"
                    )
                return  # clean close and no retry budget left: end of stream
            self._backoff(failures)

    def batches(self, size: int) -> Iterator[List[Event]]:
        """Singleton batches: a quiet socket must not delay delivered events."""
        if size < 1:
            raise ValueError(f"batch size must be >= 1, got {size!r}")
        for event in self.events():
            yield [event]

    def close(self) -> None:
        self._closed = True
        self._disconnect()

    def __repr__(self) -> str:
        return f"SocketJsonlSource({self._host!r}, {self._port})"


class SkippingSource(EventSource):
    """Drops the first ``skip`` events of a replayed source (recovery).

    A restarted job re-reads the same JSONL file (or the same growing file)
    from the beginning; the events the restored checkpoint already ingested
    must not be counted twice.  Skipping by arrival index keeps sequence
    numbers identical to the original run, so the restored reorder buffer
    and the freshly read remainder line up exactly.
    """

    def __init__(self, source: EventSource, skip: int):
        self._source = source
        self._skip = skip

    def events(self) -> Iterator[Event]:
        for index, event in enumerate(self._source.events()):
            if index < self._skip:
                continue
            yield event

    def close(self) -> None:
        self._source.close()

    def __repr__(self) -> str:
        return f"SkippingSource({self._source!r}, skip={self._skip})"


# ---------------------------------------------------------------------------
# partitioned log (Kafka-style segment files with consumer offsets)
# ---------------------------------------------------------------------------

#: partition directories inside a log directory: ``partition-00000``, ...
_PARTITION_DIR_FORMAT = "partition-{index:05d}"

#: segment files inside a partition directory are named by the offset of
#: their first record, zero-padded so lexicographic order == offset order
_SEGMENT_NAME_FORMAT = "{base:020d}.jsonl"


def _scan_segments(partition_dir: Path) -> List[Tuple[int, Path]]:
    """The partition's segment files as sorted ``(base_offset, path)`` pairs."""
    segments = []
    for path in sorted(partition_dir.glob("*.jsonl")):
        try:
            base = int(path.stem)
        except ValueError:
            raise SourceError(
                f"foreign file {path} in partitioned log; segment names must "
                f"be the zero-padded base offset (e.g. {_SEGMENT_NAME_FORMAT.format(base=0)})"
            ) from None
        segments.append((base, path))
    return segments


def _count_records(path: Path) -> int:
    """Records in a segment file (blank and comment lines do not count)."""
    with open(path, "r", encoding="utf-8") as handle:
        return sum(
            1 for line in handle if line.strip() and not line.lstrip().startswith("#")
        )


class PartitionedLogWriter:
    """Appends events to a Kafka-style partitioned log directory.

    The log is a directory of partition subdirectories, each holding
    append-only JSONL segment files named by the offset of their first
    record::

        log/
          partition-00000/00000000000000000000.jsonl
          partition-00000/00000000000000001024.jsonl
          partition-00001/00000000000000000000.jsonl

    Events are routed round-robin, or by a caller-supplied ``key`` (stable
    hash) so per-key order is preserved within one partition.  A segment
    rotates after ``segment_records`` records; segment base offsets let a
    recovering :class:`PartitionedLogSource` seek to a committed offset
    without re-reading earlier segments.  Re-opening an existing log
    appends after its last record -- offsets never restart.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        partitions: int = 1,
        segment_records: int = 1024,
    ):
        if partitions < 1:
            raise ValueError(f"partitions must be >= 1, got {partitions!r}")
        if segment_records < 1:
            raise ValueError(f"segment_records must be >= 1, got {segment_records!r}")
        self._directory = Path(directory)
        self._segment_records = segment_records
        self._cursor = 0  # round-robin position
        self._handles: List[Optional[TextIO]] = [None] * partitions
        self._dirs: List[Path] = []
        self._next_offsets: List[int] = []
        self._records_in_segment: List[int] = []
        try:
            self._directory.mkdir(parents=True, exist_ok=True)
            for index in range(partitions):
                partition_dir = self._directory / _PARTITION_DIR_FORMAT.format(
                    index=index
                )
                partition_dir.mkdir(exist_ok=True)
                self._dirs.append(partition_dir)
                segments = _scan_segments(partition_dir)
                if segments:
                    base, last = segments[-1]
                    self._next_offsets.append(base + _count_records(last))
                else:
                    self._next_offsets.append(0)
                # always rotate into a fresh segment on (re)open: the previous
                # handle is gone, and a new base-offset file keeps appends
                # strictly ordered after the existing tail
                self._records_in_segment.append(self._segment_records)
        except OSError as exc:
            raise SourceError(
                f"cannot initialise partitioned log {self._directory}: {exc}"
            ) from exc

    @property
    def partitions(self) -> int:
        return len(self._dirs)

    def append(self, event: Event, key: Optional[object] = None) -> Tuple[int, int]:
        """Append one event; return its ``(partition, offset)`` position.

        ``key=None`` routes round-robin; a key pins the event to the
        partition ``crc32(str(key)) % partitions`` so all records of one
        key stay ordered within a single partition.
        """
        if key is None:
            partition = self._cursor
            self._cursor = (self._cursor + 1) % len(self._dirs)
        else:
            partition = zlib.crc32(str(key).encode("utf-8")) % len(self._dirs)
        handle = self._handles[partition]
        if (
            handle is None
            or self._records_in_segment[partition] >= self._segment_records
        ):
            if handle is not None:
                handle.close()
            base = self._next_offsets[partition]
            path = self._dirs[partition] / _SEGMENT_NAME_FORMAT.format(base=base)
            try:
                handle = open(path, "a", encoding="utf-8")
            except OSError as exc:
                raise SourceError(f"cannot open log segment {path}: {exc}") from exc
            self._handles[partition] = handle
            self._records_in_segment[partition] = 0
        offset = self._next_offsets[partition]
        handle.write(json.dumps(event_to_json(event), sort_keys=True) + "\n")
        handle.flush()
        self._next_offsets[partition] = offset + 1
        self._records_in_segment[partition] += 1
        return partition, offset

    def extend(self, events: Iterable[Event], key_by: Optional[str] = None) -> int:
        """Append many events; ``key_by`` names an attribute to partition on."""
        written = 0
        for event in events:
            key = event.attributes.get(key_by) if key_by else None
            self.append(event, key=key)
            written += 1
        return written

    def close(self) -> None:
        for index, handle in enumerate(self._handles):
            if handle is not None:
                handle.close()
                self._handles[index] = None

    def __enter__(self) -> "PartitionedLogWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"PartitionedLogWriter({str(self._directory)!r}, "
            f"partitions={len(self._dirs)})"
        )


class PartitionedLogSource(EventSource):
    """Reads a partitioned log directory as one merged, ordered stream.

    Partitions are merged by ``(time, sequence)`` -- the same total order
    :func:`~repro.events.stream.sort_events` assigns -- so the merged
    stream is deterministic regardless of how events were partitioned.

    The source tracks per-partition consumer offsets (:meth:`offsets`),
    which the driver loop checkpoints atomically with executor state;
    :meth:`seek` positions a recovering source at those offsets, skipping
    whole segments by their base offset so the committed prefix is never
    re-read.
    """

    #: re-reading the same log re-delivers the same stream; consumers
    #: should still prefer :meth:`seek` over prefix-skipping
    replayable = True

    def __init__(self, directory: Union[str, Path]):
        self._directory = Path(directory)
        if not self._directory.is_dir():
            raise SourceError(
                f"partitioned log directory {self._directory} does not exist"
            )
        self._partitions = sorted(self._directory.glob("partition-*"))
        if not self._partitions:
            raise SourceError(
                f"{self._directory} holds no partition-* subdirectories; "
                f"was it written by PartitionedLogWriter?"
            )
        self._start_offsets: Dict[int, int] = {}
        self._offsets: Dict[int, int] = {
            index: 0 for index in range(len(self._partitions))
        }
        self._started = False
        self._handle: Optional[TextIO] = None

    @property
    def partitions(self) -> int:
        return len(self._partitions)

    def offsets(self) -> Dict[str, int]:
        """Per-partition count of records delivered so far (JSON-keyed)."""
        return {str(index): offset for index, offset in sorted(self._offsets.items())}

    def seek(self, offsets: Mapping[Union[str, int], object]) -> None:
        """Start delivery at the given per-partition offsets (pre-iteration).

        ``offsets`` maps partition index (int or string, as checkpointed)
        to the number of records already consumed; segments wholly before
        an offset are skipped by file name without being read.
        """
        if self._started:
            raise SourceError("cannot seek a partitioned log source mid-iteration")
        parsed: Dict[int, int] = {}
        for raw_index, raw_offset in offsets.items():
            try:
                index = int(raw_index)
                offset = int(raw_offset)  # type: ignore[call-overload]
            except (TypeError, ValueError) as exc:
                raise SourceError(
                    f"malformed log offsets {dict(offsets)!r}: partition indexes "
                    f"and offsets must be integers"
                ) from exc
            if not 0 <= index < len(self._partitions):
                raise SourceError(
                    f"checkpointed offset names partition {index}, but "
                    f"{self._directory} has {len(self._partitions)} partitions; "
                    f"does the checkpoint belong to a different log?"
                )
            if offset < 0:
                raise SourceError(f"negative log offset {offset} for partition {index}")
            parsed[index] = offset
        self._start_offsets = parsed

    def _partition_events(self, index: int, skip: int) -> Iterator[Event]:
        """Records of one partition from offset ``skip`` on, in offset order."""
        segments = _scan_segments(self._partitions[index])
        for position, (base, path) in enumerate(segments):
            next_base = (
                segments[position + 1][0] if position + 1 < len(segments) else None
            )
            if next_base is not None and next_base <= skip:
                continue  # the whole segment precedes the seek target
            try:
                handle = open(path, "r", encoding="utf-8")
            except OSError as exc:
                raise SourceError(f"cannot open log segment {path}: {exc}") from exc
            with handle:
                offset = base
                for line in handle:
                    event = parse_jsonl_line(line, default_sequence=offset)
                    if event is None:
                        continue  # blanks and comments do not consume offsets
                    if offset >= skip:
                        yield event
                    offset += 1

    def events(self) -> Iterator[Event]:
        self._started = True
        self._offsets = {
            index: self._start_offsets.get(index, 0)
            for index in range(len(self._partitions))
        }
        iterators = {
            index: self._partition_events(index, self._offsets[index])
            for index in range(len(self._partitions))
        }
        # k-way merge on (time, sequence, partition): one buffered head per
        # partition, so read-ahead never outruns the delivered offsets by
        # more than a single record
        heap: List[Tuple[float, int, int, Event]] = []
        for index, iterator in iterators.items():
            head = next(iterator, None)
            if head is not None:
                heapq.heappush(heap, (head.time, head.sequence, index, head))
        while heap:
            _, _, index, event = heapq.heappop(heap)
            self._offsets[index] += 1
            yield event
            head = next(iterators[index], None)
            if head is not None:
                heapq.heappush(heap, (head.time, head.sequence, index, head))

    def __repr__(self) -> str:
        return (
            f"PartitionedLogSource({str(self._directory)!r}, "
            f"partitions={len(self._partitions)})"
        )


def as_source(events: Union[EventSource, Iterable[Event]]) -> EventSource:
    """Adapt ``events`` to the :class:`EventSource` protocol.

    Sources pass through; anything else is treated as an in-memory iterable
    (the historical ``run(list_of_events)`` call style).
    """
    if isinstance(events, EventSource):
        return events
    return IterableSource(events)


def open_source(spec: str) -> EventSource:
    """Build the source described by a CLI ``--source`` specification.

    * ``-`` -- read JSONL from stdin;
    * ``tcp://HOST:PORT`` -- connect to a JSONL socket;
    * ``tail:PATH`` -- follow a growing JSONL file;
    * ``log:DIR`` -- read a partitioned log directory (offset-resumable);
    * anything else -- read a static JSONL file.
    """
    if spec == "-":
        import sys

        return JsonlFileSource(sys.stdin)
    if spec.startswith("log:"):
        return PartitionedLogSource(spec.removeprefix("log:"))
    if spec.startswith("tcp://"):
        location = spec.removeprefix("tcp://")
        host, separator, port = location.rpartition(":")
        if not separator or not host or not port.isdigit():
            raise SourceError(
                f"malformed socket source {spec!r}; expected tcp://HOST:PORT"
            )
        return SocketJsonlSource(host, int(port))
    if spec.startswith("tail:"):
        return JsonlFileTailSource(spec.removeprefix("tail:"))
    return JsonlFileSource(spec)


# ---------------------------------------------------------------------------
# sinks
# ---------------------------------------------------------------------------


class Sink:
    """Something the driver loop pushes emitted records into."""

    def emit(self, record: EmissionRecord) -> None:
        """Consume one emission record."""
        raise NotImplementedError

    def ready(self) -> bool:
        """True when the sink can absorb another record without backlog.

        The driver loop polls this before ingesting each event and pauses
        ingestion (backpressure) while it returns False -- the pull-based
        analogue of a bounded queue's high-watermark signal.  The default
        sink is always ready.
        """
        return True

    def close(self) -> None:
        """Flush and release held resources (idempotent; default: nothing)."""

    def __enter__(self) -> "Sink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class CallbackSink(Sink):
    """Forwards every record to a callable (the ``publish(...)`` idiom)."""

    def __init__(self, callback: Callable[[EmissionRecord], None]):
        self._callback = callback

    def emit(self, record: EmissionRecord) -> None:
        self._callback(record)

    def __repr__(self) -> str:
        return f"CallbackSink({self._callback!r})"


class MemorySink(Sink):
    """Collects records in memory (tests, small jobs)."""

    def __init__(self) -> None:
        self.records: List[EmissionRecord] = []

    def emit(self, record: EmissionRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        return f"MemorySink({len(self.records)} records)"


class JsonlFileSink(Sink):
    """Writes each record as one JSON line to a file or open handle.

    ``line_buffered`` flushes after every record so a piped or tailed
    consumer sees incremental emission immediately -- the behaviour the
    CLI promises -- at the price of one flush syscall per record.
    """

    def __init__(
        self,
        target: Union[str, Path, TextIO],
        line_buffered: bool = False,
        close_handle: Optional[bool] = None,
    ):
        if isinstance(target, (str, Path)):
            try:
                self._handle: TextIO = open(target, "w", encoding="utf-8")
            except OSError as exc:
                raise SourceError(f"cannot open JSONL sink {target}: {exc}") from exc
            self._close_handle = True if close_handle is None else close_handle
        else:
            self._handle = target
            self._close_handle = False if close_handle is None else close_handle
        self._line_buffered = line_buffered
        self.records_written = 0

    def emit(self, record: EmissionRecord) -> None:
        self._handle.write(record_to_json_line(record) + "\n")
        self.records_written += 1
        if self._line_buffered:
            self._handle.flush()

    def close(self) -> None:
        if self._close_handle:
            self._handle.close()
            self._close_handle = False
        else:
            try:
                self._handle.flush()
            except ValueError:  # pragma: no cover - handle closed by owner
                pass

    def __repr__(self) -> str:
        return f"JsonlFileSink({getattr(self._handle, 'name', self._handle)!r})"


class TransactionalSink(Sink):
    """An exactly-once JSONL file sink.

    Two mechanisms together give exactly-once delivery over an
    at-least-once pipeline:

    * **dedup** -- every record is keyed on its canonical serialisation
      minus the watermark stamp (which subsumes ``(query, window, group)``
      plus the emitted values); a record whose key was already delivered
      is suppressed, never written twice;
    * **atomic offsets** -- :meth:`state` reports the delivered byte
      offset, which the driver loop stores inside the same checkpoint as
      executor state.  On recovery :meth:`restore` truncates the file back
      to that committed offset and rebuilds the dedup set from the
      surviving prefix, so records emitted *after* the checkpoint but
      *before* the crash are rolled back and re-delivered exactly once by
      the deterministic replay -- byte for byte what an uninterrupted run
      would have written.

    The file is opened in binary mode because the committed offset is a
    byte position (text-mode ``tell`` values are opaque).  Construct with
    ``recover=True`` to preserve an existing file until ``restore`` decides
    how much of it is committed.
    """

    def __init__(self, target: Union[str, Path], recover: bool = False):
        self._path = Path(target)
        mode = "r+b" if recover and self._path.exists() else "w+b"
        try:
            self._handle = open(self._path, mode)
        except OSError as exc:
            raise SourceError(f"cannot open JSONL sink {target}: {exc}") from exc
        self._handle.seek(0, 2)  # append after any preserved content
        self.records_written = 0
        self.duplicates_suppressed = 0
        self._seen: set = set()
        if recover:
            # until restore() supplies the committed offset, dedup against
            # everything currently in the file (at-least-once floor)
            self._rebuild_seen()

    @staticmethod
    def _dedup_key(row: Dict[str, object]) -> Tuple[Tuple[str, str], ...]:
        """The delivery identity of one emitted row.

        The watermark stamp is excluded: it says when a result was
        emitted, not which result it is.  A sharded run now stamps every
        result as the single-process run does, but a sink file written
        before that -- when a sharded wave coalesced pushes and stamped a
        result with a later watermark -- must still have its rows count as
        delivered when a job resumes into it.
        """
        return tuple(
            sorted(
                (key, json.dumps(value, sort_keys=True, default=str))
                for key, value in row.items()
                if key != "watermark"
            )
        )

    def _rebuild_seen(self) -> None:
        """Recompute the dedup set and record count from the file content."""
        self._seen = set()
        self.records_written = 0
        position = self._handle.tell()
        self._handle.seek(0)
        for line in self._handle:
            text = line.decode("utf-8").strip()
            if not text:
                continue
            try:
                row = json.loads(text)
            except json.JSONDecodeError as exc:
                raise CheckpointError(
                    f"sink file {self._path} holds a non-JSON line; was it "
                    f"modified outside the pipeline? ({exc})"
                ) from exc
            self._seen.add(self._dedup_key(row))
            self.records_written += 1
        self._handle.seek(position)

    def emit(self, record: EmissionRecord) -> None:
        line = record_to_json_line(record)
        # key off the PARSED line so live emission and restore-time rescans
        # compute byte-identical keys
        key = self._dedup_key(json.loads(line))
        if key in self._seen:
            self.duplicates_suppressed += 1
            return
        self._handle.write((line + "\n").encode("utf-8"))
        self._handle.flush()
        self._seen.add(key)
        self.records_written += 1

    def state(self) -> Dict[str, object]:
        """The delivered position, checkpointed atomically with the runtime."""
        self._handle.flush()
        return {
            "version": 1,
            "bytes": self._handle.tell(),
            "records": self.records_written,
        }

    def restore(self, state: Optional[Dict[str, object]]) -> None:
        """Roll the file back to the committed offset in ``state``.

        ``None`` (no checkpoint was ever written) truncates to empty so a
        replay from the beginning re-delivers everything exactly once.
        """
        if state is None:
            committed = 0
        else:
            try:
                committed = int(state["bytes"])  # type: ignore[index, arg-type]
            except (KeyError, TypeError, ValueError) as exc:
                raise CheckpointError(
                    f"malformed sink state in checkpoint: {state!r}"
                ) from exc
        self._handle.seek(0, 2)
        size = self._handle.tell()
        if committed > size:
            raise CheckpointError(
                f"sink file {self._path} is {size} bytes but the checkpoint "
                f"committed {committed}; was the file replaced since the crash?"
            )
        self._handle.seek(committed)
        self._handle.truncate()
        self._rebuild_seen()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()

    def __repr__(self) -> str:
        return (
            f"TransactionalSink({str(self._path)!r}, "
            f"records_written={self.records_written})"
        )


def open_sink(spec: Optional[str]) -> Optional[Sink]:
    """Build the sink described by a job-config ``sink`` specification.

    * ``None`` -- no sink: the caller collects the emitted records;
    * ``-`` or ``stdout`` -- JSON lines to stdout, flushed per record so a
      piped consumer sees incremental emission immediately;
    * anything else -- write a JSONL file (line-buffered for the same
      reason).
    """
    if spec is None:
        return None
    if spec in ("-", "stdout"):
        import sys

        return JsonlFileSink(sys.stdout, line_buffered=True)
    return JsonlFileSink(spec, line_buffered=True)
