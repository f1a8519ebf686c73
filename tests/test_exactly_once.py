"""Tests for the exactly-once delivery layer (partitioned log + sink).

The central property (the PR's acceptance criterion): a pipeline reading a
:class:`PartitionedLogSource` into a :class:`TransactionalSink` that is
SIGKILL-ed (or crashes) at ANY point and re-run with recovery produces a
sink file **byte-for-byte identical** to an uninterrupted run -- no lost
records, no duplicates.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from differential import canonical, kill_worker, stream
from repro.errors import CheckpointError, SourceError
from repro.streaming.checkpoint import CheckpointStore
from repro.streaming.config import resume_job
from repro.streaming.runtime import StreamingRuntime
from repro.streaming.sharded import ShardedRuntime
from repro.streaming.sources import (
    EventSource,
    PartitionedLogSource,
    PartitionedLogWriter,
    TransactionalSink,
    open_source,
)

QUERY = """
RETURN g, COUNT(*), MAX(A.v)
PATTERN SEQ(A+, B)
SEMANTICS skip-till-any-match
GROUP-BY g
WITHIN 20 seconds SLIDE 10 seconds
"""


def write_log(directory, events, partitions=3, segment_records=64):
    with PartitionedLogWriter(
        directory, partitions=partitions, segment_records=segment_records
    ) as writer:
        writer.extend(events, key_by="g")
    return directory


def new_runtime():
    runtime = StreamingRuntime(lateness=0.0)
    runtime.register(QUERY, name="q")
    return runtime


def reference_bytes(events, path):
    """The sink file of an uninterrupted single-process run."""
    sink = TransactionalSink(path)
    new_runtime().run(list(events), sink)
    sink.close()
    return Path(path).read_bytes()


def sink_rows(path):
    return [
        json.loads(line)
        for line in Path(path).read_text().splitlines()
        if line.strip()
    ]


class Crash(RuntimeError):
    """The injected mid-stream failure."""


class CrashingSource(EventSource):
    """Delegates to an inner source, raising :class:`Crash` at one index.

    Delegation (rather than a bare generator) keeps the inner source's
    ``offsets()`` visible to the driver's checkpoint enrichment -- exactly
    what a real deployment wrapping the log source would look like.
    """

    def __init__(self, inner, crash_at):
        self._inner = inner
        self._crash_at = crash_at

    def events(self):
        for index, event in enumerate(self._inner.events()):
            if index == self._crash_at:
                raise Crash(f"injected crash at event {index}")
            yield event

    def offsets(self):
        return self._inner.offsets()

    def close(self):
        self._inner.close()


class TestPartitionedLog:
    def test_round_trip_preserves_total_order(self, tmp_path):
        events = stream(count=120)
        write_log(tmp_path / "log", events)
        source = PartitionedLogSource(tmp_path / "log")
        assert list(source.events()) == events
        assert source.partitions == 3

    def test_offsets_count_delivered_records(self, tmp_path):
        events = stream(count=90)
        write_log(tmp_path / "log", events)
        source = PartitionedLogSource(tmp_path / "log")
        iterator = source.events()
        for _ in range(40):
            next(iterator)
        offsets = source.offsets()
        assert sum(offsets.values()) == 40
        assert set(offsets) == {"0", "1", "2"}  # JSON-keyed for checkpoints

    def test_seek_resumes_exactly_after_committed_prefix(self, tmp_path):
        events = stream(count=100)
        write_log(tmp_path / "log", events)
        first = PartitionedLogSource(tmp_path / "log")
        iterator = first.events()
        consumed = [next(iterator) for _ in range(37)]
        offsets = first.offsets()

        resumed = PartitionedLogSource(tmp_path / "log")
        resumed.seek(offsets)
        assert consumed + list(resumed.events()) == events

    def test_seek_never_reads_wholly_committed_segments(self, tmp_path):
        # the proof that segment-granular skipping works: segments entirely
        # before the committed offset can be GONE and the seek still works
        events = stream(count=50)
        write_log(tmp_path / "log", events, partitions=1, segment_records=10)
        source = PartitionedLogSource(tmp_path / "log")
        iterator = source.events()
        for _ in range(30):
            next(iterator)
        offsets = source.offsets()

        for segment in sorted((tmp_path / "log" / "partition-00000").iterdir()):
            if int(segment.stem) + 10 <= 30:  # next base <= committed offset
                segment.unlink()
        resumed = PartitionedLogSource(tmp_path / "log")
        resumed.seek(offsets)
        assert list(resumed.events()) == events[30:]

    def test_append_after_reopen_continues_offsets(self, tmp_path):
        first, second = stream(count=40), stream(99, 40)
        write_log(tmp_path / "log", first, partitions=2, segment_records=8)
        with PartitionedLogWriter(tmp_path / "log", partitions=2) as writer:
            positions = [writer.append(event, key=event["g"]) for event in second]
        # offsets never restart: every appended offset is past the old tail
        source = PartitionedLogSource(tmp_path / "log")
        merged = list(source.events())
        assert sorted(
            (e.time, e.sequence) for e in merged
        ) == sorted((e.time, e.sequence) for e in first + second)
        assert sum(source.offsets().values()) == 80
        assert all(offset >= 0 for _, offset in positions)

    def test_open_source_log_spec(self, tmp_path):
        write_log(tmp_path / "log", stream(count=10))
        source = open_source(f"log:{tmp_path / 'log'}")
        assert isinstance(source, PartitionedLogSource)
        assert source.replayable

    def test_missing_or_empty_directory_rejected(self, tmp_path):
        with pytest.raises(SourceError, match="does not exist"):
            PartitionedLogSource(tmp_path / "nope")
        (tmp_path / "empty").mkdir()
        with pytest.raises(SourceError, match="no partition"):
            PartitionedLogSource(tmp_path / "empty")

    def test_seek_validation(self, tmp_path):
        write_log(tmp_path / "log", stream(count=10))
        source = PartitionedLogSource(tmp_path / "log")
        with pytest.raises(SourceError, match="must be integers"):
            source.seek({"0": "many"})
        with pytest.raises(SourceError, match="different log"):
            source.seek({"7": 0})
        with pytest.raises(SourceError, match="negative"):
            source.seek({"0": -1})
        next(source.events())
        with pytest.raises(SourceError, match="mid-iteration"):
            source.seek({"0": 0})


class _Row:
    """A minimal emitted-record stand-in (anything with ``as_dict``)."""

    def __init__(self, payload):
        self._payload = payload

    def as_dict(self):
        return dict(self._payload)


def rows(count, watermark=5.0):
    return [
        _Row(
            {
                "query": "q",
                "window_id": index,
                "group": {"g": "x"},
                "values": {"COUNT(*)": index},
                "watermark": watermark,
            }
        )
        for index in range(count)
    ]


class TestTransactionalSink:
    def test_duplicate_rows_written_once(self, tmp_path):
        sink = TransactionalSink(tmp_path / "out.jsonl")
        for row in rows(5) + rows(5):
            sink.emit(row)
        sink.close()
        assert len(sink_rows(tmp_path / "out.jsonl")) == 5
        assert sink.records_written == 5
        assert sink.duplicates_suppressed == 5

    def test_watermark_differences_are_still_duplicates(self, tmp_path):
        sink = TransactionalSink(tmp_path / "out.jsonl")
        for row in rows(3, watermark=5.0) + rows(3, watermark=77.0):
            sink.emit(row)
        sink.close()
        # a sharded replay may re-stamp the same logical result with a
        # later watermark; that must not count as a second delivery
        assert len(sink_rows(tmp_path / "out.jsonl")) == 3

    def test_restore_truncates_to_committed_offset(self, tmp_path):
        sink = TransactionalSink(tmp_path / "out.jsonl")
        for row in rows(5):
            sink.emit(row)
        state = sink.state()
        for row in rows(9)[5:]:
            sink.emit(row)
        committed = Path(tmp_path / "out.jsonl").read_bytes()[: state["bytes"]]

        sink.restore(state)
        assert Path(tmp_path / "out.jsonl").read_bytes() == committed
        assert sink.records_written == 5
        # the rolled-back suffix is re-deliverable (not seen as duplicate)
        for row in rows(9)[5:]:
            sink.emit(row)
        sink.close()
        assert len(sink_rows(tmp_path / "out.jsonl")) == 9

    def test_restore_none_truncates_to_empty(self, tmp_path):
        (tmp_path / "out.jsonl").write_text('{"stale": 1}\n')
        sink = TransactionalSink(tmp_path / "out.jsonl", recover=True)
        sink.restore(None)
        sink.close()
        assert (tmp_path / "out.jsonl").read_bytes() == b""

    def test_recover_mode_dedups_against_existing_content(self, tmp_path):
        first = TransactionalSink(tmp_path / "out.jsonl")
        for row in rows(4):
            first.emit(row)
        first.close()
        second = TransactionalSink(tmp_path / "out.jsonl", recover=True)
        for row in rows(6):
            second.emit(row)
        second.close()
        assert len(sink_rows(tmp_path / "out.jsonl")) == 6
        assert second.duplicates_suppressed == 4

    def test_restore_rejects_offsets_beyond_the_file(self, tmp_path):
        sink = TransactionalSink(tmp_path / "out.jsonl")
        sink.emit(rows(1)[0])
        with pytest.raises(CheckpointError, match="was the file replaced"):
            sink.restore({"version": 1, "bytes": 10_000, "records": 99})
        with pytest.raises(CheckpointError, match="malformed sink state"):
            sink.restore({"version": 1})
        sink.close()

    def test_recover_rejects_foreign_file_content(self, tmp_path):
        (tmp_path / "out.jsonl").write_text("definitely: not json\n")
        with pytest.raises(CheckpointError, match="non-JSON line"):
            TransactionalSink(tmp_path / "out.jsonl", recover=True)


class TestExactlyOncePipeline:
    def crash_and_recover(self, tmp_path, events, crash_at, interval=25):
        """Crash at ``crash_at``, recover, return the final sink bytes."""
        log_dir = write_log(tmp_path / "log", events)
        out = tmp_path / "out.jsonl"
        store = CheckpointStore(tmp_path / "ckpt", background=False)

        sink = TransactionalSink(out)
        with pytest.raises(Crash):
            new_runtime().run(
                CrashingSource(PartitionedLogSource(log_dir), crash_at),
                sink,
                checkpoint_store=store,
                checkpoint_interval=interval,
            )
        sink.close()

        resumed = new_runtime()
        recovered_sink = TransactionalSink(out, recover=True)
        info = resume_job(
            resumed, store, PartitionedLogSource(log_dir), sink=recovered_sink
        )
        resumed.run(
            info.source,
            recovered_sink,
            checkpoint_store=store,
            checkpoint_interval=interval,
        )
        recovered_sink.close()
        store.close()
        return out.read_bytes()

    def test_recovered_output_is_byte_identical(self, tmp_path):
        events = stream(count=300)
        expected = reference_bytes(events, tmp_path / "ref.jsonl")
        recovered = self.crash_and_recover(tmp_path, events, crash_at=170)
        assert recovered == expected

    def test_crash_before_first_checkpoint_replays_everything(self, tmp_path):
        events = stream(count=200)
        expected = reference_bytes(events, tmp_path / "ref.jsonl")
        recovered = self.crash_and_recover(
            tmp_path, events, crash_at=10, interval=50
        )
        assert recovered == expected

    def test_checkpoints_carry_source_offsets_and_sink_state(self, tmp_path):
        events = stream(count=150)
        log_dir = write_log(tmp_path / "log", events)
        store = CheckpointStore(tmp_path / "ckpt", background=False)
        sink = TransactionalSink(tmp_path / "out.jsonl")
        new_runtime().run(
            PartitionedLogSource(log_dir),
            sink,
            checkpoint_store=store,
            checkpoint_interval=40,
        )
        sink.close()
        snapshot = store.load_latest()
        store.close()
        assert sum(int(o) for o in snapshot["source_offsets"].values()) in (
            40,
            80,
            120,
        )
        assert snapshot["sink"]["records"] >= 0
        assert snapshot["sink"]["bytes"] >= 0

    def test_no_duplicate_deliveries_after_recovery(self, tmp_path):
        events = stream(29, 300)
        recovered = self.crash_and_recover(tmp_path, events, crash_at=200)
        parsed = [json.loads(line) for line in recovered.decode().splitlines()]
        keys = canonical(parsed)
        assert len(keys) == len(set(keys))

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        crash_at=st.integers(min_value=1, max_value=249),
        interval=st.sampled_from([20, 60, 110]),
    )
    def test_any_crash_point_recovers_byte_identical(
        self, tmp_path_factory, seed, crash_at, interval
    ):
        events = stream(seed, 250)
        directory = tmp_path_factory.mktemp("exactly-once-property")
        expected = reference_bytes(events, directory / "ref.jsonl")
        recovered = self.crash_and_recover(
            directory, events, crash_at, interval=interval
        )
        assert recovered == expected

    def test_sharded_worker_kill_delivers_each_result_once(self, tmp_path):
        events = stream(count=400)
        reference_bytes(events, tmp_path / "ref.jsonl")
        expected = canonical(sink_rows(tmp_path / "ref.jsonl"))
        log_dir = write_log(tmp_path / "log", events)
        store = CheckpointStore(tmp_path / "ckpt", compact_every=4)
        runtime = ShardedRuntime(
            workers=2, lateness=0.0, ship_interval=8, max_restarts=2
        )
        runtime.register(QUERY, name="q")
        sink = TransactionalSink(tmp_path / "out.jsonl")

        def killing(source):
            for index, event in enumerate(source.events()):
                if index == 250:
                    kill_worker(runtime, 1)
                yield event

        runtime.run(
            killing(PartitionedLogSource(log_dir)),
            sink,
            checkpoint_store=store,
            checkpoint_interval=100,
        )
        sink.close()
        store.close()
        assert runtime.restart_counts == [0, 1]
        delivered = canonical(sink_rows(tmp_path / "out.jsonl"))
        assert delivered == expected
        assert len(delivered) == len(set(delivered))  # zero double-deliveries


class TestCliSigkillRecovery:
    def test_sigkill_then_recover_matches_uninterrupted_run(self, tmp_path):
        """The operational drill: ``kill -9`` the CLI, rerun ``--recover``."""
        events = stream(5, 6000)
        log_dir = write_log(tmp_path / "log", events, segment_records=512)

        out = tmp_path / "out.jsonl"

        def command(sink_path, checkpoint_dir):
            return [
                sys.executable,
                "-m",
                "repro.cli",
                "stream",
                QUERY,
                "--source",
                f"log:{log_dir}",
                "--sink",
                str(sink_path),
                "--exactly-once",
                "--checkpoint-dir",
                str(checkpoint_dir),
                "--checkpoint-interval",
                "200",
            ]

        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

        reference = subprocess.run(
            command(tmp_path / "ref.jsonl", tmp_path / "ref-ckpt"),
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=120,
        )
        assert reference.returncode == 0, reference.stderr.decode()
        expected = (tmp_path / "ref.jsonl").read_bytes()

        process = subprocess.Popen(
            command(out, tmp_path / "ckpt"),
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        manifest = tmp_path / "ckpt" / "MANIFEST.json"
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline and process.poll() is None:
            if manifest.exists() and out.exists() and out.stat().st_size > 0:
                break
            time.sleep(0.002)
        killed = process.poll() is None
        if killed:
            process.send_signal(signal.SIGKILL)
            assert process.wait(timeout=30) == -signal.SIGKILL
        # (if the run finished before the kill fired, --recover below must
        # be a no-op; byte-equality still holds either way)

        recover = subprocess.run(
            command(out, tmp_path / "ckpt") + ["--recover"],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=120,
        )
        assert recover.returncode == 0, recover.stderr.decode()
        assert out.read_bytes() == expected
        if killed:
            assert b"resumed from checkpoint" in recover.stderr
