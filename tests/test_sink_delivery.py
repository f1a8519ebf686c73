"""When and how often a record reaches the sink.

A record enters the sink as soon as the ingest step that closes its window
was applied -- inside ``process_batch``, not after the pulled slice was
folded to its end -- and exactly once, in the order ``process_batch``
returns and ``Job.results()`` collects.  A raising late policy keeps every
record its slice's earlier events produced, at any worker count, and a
job hosted by the server leaves the bytes a standalone job does.
"""

import json

import pytest

from differential import stream
from helpers import reference_record_line
from repro.errors import LateEventError
from repro.events.event import Event
from repro.streaming.config import JobConfig, job
from repro.streaming.ingest import OutOfOrderIngestor
from repro.streaming.jsonl import write_jsonl_events
from repro.streaming.runtime import StreamingRuntime
from repro.streaming.server import FAILED, JobServer
from repro.streaming.sharded import ShardedRuntime
from repro.streaming.sources import CallbackSink, TransactionalSink

TUMBLING = """
RETURN g, COUNT(*)
PATTERN SEQ(A+, B)
SEMANTICS skip-till-any-match
GROUP-BY g
WITHIN 10 seconds
"""

SLIDING = """
RETURN g, COUNT(*), MAX(A.v)
PATTERN SEQ(A+, B)
SEMANTICS skip-till-any-match
GROUP-BY g
WITHIN 20 seconds SLIDE 10 seconds
"""

LATENESS = 2.0


def write_stream(path, events):
    with open(path, "w", encoding="utf-8") as handle:
        write_jsonl_events(events, handle)
    return str(path)


def sink_lines(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read().splitlines()


class TestEmissionTiming:
    def test_a_window_closed_mid_slice_reaches_the_sink_at_its_push(
        self, monkeypatch
    ):
        pushes = []
        push = OutOfOrderIngestor.push

        def counting_push(ingestor, event):
            pushes.append(event)
            return push(ingestor, event)

        monkeypatch.setattr(OutOfOrderIngestor, "push", counting_push)
        # nine events inside [0, 10); the 10th moves the watermark past 10
        # and closes that window; 40 more follow in the same slice
        events = [
            Event("B" if index % 3 == 2 else "A", float(index), {"g": "x"})
            for index in range(9)
        ]
        events += [
            Event("B" if index % 3 == 2 else "A", 10.5 + index, {"g": "x"})
            for index in range(41)
        ]
        runtime = StreamingRuntime(lateness=0.0)
        runtime.register(TUMBLING, name="q")
        seen_at = []
        delivered = []

        def emit(record):
            seen_at.append(len(pushes))
            delivered.append(record)

        returned = runtime.run(events, CallbackSink(emit), decode_batch_size=256)

        assert returned == []
        assert len(pushes) == len(events)  # one slice, every event pushed once
        first = [record for record in delivered if record.result.window_id == 0]
        assert first and not any(record.is_final_flush for record in first)
        # the window closed by push 10 left at push 10, not after push 50
        assert seen_at[: len(first)] == [10] * len(first)
        # and every window left at the push of the event that closed it
        streaming = [
            (at, record.result.window_id)
            for at, record in zip(seen_at, delivered)
            if not record.is_final_flush
        ]
        assert len(streaming) >= 4
        for at, window in streaming:
            end = 10.0 * (window + 1)
            assert at == 1 + next(
                index for index, event in enumerate(events) if event.time >= end
            )

    def test_emit_sees_the_returned_records_in_their_order(self):
        events = stream(17, 300, span=90.0, disorder=LATENESS)
        runtime = StreamingRuntime(lateness=LATENESS, late_policy="drop")
        runtime.register(TUMBLING, name="tumbling")
        runtime.register(SLIDING, name="sliding")
        emitted = []
        returned = runtime.process_batch(events, emitted.append)
        assert len({record.query for record in returned}) == 2
        assert emitted == returned

        reference = StreamingRuntime(lateness=LATENESS, late_policy="drop")
        reference.register(TUMBLING, name="tumbling")
        reference.register(SLIDING, name="sliding")
        expected = [
            record for event in events for record in reference.process(event)
        ]
        assert [reference_record_line(r) for r in returned] == [
            reference_record_line(r) for r in expected
        ]

    def test_a_step_below_every_edge_emits_nothing(self):
        runtime = StreamingRuntime(lateness=0.0)
        runtime.register(TUMBLING, name="q")
        emitted = []
        below = [Event("A", 1.0, {"g": "x"}), Event("B", 2.0, {"g": "x"})]
        assert runtime.process_batch(below, emitted.append) == []
        assert emitted == []

    def test_the_sharded_runtime_emits_what_it_returns(self):
        events = stream(5, 200, span=60.0)
        with ShardedRuntime(workers=2, lateness=0.0) as runtime:
            runtime.register(TUMBLING, name="q")
            emitted, returned = [], []
            for start in range(0, len(events), 16):
                returned.extend(
                    runtime.process_batch(events[start : start + 16], emitted.append)
                )
            assert emitted == returned
            returned.extend(runtime.flush())
        assert returned


def job_config(events_path, **overrides):
    config = {
        "queries": [
            {"text": TUMBLING, "name": "tumbling"},
            {"text": SLIDING, "name": "sliding"},
        ],
        "source": {"spec": str(events_path)},
        "watermark": {"lateness": LATENESS},
        "late": {"policy": "drop"},
    }
    config.update(overrides)
    return config


class TestOrderAndCompleteness:
    @pytest.mark.parametrize("interval", [None, 5, 64])
    @pytest.mark.parametrize("decode_batch_size", [1, 7, 256])
    def test_the_sink_holds_the_returned_records_line_for_line(
        self, tmp_path, decode_batch_size, interval
    ):
        events = stream(
            decode_batch_size * 7 + (interval or 0), 400, span=90.0,
            disorder=LATENESS, late=0.02,
        )
        path = write_stream(tmp_path / "events.jsonl", events)
        # the order a consumer received before records left mid-slice
        reference = StreamingRuntime(lateness=LATENESS, late_policy="drop")
        reference.register(TUMBLING, name="tumbling")
        reference.register(SLIDING, name="sliding")
        expected = [reference_record_line(r) for r in reference.run(events)]

        overrides = {"batch": {"decode_batch_size": decode_batch_size}}
        if interval is not None:
            overrides["checkpoint"] = {
                "dir": str(tmp_path / "ckpt"), "interval": interval,
            }
        sink = TransactionalSink(tmp_path / "out.jsonl")
        try:
            records = job(job_config(path, **overrides), sink=sink).results()
        finally:
            sink.close()

        lines = sink_lines(tmp_path / "out.jsonl")
        assert lines == [reference_record_line(r) for r in records]
        assert lines == expected
        assert len({record.query for record in records}) == 2
        assert sink.duplicates_suppressed == 0
        assert len(set(lines)) == len(lines)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_sharded_sink_holds_the_returned_records(self, tmp_path, workers):
        events = stream(23, 300, span=90.0, disorder=LATENESS)
        path = write_stream(tmp_path / "events.jsonl", events)
        config = job_config(
            path,
            queries=[{"text": SLIDING, "name": "sliding"}],
            shards={"workers": workers},
            batch={"decode_batch_size": 7},
            checkpoint={"dir": str(tmp_path / "ckpt"), "interval": 63},
            sink={"spec": str(tmp_path / "out.jsonl"), "exactly_once": True},
        )
        records = job(config).results()
        lines = sink_lines(tmp_path / "out.jsonl")
        assert records
        assert lines == [reference_record_line(r) for r in records]
        assert len(set(lines)) == len(lines)


def late_raise_events(tmp_path):
    """201 events, a late ``A@1.0`` at index 150: it raises at watermark 147."""
    ordered = [
        Event(
            "B" if index % 3 == 0 else "A",
            float(index),
            {"g": f"g{(index // 3) % 2}"},
            sequence=index,
        )
        for index in range(200)
    ]
    ordered.insert(150, Event("A", 1.0, {"g": "g0"}, sequence=200))
    return ordered, write_stream(tmp_path / "events.jsonl", ordered)


def late_raise_config(events_path, sink_path, workers, decode_batch_size=256):
    return {
        "queries": [{"text": TUMBLING, "name": "q"}],
        "source": {"spec": str(events_path)},
        "watermark": {"lateness": LATENESS},
        "late": {"policy": "raise"},
        "shards": {"workers": workers},
        "batch": {"decode_batch_size": decode_batch_size},
        "sink": {"spec": str(sink_path)},
    }


class TestRaisingLatePolicy:
    @pytest.mark.parametrize("decode_batch_size", [1, 7, 256])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_earlier_record_reaches_the_sink_once(
        self, tmp_path, workers, decode_batch_size
    ):
        ordered, path = late_raise_events(tmp_path)
        single = StreamingRuntime(lateness=LATENESS, late_policy="raise")
        single.register(TUMBLING, name="q")
        before_late = single.process_batch(ordered[:150])
        expected = [reference_record_line(record) for record in before_late]
        assert expected, "the events before the late one must close windows"

        sink_path = tmp_path / "out.jsonl"
        config = late_raise_config(path, sink_path, workers, decode_batch_size)
        with pytest.raises(LateEventError) as excinfo:
            job(JobConfig.from_dict(config)).results()
        assert excinfo.value.event.time == 1.0
        assert sink_lines(sink_path) == expected

    def test_the_sharded_sink_equals_the_single_process_sink(self, tmp_path):
        _, path = late_raise_events(tmp_path)
        outputs = []
        for workers in (1, 2):
            sink_path = tmp_path / f"out-{workers}.jsonl"
            with pytest.raises(LateEventError):
                job(late_raise_config(path, sink_path, workers)).results()
            outputs.append(sink_path.read_bytes())
        assert outputs[0]
        assert outputs[1] == outputs[0]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_hosted_output_equals_standalone_output(self, tmp_path, workers):
        _, path = late_raise_events(tmp_path)
        with pytest.raises(LateEventError):
            job(late_raise_config(path, tmp_path / "solo.jsonl", workers)).results()
        with JobServer() as server:
            job_id = server.submit(
                late_raise_config(path, tmp_path / "hosted.jsonl", workers)
            )
            status = server.wait(job_id)
            hosted = server.results(job_id)
        assert status["state"] == FAILED
        delivered = (tmp_path / "solo.jsonl").read_bytes()
        assert delivered
        assert (tmp_path / "hosted.jsonl").read_bytes() == delivered
        assert [record.as_dict() for record in hosted] == [
            json.loads(line) for line in delivered.decode().splitlines()
        ]
