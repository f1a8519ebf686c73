"""Tests for the pluggable source/sink pipeline layer.

Covers the :class:`EventSource` implementations (in-memory, JSONL file,
tailed file, TCP socket), the :class:`Sink` implementations (callback,
JSONL file, in-memory), the ``--source`` specification parser, and the
shared ``run(source, sink)`` driver loop both runtimes inherit.
"""

import io
import json
import socket
import threading

import pytest

from repro.core.engine import CograEngine
from repro.errors import SourceError
from repro.events.event import Event
from repro.streaming.runtime import StreamingRuntime
from repro.streaming.sources import (
    CallbackSink,
    EventSource,
    IterableSource,
    JsonlFileSink,
    JsonlFileSource,
    JsonlFileTailSource,
    MemorySink,
    SocketJsonlSource,
    TransactionalSink,
    as_source,
    open_source,
)

QUERY = """
RETURN g, COUNT(*)
PATTERN A+
SEMANTICS skip-till-any-match
GROUP-BY g
WITHIN 10 seconds SLIDE 10 seconds
"""


def event_line(event_type, time, **attributes):
    return json.dumps({"type": event_type, "time": time, **attributes})


def make_events(count=12):
    return [Event("A", float(index), {"g": "xy"[index % 2]}) for index in range(count)]


def build_runtime():
    runtime = StreamingRuntime(lateness=0.0)
    runtime.register(QUERY, name="q")
    return runtime


class TestIterableSource:
    def test_yields_the_iterable(self):
        events = make_events(3)
        assert list(IterableSource(events)) == events

    def test_as_source_wraps_iterables_and_passes_sources_through(self):
        events = make_events(2)
        assert isinstance(as_source(events), IterableSource)
        source = IterableSource(events)
        assert as_source(source) is source


class TestJsonlFileSource:
    def test_reads_a_static_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            event_line("A", 1.0, g="x") + "\n" + event_line("A", 2.0, g="y") + "\n"
        )
        events = list(JsonlFileSource(path))
        assert [e.time for e in events] == [1.0, 2.0]
        assert events[0]["g"] == "x"

    def test_reads_an_open_handle_without_closing_it(self):
        handle = io.StringIO(event_line("A", 1.0, g="x") + "\n")
        source = JsonlFileSource(handle)
        assert len(list(source)) == 1
        source.close()
        assert not handle.closed  # stdin-style handles stay open

    def test_missing_file_raises_source_error(self, tmp_path):
        with pytest.raises(SourceError, match="cannot open"):
            JsonlFileSource(tmp_path / "nope.jsonl")


class TestJsonlFileTailSource:
    def test_follows_a_growing_file(self, tmp_path):
        path = tmp_path / "grow.jsonl"
        path.touch()
        total = 40

        def writer():
            with open(path, "a", encoding="utf-8") as handle:
                for index in range(total):
                    handle.write(event_line("A", float(index), g="x") + "\n")
                    handle.flush()

        thread = threading.Thread(target=writer)
        source = JsonlFileTailSource(path, poll_interval=0.005, idle_timeout=0.5)
        thread.start()
        events = list(source)
        thread.join()
        assert [event.time for event in events] == [float(i) for i in range(total)]
        # arrival indices assigned like read_jsonl_events
        assert [event.sequence for event in events] == list(range(total))

    def test_partial_line_is_reread_once_complete(self, tmp_path):
        path = tmp_path / "partial.jsonl"
        half = event_line("A", 1.0, g="x")
        path.write_text(half[: len(half) // 2])

        def complete():
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(half[len(half) // 2:] + "\n")
                handle.write(event_line("A", 2.0, g="y") + "\n")

        timer = threading.Timer(0.05, complete)
        timer.start()
        source = JsonlFileTailSource(path, poll_interval=0.005, idle_timeout=0.5)
        events = list(source)
        timer.join()
        assert [event.time for event in events] == [1.0, 2.0]

    def test_trailing_line_without_newline_is_delivered_at_timeout(self, tmp_path):
        path = tmp_path / "tail.jsonl"
        path.write_text(
            event_line("A", 1.0, g="x") + "\n" + event_line("A", 2.0, g="y")
        )
        events = list(
            JsonlFileTailSource(path, poll_interval=0.005, idle_timeout=0.05)
        )
        assert [event.time for event in events] == [1.0, 2.0]

    def test_truncated_trailing_fragment_is_dropped_at_timeout(self, tmp_path):
        path = tmp_path / "truncated.jsonl"
        complete = event_line("A", 1.0, g="x")
        # the producer died mid-write: a valid line, then half a record
        path.write_text(complete + "\n" + complete[: len(complete) // 2])
        events = list(
            JsonlFileTailSource(path, poll_interval=0.005, idle_timeout=0.05)
        )
        assert [event.time for event in events] == [1.0]

    def test_slowly_growing_partial_line_is_activity(self, tmp_path):
        """Partial-line growth must refresh the idle clock, not time out."""
        path = tmp_path / "slow.jsonl"
        line = event_line("A", 1.0, g="x") + "\n"
        path.write_text("")
        state = {"written": 0}

        def drip():
            # each poll writes a few more characters; total time far exceeds
            # the idle timeout, but progress never stops
            with open(path, "a", encoding="utf-8") as handle:
                chunk = line[state["written"]: state["written"] + 4]
                handle.write(chunk)
                state["written"] += len(chunk)

        clock = {"now": 0.0}
        source = JsonlFileTailSource(
            path,
            poll_interval=0.01,
            idle_timeout=0.05,
            clock=lambda: clock["now"],
            sleep=lambda _s: (clock.__setitem__("now", clock["now"] + 0.02), drip()),
        )
        events = list(source)
        assert [event.time for event in events] == [1.0]

    def test_blank_lines_and_comments_are_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("\n# comment\n" + event_line("A", 1.0, g="x") + "\n")
        events = list(
            JsonlFileTailSource(path, poll_interval=0.005, idle_timeout=0.05)
        )
        assert len(events) == 1

    def test_invalid_json_raises_like_static_files(self, tmp_path):
        from repro.errors import InvalidEventError

        path = tmp_path / "bad.jsonl"
        path.write_text("{not json}\n")
        source = JsonlFileTailSource(path, poll_interval=0.005, idle_timeout=0.05)
        # same wire rules (and error class) as read_jsonl_events
        with pytest.raises(InvalidEventError, match="not valid JSON"):
            list(source)

    def test_missing_file_raises_source_error(self, tmp_path):
        source = JsonlFileTailSource(tmp_path / "gone.jsonl", idle_timeout=0.05)
        with pytest.raises(SourceError, match="cannot open"):
            list(source)

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match="poll_interval"):
            JsonlFileTailSource(tmp_path / "x", poll_interval=0.0)
        with pytest.raises(ValueError, match="idle_timeout"):
            JsonlFileTailSource(tmp_path / "x", idle_timeout=0.0)


class TestSocketJsonlSource:
    def _serve(self, lines):
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)

        def run():
            connection, _ = server.accept()
            with connection:
                for line in lines:
                    connection.sendall((line + "\n").encode("utf-8"))

        thread = threading.Thread(target=run)
        thread.start()
        return server, thread

    def test_reads_until_peer_closes(self):
        lines = [event_line("A", float(i), g="x") for i in range(10)]
        server, thread = self._serve(lines)
        try:
            source = SocketJsonlSource("127.0.0.1", server.getsockname()[1])
            events = list(source)
        finally:
            thread.join()
            server.close()
        assert [event.time for event in events] == [float(i) for i in range(10)]

    def test_connection_refused_raises_source_error(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here any more
        source = SocketJsonlSource("127.0.0.1", port, connect_timeout=0.5)
        with pytest.raises(SourceError, match="cannot connect"):
            list(source)

    def _serve_connections(self, payloads, drain=False):
        """One accept per payload; each payload is sent raw, then closed.

        With ``drain=True`` the server then keeps accepting and immediately
        closing connections (clean EOFs) until the listener is closed, so a
        reconnecting client runs its retry budget down deterministically
        instead of hanging in the accept backlog.
        """
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(len(payloads))

        def run():
            for payload in payloads:
                connection, _ = server.accept()
                with connection:
                    if payload:
                        connection.sendall(payload.encode("utf-8"))
            if drain:
                server.settimeout(0.05)
                while True:
                    try:
                        connection, _ = server.accept()
                    except socket.timeout:
                        continue
                    except OSError:
                        return
                    connection.close()

        thread = threading.Thread(target=run)
        thread.start()
        return server, thread

    def test_complete_trailing_fragment_is_delivered(self):
        # the peer wrote a full record but died before the newline
        payload = event_line("A", 1.0, g="x") + "\n" + event_line("A", 2.0, g="x")
        server, thread = self._serve_connections([payload])
        try:
            source = SocketJsonlSource("127.0.0.1", server.getsockname()[1])
            events = list(source)
        finally:
            thread.join()
            server.close()
        assert [event.time for event in events] == [1.0, 2.0]

    def test_truncated_trailing_fragment_is_dropped(self):
        payload = event_line("A", 1.0, g="x") + "\n" + '{"type": "A", "ti'
        server, thread = self._serve_connections([payload])
        try:
            source = SocketJsonlSource("127.0.0.1", server.getsockname()[1])
            events = list(source)
        finally:
            thread.join()
            server.close()
        assert [event.time for event in events] == [1.0]

    def test_reconnects_after_peer_drop_and_resumes(self):
        first = event_line("A", 1.0, g="x") + "\n" + event_line("A", 2.0, g="x") + "\n"
        second = event_line("B", 3.0, g="x") + "\n"
        server, thread = self._serve_connections([first, second], drain=True)
        sleeps = []
        try:
            source = SocketJsonlSource(
                "127.0.0.1",
                server.getsockname()[1],
                max_retries=2,
                base_backoff=0.01,
                sleep=sleeps.append,
            )
            events = list(source)
        finally:
            server.close()
            thread.join()
        assert [event.time for event in events] == [1.0, 2.0, 3.0]
        # sequences continue across the reconnect: no arrival index reuse
        assert [event.sequence for event in events] == [0, 1, 2]
        assert sleeps, "the reconnect should have backed off at least once"

    def test_fragments_never_concatenate_across_connections(self):
        # conn 1 drops halfway through a record; conn 2 starts fresh.  A
        # buggy client would glue the halves into one (valid!) line.
        half = '{"type": "A", "time": 1'
        second = event_line("B", 9.0, g="x") + "\n"
        server, thread = self._serve_connections([half, second], drain=True)
        sleeps = []
        try:
            source = SocketJsonlSource(
                "127.0.0.1",
                server.getsockname()[1],
                max_retries=2,
                base_backoff=0.01,
                sleep=sleeps.append,
            )
            events = list(source)
        finally:
            server.close()
            thread.join()
        assert [(event.event_type, event.time) for event in events] == [("B", 9.0)]

    def test_backoff_grows_exponentially_and_caps(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here any more
        sleeps = []
        source = SocketJsonlSource(
            "127.0.0.1",
            port,
            connect_timeout=0.5,
            max_retries=4,
            base_backoff=0.1,
            max_backoff=0.5,
            sleep=sleeps.append,
        )
        with pytest.raises(SourceError, match="cannot connect"):
            list(source)
        assert sleeps == [0.1, 0.2, 0.4, 0.5]

    def test_cleanly_finished_producer_ends_the_stream_quietly(self):
        # the producer sends everything, closes cleanly, and stops
        # listening; a retrying client must end the stream, not raise
        payload = event_line("A", 1.0, g="x") + "\n"
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)

        def run():
            connection, _ = server.accept()
            server.close()  # reconnect attempts are refused from here on
            with connection:
                connection.sendall(payload.encode("utf-8"))

        thread = threading.Thread(target=run)
        thread.start()
        sleeps = []
        try:
            source = SocketJsonlSource(
                "127.0.0.1",
                server.getsockname()[1],
                connect_timeout=0.5,
                max_retries=2,
                base_backoff=0.01,
                sleep=sleeps.append,
            )
            events = list(source)
        finally:
            thread.join()
        assert [event.time for event in events] == [1.0]

    def test_mid_record_drop_with_failed_reconnects_raises(self):
        # the peer dies mid-record and never comes back: a retrying
        # client must report the dirty drop, not end the stream quietly
        payload = event_line("A", 1.0, g="x") + "\n" + '{"type": "A", "ti'
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)

        def run():
            connection, _ = server.accept()
            server.close()  # reconnect attempts are refused from here on
            with connection:
                connection.sendall(payload.encode("utf-8"))

        thread = threading.Thread(target=run)
        thread.start()
        try:
            source = SocketJsonlSource(
                "127.0.0.1",
                server.getsockname()[1],
                connect_timeout=0.5,
                max_retries=2,
                base_backoff=0.01,
                sleep=lambda _delay: None,
            )
            with pytest.raises(SourceError, match="cannot reconnect"):
                list(source)
        finally:
            thread.join()

    def test_repeated_mid_record_drops_exhaust_the_budget_and_raise(self):
        # every connection truncates mid-write: no delivered event ever
        # refills the budget, so the third dirty drop must raise instead
        # of silently ending the stream with data missing
        half = '{"type": "A", "time": 1'
        server, thread = self._serve_connections([half, half, half])
        try:
            source = SocketJsonlSource(
                "127.0.0.1",
                server.getsockname()[1],
                max_retries=2,
                base_backoff=0.01,
                sleep=lambda _delay: None,
            )
            with pytest.raises(SourceError, match="dropped mid-record"):
                list(source)
        finally:
            thread.join()
            server.close()

    def test_delivered_fragment_refills_the_retry_budget(self):
        # each connection ends mid-record but the fragment is a complete
        # event: delivery refills the budget like any other event, so a
        # budget of one survives two consecutive fragment closes
        payloads = [
            event_line("A", 1.0, g="x"),  # no trailing newline
            event_line("A", 2.0, g="x"),  # no trailing newline
            event_line("B", 3.0, g="x") + "\n",
        ]
        server, thread = self._serve_connections(payloads, drain=True)
        try:
            source = SocketJsonlSource(
                "127.0.0.1",
                server.getsockname()[1],
                max_retries=1,
                base_backoff=0.01,
                sleep=lambda _delay: None,
            )
            events = list(source)
        finally:
            server.close()
            thread.join()
        assert [event.time for event in events] == [1.0, 2.0, 3.0]
        assert [event.sequence for event in events] == [0, 1, 2]

    def test_retry_parameter_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            SocketJsonlSource("h", 1, max_retries=-1)
        with pytest.raises(ValueError, match="base_backoff"):
            SocketJsonlSource("h", 1, base_backoff=0.0)
        with pytest.raises(ValueError, match="max_backoff"):
            SocketJsonlSource("h", 1, base_backoff=1.0, max_backoff=0.5)


class TestOpenSource:
    def test_dash_reads_stdin(self, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(event_line("A", 1.0, g="x") + "\n")
        )
        events = list(open_source("-"))
        assert len(events) == 1

    def test_path_builds_file_source(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(event_line("A", 1.0, g="x") + "\n")
        assert isinstance(open_source(str(path)), JsonlFileSource)

    def test_tail_prefix_builds_tail_source(self, tmp_path):
        source = open_source(f"tail:{tmp_path / 'grow.jsonl'}")
        assert isinstance(source, JsonlFileTailSource)

    def test_tcp_builds_socket_source(self):
        source = open_source("tcp://localhost:9999")
        assert isinstance(source, SocketJsonlSource)

    @pytest.mark.parametrize("spec", ["tcp://", "tcp://host", "tcp://host:notaport"])
    def test_malformed_tcp_spec_raises(self, spec):
        with pytest.raises(SourceError, match="tcp://HOST:PORT"):
            open_source(spec)


class TestSinks:
    def test_callback_sink_forwards(self):
        seen = []
        runtime = build_runtime()
        runtime.run(make_events(), CallbackSink(seen.append))
        assert seen and all(record.query == "q" for record in seen)

    def test_memory_sink_collects(self):
        sink = MemorySink()
        runtime = build_runtime()
        returned = runtime.run(make_events(), sink)
        assert returned == []  # records left the pipeline via the sink
        assert len(sink) == len(sink.records) > 0

    def test_jsonl_file_sink_writes_one_line_per_record(self, tmp_path):
        path = tmp_path / "out.jsonl"
        sink = JsonlFileSink(path)
        runtime = build_runtime()
        runtime.run(make_events(), sink)
        sink.close()
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert sink.records_written == len(rows) > 0
        assert all(row["query"] == "q" for row in rows)

    def test_jsonl_file_sink_line_buffered_handle(self):
        handle = io.StringIO()
        sink = JsonlFileSink(handle, line_buffered=True)
        runtime = build_runtime()
        runtime.run(make_events(), sink)
        sink.close()
        assert not handle.closed  # caller-owned handles stay open
        assert len(handle.getvalue().splitlines()) == sink.records_written

    def test_jsonl_file_sink_unwritable_path_raises(self, tmp_path):
        with pytest.raises(SourceError, match="cannot open"):
            JsonlFileSink(tmp_path)  # a directory is not writable

    @pytest.mark.parametrize("sink_class", [JsonlFileSink, TransactionalSink])
    def test_a_count_past_the_int_digit_limit_names_query_and_limit(
        self, tmp_path, sink_class
    ):
        # 15,000 S events in one group and window: COUNT(*) = 2**15000 - 1,
        # 4,516 digits, past CPython's default 4,300-digit int-to-str limit
        runtime = StreamingRuntime(lateness=0.0)
        runtime.register(
            "RETURN g, COUNT(*) PATTERN S+ SEMANTICS skip-till-any-match "
            "GROUP-BY g WITHIN 100000 seconds",
            name="huge",
        )
        events = [Event("S", index * 0.001, {"g": "x"}) for index in range(15_000)]
        sink = sink_class(tmp_path / "out.jsonl")
        with pytest.raises(SourceError) as raised:
            runtime.run(events, sink)
        sink.close()
        assert "'huge'" in str(raised.value)
        assert "sys.set_int_max_str_digits" in str(raised.value)
        assert (tmp_path / "out.jsonl").read_text() == ""


class TestDriverLoop:
    def test_run_without_sink_returns_records(self):
        runtime = build_runtime()
        records = runtime.run(IterableSource(make_events()))
        assert records and records == sorted(
            records, key=lambda r: r.result.window_id
        )

    def test_plain_iterables_still_work(self):
        # the historical run(list_of_events) call style
        runtime = build_runtime()
        assert runtime.run(make_events())

    def test_drive_is_lazy_and_closes_the_source(self):
        closed = []

        class Probe(EventSource):
            def events(self):
                yield from make_events(4)

            def close(self):
                closed.append(True)

        runtime = build_runtime()
        iterator = runtime.drive(Probe())
        assert closed == []  # nothing pulled yet
        list(iterator)
        assert closed == [True]

    def test_source_closed_even_when_iteration_fails(self):
        closed = []

        class Exploding(EventSource):
            def events(self):
                yield make_events(1)[0]
                raise RuntimeError("boom")

            def close(self):
                closed.append(True)

        runtime = build_runtime()
        with pytest.raises(RuntimeError, match="boom"):
            list(runtime.drive(Exploding()))
        assert closed == [True]

    def test_on_late_receives_drained_side_channel(self):
        runtime = StreamingRuntime(lateness=0.0, late_policy="side-channel")
        runtime.register(QUERY, name="q")
        late_batches = []
        events = [
            Event("A", 5.0, {"g": "x"}),
            Event("A", 1.0, {"g": "x"}),  # late
            Event("A", 6.0, {"g": "x"}),
        ]
        runtime.run(events, on_late=late_batches.append)
        assert [e.time for batch in late_batches for e in batch] == [1.0]
        assert runtime.late_events == []

    def test_checkpoint_arguments_must_come_together(self):
        runtime = build_runtime()
        with pytest.raises(ValueError, match="pass both or neither"):
            list(runtime.drive(make_events(), checkpoint_interval=5))

    def test_checkpoint_interval_must_be_positive(self, tmp_path):
        from repro.streaming.checkpoint import CheckpointStore

        runtime = build_runtime()
        store = CheckpointStore(tmp_path / "ckpt")
        with pytest.raises(ValueError, match="at least 1"):
            list(
                runtime.drive(
                    make_events(), checkpoint_store=store, checkpoint_interval=0
                )
            )


class TestEngineStreamWithSource:
    def test_engine_stream_accepts_a_source(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            "".join(
                event_line("A", float(i), g="x") + "\n" for i in range(20)
            )
        )
        engine = CograEngine(QUERY)
        streamed = list(engine.stream(JsonlFileSource(path)))
        expected = engine.run(
            [Event("A", float(i), {"g": "x"}, sequence=i) for i in range(20)]
        )
        assert {(r.window_id, tuple(r.group.items())) for r in streamed} == {
            (r.window_id, tuple(r.group.items())) for r in expected
        }
