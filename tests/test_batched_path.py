"""Parity properties for the batched hot path.

The batched pipeline -- sliced JSONL decode, :meth:`StreamingRuntime.
process_batch`, the executor's key-grouped quiet-run batching and the
sharded runtime's pre-pickled blob shipping -- is a pure performance
layout.  Every test here pins the same contract: for any stream and any
slicing, down to slices of one, the records (and the counter totals) are
byte-identical -- with tracing on or off, and when a raising late policy
aborts a slice.  Sharded slicing under SIGKILL recovery and mid-stream
rebalancing is sampled by the configuration matrix
(``test_differential_matrix.py``).
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from differential import bounded_shuffle, canonical, slices, stream
from repro.core.executor import QueryExecutor
from repro.errors import InvalidEventError, LateEventError
from repro.events.event import Event
from repro.streaming.jsonl import (
    parse_jsonl_line,
    read_jsonl_event_batches,
    read_jsonl_events,
)
from repro.streaming.observability import Observability, Tracer
from repro.streaming.runtime import StreamingRuntime
from repro.streaming.sources import JsonlFileSource
from repro.streaming.sharded import ShardedRuntime

QUERY_ANY = """
RETURN g, COUNT(*), MAX(A.v)
PATTERN SEQ(A+, B)
SEMANTICS skip-till-any-match
GROUP-BY g
WITHIN 20 seconds SLIDE 10 seconds
"""

QUERY_NEXT = """
RETURN g, COUNT(*), SUM(A.v)
PATTERN SEQ(A+, B)
SEMANTICS skip-till-next-match
GROUP-BY g
WITHIN 20 seconds SLIDE 10 seconds
"""


def record_dicts(records):
    return [record.as_dict() for record in records]


def counter_totals(runtime):
    metrics = runtime.metrics
    return {
        "ingested": metrics.events_ingested,
        "released": metrics.events_released,
        "late_dropped": metrics.late_events_dropped,
        "results": metrics.results_emitted,
    }


# ---------------------------------------------------------------------------
# the executor: key-grouped quiet runs
# ---------------------------------------------------------------------------


class TestExecutorBatchParity:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        sizes=st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=4),
        query=st.sampled_from([QUERY_ANY, QUERY_NEXT]),
    )
    def test_any_slicing_matches_per_event(self, seed, sizes, query):
        from repro.query.parser import parse_query

        events = stream(seed, 200, span=90.0)
        reference = QueryExecutor(parse_query(query))
        expected = []
        for event in events:
            expected.extend(reference.process(event))
        expected.extend(reference.flush())

        batched = QueryExecutor(parse_query(query))
        got = []
        for group in slices(events, sizes):
            for start, results in batched.process_batch(group):
                # ``start`` is the event whose arrival closed the windows
                window_end = batched.query.window.window_end
                assert all(
                    group[start].time >= window_end(result.window_id)
                    for result in results
                )
                got.extend(results)
        got.extend(batched.flush())

        assert [repr(result) for result in got] == [
            repr(result) for result in expected
        ]
        assert batched.events_seen == reference.events_seen


# ---------------------------------------------------------------------------
# the single-process runtime
# ---------------------------------------------------------------------------


def traced(sample_rate, spans):
    """Runtime keyword arguments for one tracer arm (``None`` = no tracer)."""
    if sample_rate is None:
        return {}
    tracer = Tracer(sample_rate=sample_rate, sink=spans.append, rng=random.Random(5))
    return {"observability": Observability(tracer=tracer)}


def with_late_event(events, lateness, raising):
    """``events`` with, when ``raising``, one event far behind the watermark."""
    if not raising:
        return events
    late = Event("A", events[150].time - lateness - 25.0, {"g": "u", "v": 1})
    return events[:200] + [late] + events[200:]


def feed(runtime, slices):
    """Push ``slices``; returns (records, the LateEventError that ended it)."""
    records = []
    for group in slices:
        try:
            records.extend(runtime.process_batch(group))
        except LateEventError as error:
            return records, error
    return records, None


class TestRuntimeBatchParity:
    @pytest.mark.parametrize("raising", [False, True])
    @pytest.mark.parametrize("sample_rate", [None, 0.0, 1.0])
    @settings(max_examples=5, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        lateness=st.sampled_from([0.0, 3.0]),
        sizes=st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=3),
    )
    def test_process_batch_is_byte_identical_to_process(
        self, seed, lateness, sizes, sample_rate, raising
    ):
        events = with_late_event(
            bounded_shuffle(stream(seed, 300, span=90.0), lateness, seed),
            lateness,
            raising,
        )
        policy = "raise" if raising else "drop"

        per_event = StreamingRuntime(lateness=lateness, late_policy=policy)
        per_event.register(QUERY_ANY, name="any")
        per_event.register(QUERY_NEXT, name="next")
        expected = []
        expected_error = None
        for event in events:
            try:
                expected.extend(per_event.process(event))
            except LateEventError as error:
                expected_error = error
                break

        spans = []
        batched = StreamingRuntime(
            lateness=lateness, late_policy=policy, **traced(sample_rate, spans)
        )
        batched.register(QUERY_ANY, name="any")
        batched.register(QUERY_NEXT, name="next")
        got, error = feed(batched, slices(events, sizes))

        assert (error is None) == (expected_error is None) == (not raising)
        if error is not None:
            # the slice's earlier events emitted before the late one raised
            assert error.event is expected_error.event
            assert expected_error.records == []
            got.extend(error.records)
            # the driver loop delivers them before the error propagates
            driven = StreamingRuntime(lateness=lateness, late_policy=policy)
            driven.register(QUERY_ANY, name="any")
            driven.register(QUERY_NEXT, name="next")
            delivered = []
            with pytest.raises(LateEventError):
                for record in driven.drive(events, decode_batch_size=sizes[0]):
                    delivered.append(record)
            assert record_dicts(delivered) == record_dicts(expected)
        else:
            expected.extend(per_event.flush())
            got.extend(batched.flush())
        assert record_dicts(got) == record_dicts(expected)
        assert counter_totals(batched) == counter_totals(per_event)
        if sample_rate == 1.0:
            roots = [span for span in spans if span["parent"] is None]
            assert len(roots) == batched.metrics.events_ingested
            assert {"event", "ingest", "route"} <= {span["name"] for span in spans}
        else:
            assert spans == []

    @pytest.mark.parametrize("raising", [False, True])
    @pytest.mark.parametrize("sample_rate", [None, 0.0, 1.0])
    @settings(max_examples=2, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        sizes=st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=3),
    )
    def test_sharded_process_batch_matches_process(
        self, seed, sizes, sample_rate, raising
    ):
        events = with_late_event(stream(seed, 300, span=90.0), 0.0, raising)
        policy = "raise" if raising else "drop"
        single = StreamingRuntime(lateness=0.0, late_policy=policy)
        single.register(QUERY_ANY, name="q")
        before_late, _ = feed(single, [[event] for event in events])

        def run(slices, **kwargs):
            runtime = ShardedRuntime(
                workers=2, lateness=0.0, ship_interval=8, late_policy=policy, **kwargs
            )
            runtime.register(QUERY_ANY, name="q")
            try:
                records, error = feed(runtime, slices)
                if error is not None:
                    # the parent waits for every shipped epoch, so what the
                    # events before the late one produced travels on the
                    # error, as in a single-process run
                    records.extend(error.records)
                    assert canonical(records) == canonical(before_late)
                records.extend(runtime.flush())
            finally:
                runtime.close()
            return runtime, records, error

        per_event, expected, expected_error = run([[event] for event in events])
        spans = []
        batched, got, error = run(slices(events, sizes), **traced(sample_rate, spans))

        assert (error is None) == (expected_error is None) == (not raising)
        assert canonical(got) == canonical(expected)
        assert counter_totals(batched) == counter_totals(per_event)
        if sample_rate == 1.0:
            roots = [span for span in spans if span["name"] == "event"]
            assert len(roots) == batched.metrics.events_ingested
            assert {"event", "ingest", "route"} <= {span["name"] for span in spans}
        else:
            assert spans == []

    @pytest.mark.parametrize("sample_rate", [0.0, 1e-9, 1.0])
    def test_tracing_never_changes_the_executor_calls(self, monkeypatch, sample_rate):
        """An enabled tracer selects no other processing path.

        A *sampled* event ends the ingest step, so that its spans cover its
        own push only: it changes how the same events are cut into executor
        calls, never which events an executor is fed.
        """
        calls = []
        for name in ("process", "process_batch"):
            original = getattr(QueryExecutor, name)

            def recording(executor, fed, *args, _name=name, _call=original, **kwargs):
                events = list(fed) if _name == "process_batch" else [fed]
                calls.append((_name, executor.query.semantics, events))
                return _call(executor, fed, *args, **kwargs)

            monkeypatch.setattr(QueryExecutor, name, recording)
        events = bounded_shuffle(stream(7, 300, span=90.0), 3.0, 7)

        def entry_calls(**kwargs):
            del calls[:]
            runtime = StreamingRuntime(lateness=3.0, **kwargs)
            runtime.register(QUERY_ANY, name="any")
            runtime.register(QUERY_NEXT, name="next")
            runtime.run(events, decode_batch_size=32)
            return list(calls)

        def fed_per_query(recorded):
            fed = {}
            for _name, query, run in recorded:
                fed.setdefault(query, []).extend(run)
            return fed

        untraced = entry_calls()
        spans = []
        sampled = entry_calls(**traced(sample_rate, spans))
        assert any(len(run) > 1 for _name, _query, run in untraced)
        if sample_rate < 1.0:
            assert sampled == untraced
            assert spans == []  # 1e-9 is enabled, yet samples nothing here
        else:
            assert len(sampled) > len(untraced)
            # each query is fed the very same events in the very same order
            assert len(fed_per_query(untraced)) == 2
            assert fed_per_query(sampled) == fed_per_query(untraced)

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        decode_batch_size=st.sampled_from([1, 7, 64, 256, 1024]),
    )
    def test_drive_decode_batch_size_never_changes_records(
        self, seed, decode_batch_size
    ):
        events = bounded_shuffle(stream(seed, 250, span=90.0), 3.0, seed)
        reference = StreamingRuntime(lateness=3.0)
        reference.register(QUERY_ANY, name="q")
        expected = record_dicts(reference.run(events, decode_batch_size=1))

        runtime = StreamingRuntime(lateness=3.0)
        runtime.register(QUERY_ANY, name="q")
        got = record_dicts(
            runtime.run(events, decode_batch_size=decode_batch_size)
        )
        assert got == expected


# ---------------------------------------------------------------------------
# the JSONL batch decoder
# ---------------------------------------------------------------------------


_TYPES = ['"A"', '"B"', '"A"', '"Trade"', "3", "null", "true", '""']
_TIMES = ["1", "2.5", "0", "7", "0.25", "-1", "-0.0", "true", '"2.5"', '"x"']
_TIMES += ["null", "NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400, "[1]"]
_SEQUENCES = ["3", "0", "-2", "2.0", "2.5", '"7"', '"x"', "null", "true"]
_SEQUENCES += ["1" + "0" * 30, "1e400", "NaN", "[]"]
_NESTED = ['{"v": 1}', "{}", "[]", '"x"', "null", "0", '{"g": "n", "type": "Z"}']
_VALUES = ['"x"', "1", "null", "[1, 2]", '{"deep": true}', "1.5"]
#: how the object text sits on its line: bare, padded, after a BOM, with
#: trailing garbage, twice, inside an array
_FRAMES = ["%s", "%s", "%s", " %s ", "\t%s\r\n", "%s\n", "\ufeff%s", "%s x", "%s,"]
_FRAMES += ["%s%s", "[%s]", "%s # no comment"]
_ODD_LINES = ["", "   ", "\n", "# comment", "  # indented comment", "[1]", "3", '"x"']
_ODD_LINES += ["null", "{", '{"type": "A", "time": 1', "nope", "{}", "[]"]


@st.composite
def jsonl_lines(draw):
    """One line of JSONL input, well-formed or not."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(_ODD_LINES))
    fields = []
    if draw(st.integers(0, 9)):
        fields.append(("type", draw(st.sampled_from(_TYPES))))
    if draw(st.integers(0, 9)):
        fields.append(("time", draw(st.sampled_from(_TIMES))))
    extras = st.one_of(
        st.tuples(st.sampled_from(["g", "v", "venue"]), st.sampled_from(_VALUES)),
        st.tuples(st.just("sequence"), st.sampled_from(_SEQUENCES)),
        st.tuples(st.just("attributes"), st.sampled_from(_NESTED)),
        st.tuples(st.just("event_type"), st.sampled_from(_TYPES)),
        st.tuples(st.just("time"), st.sampled_from(_TIMES)),  # a duplicate key
        st.tuples(st.just("type"), st.sampled_from(_TYPES)),
    )
    fields += draw(st.lists(extras, max_size=5))
    fields = draw(st.permutations(fields))
    text = "{%s}" % ", ".join('"%s": %s' % field for field in fields)
    frame = draw(st.sampled_from(_FRAMES))
    return frame.replace("%s", text)


def decoded(call):
    """What a decode produced: the event's every field, or the error raised."""
    try:
        events = call()
    except Exception as error:  # the differential compares whatever is raised
        return type(error), str(error)
    return [
        (
            event.event_type,
            event.time,
            type(event.time),
            list(event.attributes.items()),  # key order included
            event.sequence,
            type(event.sequence),
        )
        for event in events
    ]


class TestJsonlBatchDecode:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        batch_size=st.integers(min_value=1, max_value=17),
    )
    def test_batched_decode_equals_per_line_decode(self, seed, batch_size):
        rng = random.Random(seed)
        lines = []
        for index in range(rng.randint(1, 40)):
            choice = rng.random()
            if choice < 0.1:
                lines.append("")  # blank
            elif choice < 0.2:
                lines.append("# comment")
            elif choice < 0.3:
                # the alias/nested shapes take the slow validation path
                lines.append(
                    '{"event_type": "A", "time": %d, '
                    '"attributes": {"v": %d}}' % (index, rng.randint(1, 9))
                )
            elif choice < 0.4:
                lines.append(
                    '{"type": "A", "time": %d, "sequence": %d, "v": 1}'
                    % (index, rng.randint(0, 99))
                )
            else:
                lines.append(
                    '{"type": "%s", "time": %s, "g": "%s", "v": %d}'
                    % (
                        rng.choice("AB"),
                        round(rng.uniform(0.0, 50.0), 3),
                        rng.choice("xyz"),
                        rng.randint(1, 9),
                    )
                )
        expected = list(read_jsonl_events(list(lines)))
        batches = list(read_jsonl_event_batches(list(lines), batch_size))
        flattened = [event for batch in batches for event in batch]
        assert [
            (e.event_type, e.time, e.attributes, e.sequence) for e in flattened
        ] == [(e.event_type, e.time, e.attributes, e.sequence) for e in expected]
        assert all(len(batch) <= batch_size for batch in batches)

    @settings(max_examples=400, deadline=None)
    @given(line=jsonl_lines(), index=st.integers(min_value=0, max_value=5))
    def test_every_line_decodes_as_parse_jsonl_line_decodes_it(self, line, index):
        """Same event -- attribute key order included -- or same error, per line."""
        padding = ['{"type": "P", "time": 0}'] * index  # moves the arrival index

        def per_line():
            event = parse_jsonl_line(line, default_sequence=index, line_number=index + 1)
            return [] if event is None else [event]

        def batched():
            batches = read_jsonl_event_batches(padding + [line], 64)
            return [event for batch in batches for event in batch][index:]

        assert decoded(batched) == decoded(per_line)

    @settings(max_examples=60, deadline=None)
    @given(
        lines=st.lists(jsonl_lines(), max_size=12),
        batch_size=st.sampled_from([1, 3, 64]),
    )
    def test_a_file_decodes_as_the_per_line_reader_decodes_it(self, lines, batch_size):
        def batched():
            batches = read_jsonl_event_batches(lines, batch_size)
            return [event for batch in batches for event in batch]

        assert decoded(batched) == decoded(lambda: list(read_jsonl_events(lines)))

    def test_a_decoded_event_owns_its_attributes(self):
        line = '{"type": "A", "time": 1.5, "g": "x", "v": 1}'
        first, second = (
            next(read_jsonl_event_batches([line], 1))[0] for _ in range(2)
        )
        second.attributes["v"] = 99
        second.attributes["extra"] = True
        del second.attributes["g"]
        assert first.attributes == {"g": "x", "v": 1}
        assert first.attributes is not second.attributes

    @pytest.mark.parametrize(
        "line, complaint",
        [
            pytest.param(
                '{"type": "A", "time": 1%s}' % ("0" * 400), "out of range", id="huge-time"
            ),
            pytest.param(
                '{"type": "A", "time": 1, "sequence": 1e999}',
                "out of range",
                id="infinite-sequence",
            ),
            pytest.param("[1]", "must be a JSON object", id="array"),
            pytest.param("3", "must be a JSON object", id="number"),
            pytest.param('"x"', "must be a JSON object", id="string"),
        ],
    )
    def test_malformed_lines_are_invalid_events_on_both_readers(self, line, complaint):
        """Regression: these left both readers as OverflowError / AttributeError."""
        for read in (
            lambda: parse_jsonl_line(line),
            lambda: list(read_jsonl_events([line])),
            lambda: list(read_jsonl_event_batches([line], 8)),
        ):
            with pytest.raises(InvalidEventError, match=complaint) as caught:
                read()
            # like the other malformed-field errors, it shows what was decoded
            assert repr(json.loads(line))[:40] in str(caught.value)


# flat events, each line ending in "\n" as a file iterator yields it
_FLAT = [
    '{"type":"%s","time":%d,"g":"x","v":%d}\n' % ("AB"[i % 2], i, i) for i in range(9)
]

_TWO_OBJECTS = '{"type":"A","time":1}%s{"type":"A","time":2}'

#: ``name -> lines``: shapes of real files, each decoded by the batched
#: reader exactly as the per-line reader decodes it
WIRE_CASES = {
    "flat": _FLAT,
    "no-final-newline": _FLAT[:-1] + [_FLAT[-1].rstrip("\n")],
    "no-newlines": [line.rstrip("\n") for line in _FLAT],
    # a decoder scanning the lines joined as "[" + ",".join(lines) + "]"
    # would accept these two lines as two events; line 1 is not JSON
    "separator-inside-a-line": [
        '{"type":"A","time":1}\n,{"type":"B","time":2',
        '"x":1}\n',
    ],
    "string-spanning-two-items": _FLAT[:2]
    + ['{"type":"A","time":3,"s":"x', 'y"}']
    + _FLAT[2:4],
    # joined as "[[" + "],[".join(lines) + "]]", the array swallows one
    # separator and the two-object line adds one back
    "nested-array-spanning-two-items": _FLAT[:2]
    + [
        '{"type":"A","time":3,"v":[[1',
        '2]]}',
        '{"type":"B","time":4}],[{"type":"B","time":5}',
    ]
    + _FLAT[2:4],
    "bracket-inside-a-string": _FLAT[:3]
    + ['{"type":"A","time":3,"s":"[x]"}\n', '{"type":"A","time":4,"s":"],["}\n']
    + _FLAT[3:],
    "list-value": _FLAT[:3] + ['{"type":"A","time":3,"tags":[1,"x"]}\n'] + _FLAT[3:],
    "crlf": [line.replace("\n", "\r\n") for line in _FLAT],
    "bom": ["\ufeff" + _FLAT[0]] + _FLAT[1:],
    "bom-mid-chunk": _FLAT[:4] + ["\ufeff" + _FLAT[4]] + _FLAT[5:],
    "blank-and-comment-lines": _FLAT[:2]
    + ["\n", "   \n", "# a comment\n", "  # another\n"]
    + _FLAT[2:5]
    + ["\r\n"]
    + _FLAT[5:],
    "aliases-and-nesting": _FLAT[:3]
    + [
        '{"event_type":"A","time":3,"attributes":{"g":"y","v":2}}\n',
        '{"type":"B","time":4,"sequence":40,"attributes":{"v":3}}\n',
    ]
    + _FLAT[3:],
    "bad-line-mid-chunk": _FLAT[:5] + ['{"type":"A","time":\n'] + _FLAT[5:],
    "bad-time-mid-chunk": _FLAT[:5] + ['{"type":"A","time":-1}\n'] + _FLAT[5:],
    "two-objects-on-a-line": _FLAT[:5] + [_TWO_OBJECTS % " "],
    "two-objects-and-a-comma": _FLAT[:5] + [_TWO_OBJECTS % ","],
    "trailing-comma": _FLAT[:5] + ['{"type":"A","time":1},\n'] + _FLAT[5:],
}


class TestWireShapes:
    """The batched reader decodes odd but real files as the per-line reader does."""

    @pytest.mark.parametrize("batch_size", [1, 3, 64])
    @pytest.mark.parametrize("case", sorted(WIRE_CASES))
    def test_a_slice_decodes_as_the_per_line_reader(self, case, batch_size):
        lines = WIRE_CASES[case]
        expected = decoded(lambda: list(read_jsonl_events(lines)))

        def batched():
            batches = list(read_jsonl_event_batches(lines, batch_size))
            # every batch but the last is full, as the per-line reader's were
            assert all(len(batch) == batch_size for batch in batches[:-1])
            return [event for batch in batches for event in batch]

        assert decoded(batched) == expected

    @pytest.mark.parametrize("batch_size", [1, 3, 64])
    @pytest.mark.parametrize("case", sorted(WIRE_CASES))
    def test_a_file_source_decodes_as_the_per_line_reader(
        self, tmp_path, case, batch_size
    ):
        path = tmp_path / "events.jsonl"
        path.write_text("".join(WIRE_CASES[case]), encoding="utf-8", newline="")
        with open(path, encoding="utf-8") as handle:
            expected = decoded(lambda: list(read_jsonl_events(handle)))

        def batched():
            source = JsonlFileSource(path)
            try:
                batches = source.batches(batch_size)
                return [event for batch in batches for event in batch]
            finally:
                source.close()

        assert decoded(batched) == expected

    @pytest.mark.parametrize("batch_size", [1, 3, 64])
    def test_a_bad_line_mid_chunk_is_named_by_its_number(self, batch_size):
        lines = _FLAT[:2] + ["# comment\n", "\n"] + _FLAT[2:4] + ["{nope\n"] + _FLAT[4:]
        with pytest.raises(InvalidEventError, match="^line 7 is not valid JSON"):
            list(read_jsonl_event_batches(lines, batch_size))

    def test_the_separator_counterexample_is_rejected_at_line_1(self):
        lines = WIRE_CASES["separator-inside-a-line"]
        with pytest.raises(InvalidEventError, match="^line 1 is not valid JSON"):
            list(read_jsonl_event_batches(lines, 64))

    def test_events_after_a_fallback_line_keep_their_arrival_index(self):
        lines = WIRE_CASES["list-value"] + WIRE_CASES["blank-and-comment-lines"]
        (batch,) = read_jsonl_event_batches(lines, 64)
        assert [event.sequence for event in batch] == list(range(len(batch)))

    def test_only_lines_off_the_inline_path_reach_the_per_line_reader(
        self, monkeypatch
    ):
        import repro.streaming.jsonl as jsonl

        parsed = []

        def per_line(line, default_sequence=0, line_number=None):
            parsed.append(line_number)
            return parse_jsonl_line(line, default_sequence, line_number)

        monkeypatch.setattr(jsonl, "parse_jsonl_line", per_line)
        for case in ("flat", "list-value", "bracket-inside-a-string", "crlf"):
            list(read_jsonl_event_batches(WIRE_CASES[case], 64))
        list(read_jsonl_event_batches(WIRE_CASES["blank-and-comment-lines"], 64))
        assert parsed == []
        # an alias and a nested-attributes line each go alone
        list(read_jsonl_event_batches(WIRE_CASES["aliases-and-nesting"], 64))
        assert parsed == [4, 5]
