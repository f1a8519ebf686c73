"""Tests for the ``cogra stream`` CLI subcommand and the JSONL wire format."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import InvalidEventError
from repro.events.event import Event
from repro.streaming.jsonl import (
    event_from_json,
    event_to_json,
    read_jsonl_events,
    write_jsonl_events,
)

QUERY = (
    "RETURN g, COUNT(*) PATTERN SEQ(A+, B) SEMANTICS skip-till-any-match "
    "GROUP-BY g WITHIN 10 seconds"
)


def write_events(path, rows):
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    return path


def event_rows():
    rows = []
    for i in range(30):
        rows.append(
            {"type": "A" if i % 3 else "B", "time": float(i), "g": "x", "v": i % 5}
        )
    return rows


class TestJsonlFormat:
    def test_event_from_flat_json(self):
        event = event_from_json({"type": "A", "time": 2.0, "g": "x", "v": 3})
        assert event.event_type == "A"
        assert event.attributes == {"g": "x", "v": 3}

    def test_event_from_nested_attributes(self):
        event = event_from_json(
            {"event_type": "A", "time": 2.0, "sequence": 4, "attributes": {"g": "x"}}
        )
        assert event.sequence == 4
        assert event["g"] == "x"

    def test_event_requires_type_and_time(self):
        with pytest.raises(InvalidEventError):
            event_from_json({"time": 1.0})
        with pytest.raises(InvalidEventError):
            event_from_json({"type": "A"})

    def test_event_rejects_non_object_attributes(self):
        with pytest.raises(InvalidEventError):
            event_from_json({"type": "A", "time": 1.0, "attributes": [1, 2]})
        # falsy wrong-typed values must fail as loudly as non-empty ones
        for bad in ([], "", 0, False):
            with pytest.raises(InvalidEventError):
                event_from_json({"type": "A", "time": 1.0, "attributes": bad})

    def test_event_rejects_non_numeric_time_and_sequence(self):
        with pytest.raises(InvalidEventError):
            event_from_json({"type": "A", "time": None})
        with pytest.raises(InvalidEventError):
            event_from_json({"type": "A", "time": "abc"})
        with pytest.raises(InvalidEventError):
            event_from_json({"type": "A", "time": 1.0, "sequence": "x"})

    def test_event_rejects_non_finite_and_negative_time(self):
        for bad_time in (float("nan"), float("inf"), float("-inf"), -1.0):
            with pytest.raises(InvalidEventError):
                event_from_json({"type": "A", "time": bad_time})

    def test_round_trip(self):
        original = Event("A", 1.5, {"g": "x"}, sequence=2)
        assert event_from_json(event_to_json(original)) == original

    def test_read_write_jsonl(self, tmp_path):
        events = [Event("A", 1.0, {"g": "x"}), Event("B", 2.0)]
        path = tmp_path / "events.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            assert write_jsonl_events(events, handle) == 2
        with open(path, "r", encoding="utf-8") as handle:
            assert list(read_jsonl_events(handle)) == events

    def test_blank_lines_and_comments_skipped(self):
        lines = ["", "# comment", json.dumps({"type": "A", "time": 1.0})]
        assert len(list(read_jsonl_events(lines))) == 1

    def test_invalid_json_reported_with_line_number(self):
        with pytest.raises(InvalidEventError, match="line 1"):
            list(read_jsonl_events(["not json"]))


class TestEmissionRecordDict:
    def test_query_attribution_survives_a_group_attribute_named_query(self):
        from repro.core.results import GroupResult
        from repro.streaming.emission import EmissionRecord

        result = GroupResult(
            window_id=0,
            window_start=0.0,
            window_end=10.0,
            group={"query": "group-value"},
            values={"COUNT(*)": 1},
            trend_count=1,
        )
        row = EmissionRecord("my-query", result, watermark=12.0).as_dict()
        assert row["query"] == "my-query"
        assert row["watermark"] == 12.0


class TestStreamCommand:
    def test_stream_from_file_emits_jsonl_results(self, tmp_path, capsys):
        path = write_events(tmp_path / "events.jsonl", event_rows())
        assert main(["stream", QUERY, "--input", str(path), "--lateness", "2"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out, "no results emitted"
        rows = [json.loads(line) for line in out]
        assert all(row["query"] == "q1" for row in rows)
        assert all("COUNT(*)" in row for row in rows)
        # window 0 covers times 0..9 and is emitted incrementally (it carries
        # the watermark that closed it), not at end of stream
        assert "watermark" in rows[0]

    def test_stream_multiple_queries(self, tmp_path, capsys):
        path = write_events(tmp_path / "events.jsonl", event_rows())
        second = (
            "RETURN g, COUNT(*) PATTERN SEQ(A+, B) SEMANTICS skip-till-next-match "
            "GROUP-BY g WITHIN 10 seconds"
        )
        assert main(["stream", QUERY, second, "--input", str(path)]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        assert {row["query"] for row in rows} == {"q1", "q2"}

    def test_stream_metrics_go_to_stderr(self, tmp_path, capsys):
        path = write_events(tmp_path / "events.jsonl", event_rows())
        assert main(["stream", QUERY, "--input", str(path), "--metrics"]) == 0
        err = capsys.readouterr().err
        assert "throughput" in err
        assert "watermark" in err

    def test_stream_reports_late_events(self, tmp_path, capsys):
        rows = [
            {"type": "A", "time": 50.0, "g": "x"},
            {"type": "B", "time": 1.0, "g": "x"},  # far behind the watermark
        ]
        path = write_events(tmp_path / "late.jsonl", rows)
        assert main(["stream", QUERY, "--input", str(path), "--lateness", "2"]) == 0
        err = capsys.readouterr().err
        assert "1 late events" in err

    def test_stream_late_output_writes_side_channel_jsonl(self, tmp_path, capsys):
        rows = [
            {"type": "A", "time": 50.0, "g": "x"},
            {"type": "B", "time": 1.0, "g": "x"},  # late
        ]
        path = write_events(tmp_path / "late.jsonl", rows)
        sink = tmp_path / "side.jsonl"
        assert (
            main(
                [
                    "stream",
                    QUERY,
                    "--input",
                    str(path),
                    "--lateness",
                    "2",
                    "--late-policy",
                    "side-channel",
                    "--late-output",
                    str(sink),
                ]
            )
            == 0
        )
        written = [json.loads(line) for line in sink.read_text().splitlines()]
        assert [row["time"] for row in written] == [1.0]
        assert "written to" in capsys.readouterr().err

    def test_late_output_holds_only_the_current_runs_events(self, tmp_path):
        sink = tmp_path / "side.jsonl"
        sink.write_text('{"type": "Stale", "time": 0.0}\n')  # from a prior run
        rows = [
            {"type": "A", "time": 50.0, "g": "x"},
            {"type": "B", "time": 1.0, "g": "x"},  # late
        ]
        path = write_events(tmp_path / "late.jsonl", rows)
        args = [
            "stream", QUERY, "--input", str(path), "--lateness", "2",
            "--late-policy", "side-channel", "--late-output", str(sink),
        ]
        assert main(args) == 0
        written = [json.loads(line) for line in sink.read_text().splitlines()]
        # reprocessing the sink must not replay the previous run's events
        assert [row["type"] for row in written] == ["B"]

    def test_late_output_requires_side_channel_policy(self, tmp_path, capsys):
        path = write_events(tmp_path / "events.jsonl", event_rows())
        code = main(
            ["stream", QUERY, "--input", str(path), "--late-output", str(tmp_path / "s.jsonl")]
        )
        assert code == 2
        assert "side-channel" in capsys.readouterr().err

    def test_side_channel_policy_requires_late_output(self, tmp_path, capsys):
        path = write_events(tmp_path / "events.jsonl", event_rows())
        code = main(
            ["stream", QUERY, "--input", str(path), "--late-policy", "side-channel"]
        )
        assert code == 2
        assert "--late-output" in capsys.readouterr().err

    def test_exactly_once_requires_a_file_sink(self, tmp_path, capsys):
        path = write_events(tmp_path / "events.jsonl", event_rows())
        code = main(["stream", QUERY, "--input", str(path), "--exactly-once"])
        assert code == 2
        assert "--exactly-once requires --sink" in capsys.readouterr().err

    def test_max_inflight_must_be_positive(self, tmp_path, capsys):
        path = write_events(tmp_path / "events.jsonl", event_rows())
        code = main(
            ["stream", QUERY, "--input", str(path), "--max-inflight", "0"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--max-inflight" in err and "at least 1" in err

    def test_sink_flag_routes_records_to_a_file(self, tmp_path, capsys):
        path = write_events(tmp_path / "events.jsonl", event_rows())
        sink = tmp_path / "out.jsonl"
        code = main(
            [
                "stream", QUERY, "--input", str(path),
                "--sink", str(sink), "--exactly-once",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == ""  # records went to the file
        rows = [json.loads(line) for line in sink.read_text().splitlines()]
        assert rows and all("query" in row for row in rows)

    def test_lateness_conflicts_with_punctuation(self, tmp_path, capsys):
        path = write_events(tmp_path / "events.jsonl", event_rows())
        code = main(
            [
                "stream", QUERY, "--input", str(path),
                "--lateness", "5", "--punctuation-type", "Tick",
            ]
        )
        assert code == 2
        assert "punctuation" in capsys.readouterr().err

    def test_missing_input_file_gets_one_line_error(self, tmp_path, capsys):
        code = main(["stream", QUERY, "--input", str(tmp_path / "nope.jsonl")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: cannot open --input")

    def test_unwritable_late_output_gets_one_line_error(self, tmp_path, capsys):
        path = write_events(tmp_path / "events.jsonl", event_rows())
        code = main(
            [
                "stream", QUERY, "--input", str(path),
                "--late-policy", "side-channel",
                "--late-output", str(tmp_path),  # a directory is not writable
            ]
        )
        assert code == 1
        assert "cannot open --late-output" in capsys.readouterr().err

    def test_negative_lateness_rejected(self, tmp_path, capsys):
        path = write_events(tmp_path / "events.jsonl", event_rows())
        code = main(["stream", QUERY, "--input", str(path), "--lateness", "-5"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--lateness" in err and "at least 0" in err

    def test_malformed_event_gets_one_line_error(self, tmp_path, capsys):
        path = write_events(tmp_path / "bad.jsonl", [{"type": "A"}])  # no time
        assert main(["stream", QUERY, "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "time" in err

    def test_raise_policy_gets_one_line_error(self, tmp_path, capsys):
        rows = [
            {"type": "A", "time": 50.0, "g": "x"},
            {"type": "B", "time": 1.0, "g": "x"},
        ]
        path = write_events(tmp_path / "late.jsonl", rows)
        code = main(
            ["stream", QUERY, "--input", str(path), "--late-policy", "raise"]
        )
        assert code == 1
        assert "behind the watermark" in capsys.readouterr().err

    def test_equal_timestamps_without_sequence_match_batch(self, tmp_path, capsys):
        # JSONL events without a sequence field get arrival indices, so
        # same-timestamp events still form adjacent pairs (as in batch mode)
        rows = [
            {"type": "A", "time": 1.0, "g": "x"},
            {"type": "A", "time": 1.0, "g": "x"},
            {"type": "B", "time": 2.0, "g": "x"},
        ]
        path = write_events(tmp_path / "ties.jsonl", rows)
        assert main(["stream", QUERY, "--input", str(path)]) == 0
        out = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
        # SEQ(A+, B) under skip-till-any-match: {a1 b}, {a2 b}, {a1 a2 b}
        assert out[0]["COUNT(*)"] == 3

    def test_runtime_take_late_events_drains_the_side_channel(self):
        from repro import Event, StreamingRuntime

        runtime = StreamingRuntime(lateness=0.0, late_policy="side-channel")
        runtime.register(QUERY, name="q")
        runtime.process(Event("A", 50.0, {"g": "x"}))
        runtime.process(Event("B", 1.0, {"g": "x"}))
        assert [e.time for e in runtime.take_late_events()] == [1.0]
        assert runtime.late_events == []

    def test_stream_with_punctuation_watermarks(self, tmp_path, capsys):
        rows = [
            {"type": "A", "time": 1.0, "g": "x"},
            {"type": "B", "time": 2.0, "g": "x"},
            {"type": "Tick", "time": 30.0},
            {"type": "A", "time": 31.0, "g": "x"},
        ]
        path = write_events(tmp_path / "punct.jsonl", rows)
        assert (
            main(
                [
                    "stream",
                    QUERY,
                    "--input",
                    str(path),
                    "--punctuation-type",
                    "Tick",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out.strip().splitlines()
        rows = [json.loads(line) for line in out]
        assert any(row.get("watermark") == 30.0 for row in rows)

    def test_stream_from_stdin(self, tmp_path, capsys, monkeypatch):
        import io

        payload = "".join(json.dumps(row) + "\n" for row in event_rows())
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        assert main(["stream", QUERY]) == 0
        assert capsys.readouterr().out.strip()

    def test_stream_workers_matches_single_process(self, tmp_path, capsys):
        path = write_events(tmp_path / "events.jsonl", event_rows())
        assert main(["stream", QUERY, "--input", str(path), "--lateness", "2"]) == 0
        single = sorted(capsys.readouterr().out.strip().splitlines())
        assert (
            main(
                [
                    "stream",
                    QUERY,
                    "--input",
                    str(path),
                    "--lateness",
                    "2",
                    "--workers",
                    "2",
                    "--ship-interval",
                    "1",
                ]
            )
            == 0
        )
        sharded = sorted(capsys.readouterr().out.strip().splitlines())
        assert sharded == single

    def test_stream_workers_metrics_include_shard_report(self, tmp_path, capsys):
        path = write_events(tmp_path / "events.jsonl", event_rows())
        assert (
            main(
                [
                    "stream",
                    QUERY,
                    "--input",
                    str(path),
                    "--workers",
                    "2",
                    "--metrics",
                ]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "shards" in err
        assert "shard 0" in err

    def test_stream_rejects_non_positive_workers(self, tmp_path, capsys):
        path = write_events(tmp_path / "events.jsonl", event_rows())
        assert main(["stream", QUERY, "--input", str(path), "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err


class TestPipelineFlags:
    """--source / --checkpoint-dir / --checkpoint-interval / --recover."""

    def test_source_flag_reads_a_file(self, tmp_path, capsys):
        path = write_events(tmp_path / "events.jsonl", event_rows())
        assert main(["stream", QUERY, "--source", str(path)]) == 0
        rows = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert rows and all(row["query"] == "q1" for row in rows)

    def test_source_flag_overrides_input(self, tmp_path, capsys):
        good = write_events(tmp_path / "events.jsonl", event_rows())
        assert (
            main(
                [
                    "stream", QUERY,
                    "--input", str(tmp_path / "missing.jsonl"),
                    "--source", str(good),
                ]
            )
            == 0
        )
        assert capsys.readouterr().out.strip()

    def test_missing_source_reports_the_flag(self, tmp_path, capsys):
        code = main(["stream", QUERY, "--source", str(tmp_path / "nope.jsonl")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: cannot open --source")

    def test_malformed_tcp_source_rejected(self, tmp_path, capsys):
        assert main(["stream", QUERY, "--source", "tcp://nohost"]) == 1
        assert "tcp://HOST:PORT" in capsys.readouterr().err

    def test_checkpoint_interval_requires_dir(self, tmp_path, capsys):
        path = write_events(tmp_path / "events.jsonl", event_rows())
        code = main(
            ["stream", QUERY, "--input", str(path), "--checkpoint-interval", "5"]
        )
        assert code == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_checkpoint_interval_must_be_positive(self, tmp_path, capsys):
        path = write_events(tmp_path / "events.jsonl", event_rows())
        code = main(
            [
                "stream", QUERY, "--input", str(path),
                "--checkpoint-dir", str(tmp_path / "ckpt"),
                "--checkpoint-interval", "0",
            ]
        )
        assert code == 2
        assert "--checkpoint-interval" in capsys.readouterr().err

    def test_recover_requires_dir(self, tmp_path, capsys):
        path = write_events(tmp_path / "events.jsonl", event_rows())
        assert main(["stream", QUERY, "--input", str(path), "--recover"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_periodic_checkpoints_build_an_incremental_chain(self, tmp_path, capsys):
        path = write_events(tmp_path / "events.jsonl", event_rows())
        directory = tmp_path / "ckpt"
        assert (
            main(
                [
                    "stream", QUERY, "--input", str(path),
                    "--checkpoint-dir", str(directory),
                    "--checkpoint-interval", "10",
                ]
            )
            == 0
        )
        names = sorted(p.name for p in directory.iterdir())
        assert "MANIFEST.json" in names
        assert any(name.startswith("base-") for name in names)
        assert any(name.startswith("delta-") for name in names)

    def test_recover_rerun_of_the_same_command_continues_exactly(
        self, tmp_path, capsys
    ):
        """The natural crash restart: the IDENTICAL command is re-run.

        The first invocation sees only a prefix of the stream (the job
        "died" before the rest was written); the re-run with --recover gets
        the full file, skips the already-ingested prefix, and must produce
        exactly the windows an uninterrupted run over the full stream
        emits (dedup by window identity -- at-least-once emission re-emits
        windows closed after the last checkpoint).
        """
        rows = event_rows()
        path = tmp_path / "events.jsonl"
        write_events(path, rows[:20])
        directory = tmp_path / "ckpt"
        command = [
            "stream", QUERY, "--input", str(path),
            "--checkpoint-dir", str(directory),
            "--checkpoint-interval", "10",
            "--recover",
        ]
        assert main(command) == 0
        first_out = capsys.readouterr().out
        # the stream grows and the same command is re-run
        write_events(path, rows)
        assert main(command) == 0
        captured = capsys.readouterr()
        assert "resumed from checkpoint" in captured.err
        assert "skipping the 20 already-ingested events" in captured.err

        full = write_events(tmp_path / "full.jsonl", rows)
        assert main(["stream", QUERY, "--input", str(full)]) == 0
        full_rows = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]

        def key(row):
            return (row["window_id"], row["g"])

        emitted = {
            key(row): row["COUNT(*)"]
            for out in (first_out, captured.out)
            for row in map(json.loads, out.strip().splitlines())
        }
        # identical values, and between both invocations nothing is missing
        assert emitted == {key(row): row["COUNT(*)"] for row in full_rows}

    def test_checkpoint_dir_alone_is_rejected(self, tmp_path, capsys):
        path = write_events(tmp_path / "events.jsonl", event_rows())
        code = main(
            [
                "stream", QUERY, "--input", str(path),
                "--checkpoint-dir", str(tmp_path / "ckpt"),
            ]
        )
        assert code == 2
        assert "--checkpoint-dir does nothing by itself" in capsys.readouterr().err

    def test_recover_with_empty_store_starts_fresh(self, tmp_path, capsys):
        path = write_events(tmp_path / "events.jsonl", event_rows())
        assert (
            main(
                [
                    "stream", QUERY, "--input", str(path),
                    "--checkpoint-dir", str(tmp_path / "empty"),
                    "--recover",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "starting fresh" in captured.err
        assert captured.out.strip()

    def test_corrupt_store_surfaces_one_line_error(self, tmp_path, capsys):
        directory = tmp_path / "ckpt"
        directory.mkdir()
        (directory / "MANIFEST.json").write_text("{ not json")
        path = write_events(tmp_path / "events.jsonl", event_rows())
        code = main(
            [
                "stream", QUERY, "--input", str(path),
                "--checkpoint-dir", str(directory),
                "--recover",
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_recover_skip_covers_punctuation_lines(self, tmp_path, capsys):
        """Punctuations consume source lines without counting as ingested."""
        rows = []
        for i in range(30):
            rows.append({"type": "A" if i % 3 else "B", "time": float(i), "g": "x"})
            if i % 5 == 4:
                rows.append({"type": "WM", "time": float(i)})
        path = tmp_path / "events.jsonl"
        write_events(path, rows[: len(rows) // 2])
        command = [
            "stream", QUERY, "--input", str(path),
            "--punctuation-type", "WM",
            "--checkpoint-dir", str(tmp_path / "ckpt"),
            "--checkpoint-interval", "10",
            "--recover",
        ]
        assert main(command) == 0
        first_out = capsys.readouterr().out
        write_events(path, rows)
        assert main(command) == 0
        captured = capsys.readouterr()
        assert "skipping the" in captured.err

        full = write_events(tmp_path / "full.jsonl", rows)
        assert (
            main(
                ["stream", QUERY, "--input", str(full), "--punctuation-type", "WM"]
            )
            == 0
        )
        full_rows = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]

        def key(row):
            return (row["window_id"], row["g"])

        emitted = {
            key(row): row["COUNT(*)"]
            for out in (first_out, captured.out)
            for row in map(json.loads, out.strip().splitlines())
        }
        assert emitted == {key(row): row["COUNT(*)"] for row in full_rows}

    def test_recover_from_stdin_warns_instead_of_skipping(
        self, tmp_path, capsys, monkeypatch
    ):
        import io

        rows = event_rows()
        path = write_events(tmp_path / "events.jsonl", rows[:20])
        directory = tmp_path / "ckpt"
        assert (
            main(
                [
                    "stream", QUERY, "--input", str(path),
                    "--checkpoint-dir", str(directory),
                    "--checkpoint-interval", "10",
                ]
            )
            == 0
        )
        capsys.readouterr()
        # a live pipe resumes where it left off: deliver ONLY the remainder
        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO("".join(json.dumps(row) + "\n" for row in rows[20:])),
        )
        assert (
            main(
                [
                    "stream", QUERY, "--input", "-",
                    "--checkpoint-dir", str(directory),
                    "--recover",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "events are NOT skipped" in captured.err
        assert "skipping the" not in captured.err
        # the fresh events were processed, not discarded
        resumed_rows = [
            json.loads(line) for line in captured.out.strip().splitlines()
        ]
        assert any(row["window_id"] >= 2 for row in resumed_rows)


class TestConfigFlag:
    """``--config job.json`` + ``--dry-run``: the declarative CLI surface."""

    def _write_config(self, tmp_path, events_path, **extra):
        config = {
            "queries": [{"text": QUERY, "name": "pairs"}],
            "watermark": {"lateness": 2.0},
            "late": {"policy": "drop"},
            "source": {"spec": str(events_path)},
        }
        config.update(extra)
        path = tmp_path / "job.json"
        path.write_text(json.dumps(config))
        return path

    def test_config_file_runs_the_job(self, tmp_path, capsys):
        events = write_events(tmp_path / "events.jsonl", event_rows())
        config = self._write_config(tmp_path, events)
        assert main(["stream", "--config", str(config)]) == 0
        rows = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        assert rows and all(row["query"] == "pairs" for row in rows)

    def test_flags_override_the_config_file(self, tmp_path, capsys):
        rows = [
            {"type": "A", "time": 50.0, "g": "x"},
            {"type": "B", "time": 1.0, "g": "x"},  # late
        ]
        events = write_events(tmp_path / "late.jsonl", rows)
        config = self._write_config(tmp_path, events)  # file says policy=drop
        assert (
            main(["stream", "--config", str(config), "--late-policy", "raise"])
            == 1
        )
        assert "behind the watermark" in capsys.readouterr().err

    def test_positional_queries_override_config_queries(self, tmp_path, capsys):
        events = write_events(tmp_path / "events.jsonl", event_rows())
        config = self._write_config(tmp_path, events)
        assert main(["stream", QUERY, "--config", str(config)]) == 0
        rows = [
            json.loads(line)
            for line in capsys.readouterr().out.strip().splitlines()
        ]
        # flag-provided queries replace the file's and get positional names
        assert rows and all(row["query"] == "q1" for row in rows)

    def test_dry_run_prints_resolved_config_and_plan(self, tmp_path, capsys):
        events = write_events(tmp_path / "events.jsonl", event_rows())
        config = self._write_config(tmp_path, events)
        assert main(["stream", "--config", str(config), "--dry-run"]) == 0
        captured = capsys.readouterr()
        resolved = json.loads(captured.out)
        assert resolved["queries"][0]["name"] == "pairs"
        assert resolved["watermark"]["lateness"] == 2.0
        assert "granularity=" in captured.err
        # nothing was ingested: no result rows mixed into the JSON
        assert "window_id" not in captured.out

    def test_dry_run_output_is_itself_a_valid_config(self, tmp_path, capsys):
        events = write_events(tmp_path / "events.jsonl", event_rows())
        config = self._write_config(tmp_path, events)
        assert main(["stream", "--config", str(config), "--dry-run"]) == 0
        resolved = capsys.readouterr().out
        round_tripped = tmp_path / "resolved.json"
        round_tripped.write_text(resolved)
        assert main(["stream", "--config", str(round_tripped)]) == 0
        assert capsys.readouterr().out.strip()

    def test_dry_run_without_config_shows_flag_settings(self, tmp_path, capsys):
        assert main(["stream", QUERY, "--lateness", "3", "--dry-run"]) == 0
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["watermark"]["lateness"] == 3.0
        assert resolved["late"]["policy"] == "drop"  # the CLI default

    def test_rebalance_flag_merges_with_config_tuning(self, tmp_path, capsys):
        events = write_events(tmp_path / "events.jsonl", event_rows())
        config = self._write_config(
            tmp_path,
            events,
            shards={"workers": 2, "rebalance": {"min_interval": 99}},
        )
        argv = ["stream", "--config", str(config), "--rebalance", "--dry-run"]
        assert main(argv) == 0
        resolved = json.loads(capsys.readouterr().out)
        # the flag switches rebalancing on without clobbering the file's
        # tuning keys (deep merge, not replacement)
        assert resolved["shards"]["rebalance"]["enabled"] is True
        assert resolved["shards"]["rebalance"]["min_interval"] == 99

    def test_rebalance_flag_runs_the_sharded_job(self, tmp_path, capsys):
        events = write_events(tmp_path / "events.jsonl", event_rows())
        assert (
            main(
                [
                    "stream",
                    QUERY,
                    "--input",
                    str(events),
                    "--workers",
                    "2",
                    "--rebalance",
                    "--metrics",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        rows = [json.loads(line) for line in captured.out.strip().splitlines()]
        assert rows and all(row["query"] == "q1" for row in rows)
        assert "rebalances" in captured.err
        assert "router" in captured.err

    def test_unknown_config_key_is_rejected_with_suggestion(self, tmp_path, capsys):
        events = write_events(tmp_path / "events.jsonl", event_rows())
        config = tmp_path / "job.json"
        config.write_text(
            json.dumps(
                {
                    "queries": [{"text": QUERY}],
                    "watermrak": {"lateness": 2.0},
                    "source": {"spec": str(events)},
                }
            )
        )
        assert main(["stream", "--config", str(config)]) == 2
        assert "did you mean 'watermark'" in capsys.readouterr().err

    def test_missing_config_file_is_rejected(self, tmp_path, capsys):
        assert main(["stream", QUERY, "--config", str(tmp_path / "nope.json")]) == 2
        assert "cannot read job config" in capsys.readouterr().err

    def test_no_queries_anywhere_is_rejected(self, tmp_path, capsys):
        assert main(["stream"]) == 2
        assert "at least one query" in capsys.readouterr().err

    def test_config_cross_field_errors_exit_2(self, tmp_path, capsys):
        events = write_events(tmp_path / "events.jsonl", event_rows())
        config = self._write_config(
            tmp_path, events, checkpoint={"recover": True}
        )
        assert main(["stream", "--config", str(config)]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_config_sink_spec_routes_records_to_a_file(self, tmp_path, capsys):
        events = write_events(tmp_path / "events.jsonl", event_rows())
        out = tmp_path / "out.jsonl"
        config = self._write_config(tmp_path, events, sink={"spec": str(out)})
        assert main(["stream", "--config", str(config)]) == 0
        assert capsys.readouterr().out.strip() == ""  # nothing on stdout
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert rows and all(row["query"] == "pairs" for row in rows)

    def test_punctuation_flag_overrides_config_file_lateness(self, tmp_path, capsys):
        rows = [
            {"type": "A", "time": 1.0, "g": "x"},
            {"type": "B", "time": 2.0, "g": "x"},
            {"type": "Tick", "time": 30.0},
        ]
        events = write_events(tmp_path / "events.jsonl", rows)
        config = self._write_config(tmp_path, events)  # file sets lateness 2.0
        # switching the watermark kind via flag moots the file's lateness
        assert (
            main(["stream", "--config", str(config), "--punctuation-type", "Tick"])
            == 0
        )
        out = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert any(row.get("watermark") == 30.0 for row in out)
        # an explicitly passed --lateness still conflicts
        assert (
            main(
                [
                    "stream", "--config", str(config),
                    "--punctuation-type", "Tick", "--lateness", "5",
                ]
            )
            == 2
        )
        assert "punctuation" in capsys.readouterr().err

    def test_unwritable_config_sink_gets_one_line_error(self, tmp_path, capsys):
        events = write_events(tmp_path / "events.jsonl", event_rows())
        config = self._write_config(
            tmp_path, events, sink={"spec": str(tmp_path)}  # a directory
        )
        assert main(["stream", "--config", str(config)]) == 1
        assert "cannot open --sink" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# one job lifecycle: `cogra stream` is the Job facade plus reporting
# ---------------------------------------------------------------------------

REPO = Path(__file__).resolve().parent.parent


def example_config():
    """examples/job_example.json, its relative source path made absolute."""
    config = json.loads((REPO / "examples" / "job_example.json").read_text())
    config["source"]["spec"] = str(REPO / "examples" / "job_events.jsonl")
    del config["sink"]
    return config


def sharded_checkpointing_config(tmp_path):
    # four groups, so both workers own live sub-streams
    rows = [dict(row, g="wxyz"[i % 4]) for i, row in enumerate(event_rows() * 4)]
    for i, row in enumerate(rows):
        row["time"] = float(i)
    events = write_events(tmp_path / "events.jsonl", rows)
    return {
        "queries": [{"text": QUERY, "name": "pairs"}],
        "watermark": {"lateness": 2.0},
        "late": {"policy": "drop"},
        "source": {"spec": str(events)},
        "shards": {"workers": 2},
        "checkpoint": {"dir": "ckpt", "interval": 10},
    }


class TestCliRunsThroughJob:
    """``cogra stream --config X --sink A`` ≡ ``repro.job(X with sink B)``."""

    def run_both(self, tmp_path, monkeypatch, config):
        """One run per route; same sink bytes, same metric counters."""
        import repro
        from repro import cli

        def routed(route):
            # each route gets its own sink file and checkpoint store
            copy = json.loads(json.dumps(config))
            if "checkpoint" in copy:
                copy["checkpoint"]["dir"] = str(tmp_path / f"{route}-ckpt")
            return copy, tmp_path / f"{route}.jsonl"

        started = []
        real_job = cli.job
        monkeypatch.setattr(
            cli, "job", lambda spec: started.append(real_job(spec)) or started[-1]
        )
        cli_config, cli_sink = routed("cli")
        path = tmp_path / "cli-job.json"
        path.write_text(json.dumps(cli_config))
        assert main(["stream", "--config", str(path), "--sink", str(cli_sink)]) == 0

        job_config, job_sink = routed("job")
        job_config["sink"] = {"spec": str(job_sink)}
        via_job = repro.job(job_config)
        records = via_job.results()

        assert cli_sink.read_bytes() == job_sink.read_bytes()
        assert len(job_sink.read_text().splitlines()) == len(records)
        assert started[-1].metrics.snapshot() == via_job.metrics.snapshot()
        return records

    def test_the_example_job(self, tmp_path, monkeypatch):
        assert self.run_both(tmp_path, monkeypatch, example_config())

    def test_two_workers_with_periodic_checkpoints(self, tmp_path, monkeypatch):
        config = sharded_checkpointing_config(tmp_path)
        assert self.run_both(tmp_path, monkeypatch, config)
        for route in ("cli", "job"):
            assert (tmp_path / f"{route}-ckpt" / "MANIFEST.json").exists()

    def test_checkpointed_prefix_then_recover_on_the_full_input(
        self, tmp_path, monkeypatch, capsys
    ):
        rows = event_rows()
        events = tmp_path / "events.jsonl"
        config = {
            "queries": [{"text": QUERY}],
            "late": {"policy": "drop"},
            "source": {"spec": str(events)},
            "checkpoint": {"dir": "ckpt", "interval": 10, "recover": True},
        }
        write_events(events, rows[:20])
        self.run_both(tmp_path, monkeypatch, config)
        assert "starting fresh" in capsys.readouterr().err
        write_events(events, rows)
        resumed = self.run_both(tmp_path, monkeypatch, config)
        assert resumed and "resumed from checkpoint" in capsys.readouterr().err


#: per flag: argv that sets it validly (with what its cross-field rules
#: need), the value it must land as, and argv that must be refused (None
#: where a switch or argparse's own choices leave nothing to refuse)
FLAG_CASES = {
    "input": (["--input", "in.jsonl"], "in.jsonl", ["--input", ""]),
    "source": (["--source", "tail:in.jsonl"], "tail:in.jsonl", ["--source", ""]),
    "sink": (["--sink", "out.jsonl"], "out.jsonl", ["--sink", ""]),
    "exactly_once": (
        ["--exactly-once", "--sink", "out.jsonl"],
        True,
        ["--exactly-once"],
    ),
    "max_inflight": (["--max-inflight", "8"], 8, ["--max-inflight", "0"]),
    "checkpoint_dir": (
        ["--checkpoint-dir", "ckpt", "--recover"],
        "ckpt",
        ["--checkpoint-dir", "ckpt"],
    ),
    "checkpoint_interval": (
        ["--checkpoint-dir", "ckpt", "--checkpoint-interval", "5"],
        5,
        ["--checkpoint-dir", "ckpt", "--checkpoint-interval", "0"],
    ),
    "recover": (["--checkpoint-dir", "ckpt", "--recover"], True, ["--recover"]),
    "lateness": (["--lateness", "2.5"], 2.5, ["--lateness", "nan"]),
    "late_policy": (["--late-policy", "raise"], "raise", None),
    "punctuation_type": (
        ["--punctuation-type", "Tick"],
        "Tick",
        ["--punctuation-type", ""],
    ),
    "late_output": (
        ["--late-policy", "side-channel", "--late-output", "late.jsonl"],
        "late.jsonl",
        ["--late-output", "late.jsonl"],
    ),
    "emit_empty_groups": (["--emit-empty-groups"], True, None),
    "workers": (["--workers", "2"], 2, ["--workers", "0"]),
    "ship_interval": (["--ship-interval", "1"], 1, ["--ship-interval", "0"]),
    "decode_batch_size": (
        ["--decode-batch-size", "16"],
        16,
        ["--decode-batch-size", "0"],
    ),
    "rebalance": (["--rebalance"], True, None),
    "metrics_export": (
        ["--metrics-export", "m.jsonl"],
        "m.jsonl",
        ["--metrics-export", ""],
    ),
    "metrics_interval": (
        ["--metrics-interval", "0.5"],
        0.5,
        ["--metrics-interval", "inf"],
    ),
    "trace": (
        ["--trace", "t.jsonl", "--trace-sample-rate", "0.5"],
        "t.jsonl",
        ["--trace", "t.jsonl"],
    ),
    "trace_sample_rate": (
        ["--trace", "t.jsonl", "--trace-sample-rate", "0.5"],
        0.5,
        ["--trace", "t.jsonl", "--trace-sample-rate", "1.5"],
    ),
    "prometheus_port": (
        ["--prometheus-port", "0"],
        0,
        ["--prometheus-port", "70000"],
    ),
}


class TestFlagTable:
    """The one flag <-> config path table, walked in both directions."""

    def test_stream_keeps_its_26_arguments_and_every_flag_has_a_case(self):
        from repro.cli import _STREAM_FLAGS, build_parser

        commands = build_parser()._subparsers._group_actions[0]
        dests = {
            action.dest
            for action in commands.choices["stream"]._actions
            if action.dest != "help"
        }
        assert len(dests) == 26
        assert set(_STREAM_FLAGS) == dests - {"queries", "config", "dry_run", "metrics"}
        assert set(FLAG_CASES) == set(_STREAM_FLAGS)

    @pytest.mark.parametrize("dest", sorted(FLAG_CASES))
    def test_flag_lands_at_its_config_path(self, dest, capsys):
        from repro.cli import _STREAM_FLAGS

        argv, expected, _ = FLAG_CASES[dest]
        assert main(["stream", QUERY, "--dry-run", *argv]) == 0
        value = json.loads(capsys.readouterr().out)
        for key in _STREAM_FLAGS[dest].split("."):
            value = value[key]
        assert value == expected and type(value) is type(expected)

    @pytest.mark.parametrize(
        "dest", sorted(dest for dest, case in FLAG_CASES.items() if case[2])
    )
    def test_invalid_value_exits_2_naming_the_flag(self, dest, capsys):
        from repro.cli import _STREAM_FLAGS

        assert main(["stream", QUERY, "--dry-run", *FLAG_CASES[dest][2]]) == 2
        captured = capsys.readouterr()
        assert "--" + dest.replace("_", "-") in captured.err
        # the operator typed flags: no config path leaks into the message
        assert _STREAM_FLAGS[dest] not in captured.err
        assert captured.out == ""
