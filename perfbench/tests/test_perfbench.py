"""Smoke-scale tests of the benchmark itself (collected by the tier-1 run)."""

import csv
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import repro  # noqa: E402
from perfbench import compare, harness, oracle, tracing  # noqa: E402
from perfbench import metrics as M  # noqa: E402
from perfbench.workloads import WORKLOADS, generate, write_jsonl  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- inputs ------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(name, tmp_path):
    workload = WORKLOADS[name]
    for index, seed in enumerate((7, 7, 8)):
        write_jsonl(generate(workload, seed, "smoke"), tmp_path / f"{index}.jsonl")
    first, again, other = ((tmp_path / f"{i}.jsonl").read_bytes() for i in range(3))
    assert first == again
    assert first != other
    assert first.count(b"\n") == workload.events["smoke"]


# -- the oracle ----------------------------------------------------------------------

QUERIES = (
    (
        "pairs",
        "RETURN g, COUNT(*), MAX(A.v) PATTERN SEQ(A+, B) "
        "SEMANTICS skip-till-any-match GROUP-BY g WITHIN 10 seconds",
    ),
)


def _rows():
    # in order except one straggler, which a 1 s bound must reject
    rows = [
        {"type": "AB"[i % 3 == 2], "time": i * 0.25, "g": f"k{i % 2}", "v": i % 7}
        for i in range(200)
    ]
    rows.insert(120, {"type": "A", "time": 3.0, "g": "k0", "v": 99})
    return rows


def _correct_lines(reference):
    lines = []
    for (name, _window, _group), value in sorted(reference.expected.items()):
        row = dict(json.loads(value), query=name, watermark=1.0)
        lines.append(json.dumps(row, sort_keys=True))
    return lines


def test_oracle_drops_what_the_watermark_drops():
    rows = _rows()
    accepted = oracle.accepted_events(rows, lateness=1.0)
    assert len(accepted) == len(rows) - 1
    assert all(event.attributes["v"] != 99 for event in accepted)
    # the streaming runtime under the same bound agrees with the batch oracle
    reference = oracle.reference(QUERIES, rows, lateness=1.0)
    config = repro.JobConfig(
        queries=(repro.QueryConfig(text=QUERIES[0][1], name="pairs"),),
        watermark=repro.WatermarkConfig(lateness=1.0),
        late=repro.LatenessConfig(policy="drop"),
    )
    events = [
        repro.Event(r["type"], r["time"], {"g": r["g"], "v": r["v"]}, sequence=i)
        for i, r in enumerate(rows)
    ]
    records = repro.job(config, events=events).results()
    assert len(records) == len(reference.expected) > 0


def test_oracle_flags_missing_duplicated_altered_and_extra(tmp_path):
    reference = oracle.reference(QUERIES, _rows(), lateness=1.0)
    lines = _correct_lines(reference)
    path = tmp_path / "results.jsonl"

    def verdict(changed):
        path.write_text("\n".join(changed) + "\n", encoding="utf-8")
        return oracle.check(reference, path)

    assert verdict(lines).failed == 0
    assert verdict(lines).attempted == len(lines)

    missing = verdict(lines[1:])
    assert (missing.missing, missing.failed) == (1, 1)

    duplicated = verdict(lines + lines[:1])
    assert (duplicated.duplicated, duplicated.failed) == (1, 1)

    altered_row = json.loads(lines[0])
    altered_row["COUNT(*)"] += 1
    altered = verdict([json.dumps(altered_row)] + lines[1:])
    assert (altered.different, altered.failed) == (1, 1)

    extra_row = dict(json.loads(lines[0]), window_id=10_000)
    extra = verdict(lines + [json.dumps(extra_row), "not json"])
    assert (extra.extra, extra.failed) == (2, 2)

    gone = oracle.check(reference, tmp_path / "absent.jsonl")
    assert gone.failed == gone.attempted
    assert 0 < missing.failed_ops_share < gone.failed_ops_share == 1.0


# -- BENCHMARK.json and the metric tables ----------------------------------------------


def test_benchmark_json_matches_the_metric_tables():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }  # fmt: skip
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert BENCHMARK["paths"] == ["perfbench"]
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCHMARK["workloads"])
    assert BENCHMARK["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in M.CONTRACT_END_TO_END
    ]
    assert BENCHMARK["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in M.PER_LAYER
    ]
    # the one end-to-end metric the driver cannot bound rides on failed/attempted
    assert [m.name for m in M.END_TO_END if m not in M.CONTRACT_END_TO_END] == [
        "failed_ops_share"
    ]
    setup = next(m for m in M.CONTRACT_END_TO_END if m.name == "setup_s")
    assert setup.bound == max(m.bound for m in M.CONTRACT_END_TO_END) <= 0.25
    names = [m.name for m in M.END_TO_END + M.PER_LAYER]
    assert len(names) == len(set(names)) and len(M.PER_LAYER) <= 128
    assert harness.REPETITIONS["full"] >= 10
    assert BENCHMARK["run_seconds"] == round(
        harness.REPETITIONS["full"] * harness.NOMINAL_REPETITION_SECONDS
    )


def test_every_metric_and_column_is_glossed():
    glossary = (ROOT / "perfbench" / "COLUMNS.md").read_text(encoding="utf-8")
    for name in [m.name for m in M.END_TO_END + M.PER_LAYER] + list(harness.TABLE_COLUMNS):
        assert f"`{name}`" in glossary, name


# -- a whole run, traced, and a corrupted one --------------------------------------------


def test_traced_sharded_run_reports_every_metric(tmp_path):
    workload = WORKLOADS["sharded_skew_ckpt"]
    result = harness.run_benchmark(
        workload, seed=3, scale="smoke", trace=True, repetitions=2,
        out=tmp_path, setups_per_gap=1,
    )  # fmt: skip
    assert result.correct and result.failed == 0 < result.attempted
    kinds = [rep.kind for rep in result.repetitions]
    assert kinds.count("measured") == 2 and kinds.count("setup") == 2
    assert kinds[-3:] == ["traced-time", "traced-count", "single-worker"]

    line = json.loads(harness.contract_line(result, trace=False))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(entry["value"] > 0 for entry in line["metrics"].values())
    traced = json.loads(harness.contract_line(result, trace=True))
    assert set(traced["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}

    layer = result.per_layer
    shares = [layer[f"trace.share.{name}"] for name in tracing.LAYERS]
    assert sum(shares) == pytest.approx(1.0, abs=1e-6)
    assert layer["trace.share.sharded"] > 0 and layer["trace.share.checkpoint"] > 0
    assert layer["trace.share.executor"] == 0  # the fold runs in the workers
    assert layer["checkpoint.saves"] == workload.events["smoke"] // 8192
    assert layer["sharded.shipments"] > 0 and layer["sharded.speedup_vs_single"] > 0
    assert layer["ingest.events_in"] == workload.events["smoke"]

    with open(tmp_path / "run_table.csv", newline="", encoding="utf-8") as handle:
        table = list(csv.DictReader(handle))
    assert tuple(table[0]) == harness.TABLE_COLUMNS
    assert len(table) == len(result.repetitions) + 1
    assert table[-1]["kind"] == "run-traced" and table[-1]["cpu_count"]
    rep_dir = result.directory / "rep_03"
    assert (rep_dir / "trace.jsonl").stat().st_size > 0
    assert {"run.json", "job.json", "results.jsonl"} <= {p.name for p in rep_dir.iterdir()}
    summary = json.loads((result.directory / "summary.json").read_text(encoding="utf-8"))
    assert list(summary)[-1] == "claim" and summary["claim"] is None
    assert not (result.directory / "input.jsonl").exists()


def test_corrupted_result_file_fails_the_run(tmp_path):
    def tamper(rep, rep_dir):
        if rep.kind == "measured":
            path = rep_dir / "results.jsonl"
            lines = path.read_text(encoding="utf-8").splitlines()
            path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")

    result = harness.run_benchmark(
        WORKLOADS["ingest_disorder"], seed=1, scale="smoke", trace=False,
        repetitions=1, out=tmp_path, setups_per_gap=1, tamper=tamper,
    )  # fmt: skip
    assert not result.correct and result.failed == 1
    assert [rep.status for rep in result.repetitions if rep.kind == "measured"] == ["failed"]
    # the timings are still reported
    assert json.loads(harness.contract_line(result, trace=False))["correct"] is False
    assert result.end_to_end["throughput_eps"].n == 1


def test_exits_without_a_result_where_there_is_no_program(tmp_path):
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )  # fmt: skip
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fold_overlap",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def _job_processes(out):
    """Pids of the job processes (and forked shard workers) writing under ``out``."""
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                cmdline = Path(f"/proc/{entry}/cmdline").read_bytes()
            except OSError:
                continue
            if b"perfbench.jobproc" in cmdline and str(out).encode() in cmdline:
                found.append(int(entry))
    return found


def _wait_for(condition, seconds):
    give_up = time.monotonic() + seconds
    while not condition() and time.monotonic() < give_up:
        time.sleep(0.02)
    return condition()


@pytest.mark.parametrize("how", [signal.SIGTERM, signal.SIGKILL])
def test_no_job_process_outlives_a_killed_harness(how, tmp_path):
    # the sharded workload: the job process has two workers that wait on
    # their inboxes for good unless the job ends them on its way out
    harness_process = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         "sharded_skew_ckpt", "--scale", "smoke", "--out", str(tmp_path)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )  # fmt: skip
    try:
        assert _wait_for(lambda: len(_job_processes(tmp_path)) == 3, 30)
    finally:
        harness_process.send_signal(how)
        harness_process.wait()
    assert _wait_for(lambda: not _job_processes(tmp_path), 10), _job_processes(tmp_path)


def test_a_killed_job_is_voided_and_its_workers_are_stopped(tmp_path):
    sleeper = subprocess.Popen(
        [sys.executable, "-c",
         "import subprocess, sys, time;"
         "child = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)']);"
         "print(child.pid, flush=True); time.sleep(60)"],
        stdout=subprocess.PIPE, text=True,
    )  # fmt: skip
    grandchild = int(sleeper.stdout.readline())
    assert harness.descendants(sleeper.pid) == [grandchild]
    harness._running.append(sleeper)
    started = time.monotonic()
    assert harness.finish_job(sleeper, tmp_path, stop_at=started + 0.2) is None
    sleeper.stdout.close()
    assert time.monotonic() - started < 5 and sleeper.returncode == -signal.SIGKILL
    assert harness._running == []
    assert _wait_for(lambda: not os.path.exists(f"/proc/{grandchild}"), 5)


# -- the tracer ------------------------------------------------------------------------


def _wrapped_attributes():
    import importlib

    owners = []
    for module_name, class_name, attribute, *_ in tracing.ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        owners.append((getattr(owner, class_name) if class_name else owner, attribute))
    owners += [(entry[0], entry[1]) for entry in tracing._aggregator_entry_points()]
    from repro.core.aggregate_state import TrendAccumulator

    return owners + [(TrendAccumulator, "__init__")]


@pytest.mark.parametrize("mode", ["time", "count"])
def test_tracer_self_times_sum_to_wall_and_uninstall_restores(mode, tmp_path):
    workload = WORKLOADS["granularity_mix"]
    source = tmp_path / "input.jsonl"
    write_jsonl(generate(workload, 5, "smoke"), source)
    config = repro.JobConfig.from_dict(workload.job_config(source, tmp_path))
    before = {(owner, name): owner.__dict__[name] for owner, name in _wrapped_attributes()}

    tracer = tracing.Tracer(mode).install()
    try:
        assert all(owner.__dict__[name] is not original
                   for (owner, name), original in before.items()
                   if mode == "count" or name != "__init__")  # fmt: skip
        job = repro.job(config)
        tracer.begin()
        job.results()
        tracer.end()
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[name] is original for (owner, name), original in before.items())
    tracer.uninstall()  # idempotent

    summary = tracer.summary()
    events = workload.events["smoke"]
    if mode == "time":
        spans = summary["spans"]
        assert sum(span["self_s"] for span in spans.values()) == pytest.approx(
            summary["wall_s"], rel=1e-9
        )
        assert all(span["self_s"] >= 0 for span in spans.values())
        assert spans["ingest.push"]["calls"] == events
        assert spans["sources.pull"]["calls"] == summary["slices"] == -(-events // 256) + 1
        assert sum(tracing.layer_self_seconds(spans).values()) == pytest.approx(
            summary["wall_s"], rel=1e-9
        )
        tracer.write(tmp_path / "trace.jsonl")
        lines = (tmp_path / "trace.jsonl").read_text(encoding="utf-8").splitlines()
        rows = [json.loads(line) for line in lines]
        assert rows[-1]["name"] == tracing.ROOT and rows[-1]["parent"] is None
        assert {"slice", "name", "parent", "start", "end", "calls", "busy_s", "self_s"} == set(rows[0])
    else:
        counts = summary["counts"]
        assert counts["ingest.push"] == [events, events]
        assert counts["runtime.process_batch"][1] == events
        assert counts["aggregators.process_run"][0] > 0 < summary["state_allocs"]


# -- compare.py ------------------------------------------------------------------------


def _table(directory: Path, runs, host_speed=1.0):
    """``runs``: list of (workload, raw throughput, failed) -> a run_table.csv."""
    directory.mkdir()
    with open(directory / "run_table.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=harness.TABLE_COLUMNS, restval="")
        writer.writeheader()
        for index, (workload, throughput, failed) in enumerate(runs):
            writer.writerow(
                dict(
                    run_id=f"r{index}", workload=workload, seed=1, scale="full", kind="run",
                    throughput_eps=throughput,
                    result_latency_p50_ms=(10.0 + index * 0.01) / host_speed,
                    cpu_s_per_mevent=50.0 / host_speed, peak_rss_mib=40.0,
                    setup_s=0.1 / host_speed, attempted=100, failed=failed,
                    host_speed=host_speed,
                )  # fmt: skip
            )
            # repetition rows are not samples
            writer.writerow(dict(run_id=f"r{index}", workload=workload, scale="full",
                                 kind="measured", throughput_eps=1.0, attempted=100, failed=0))  # fmt: skip
    return directory


def _verdicts(lines):
    return {tuple(line.split()[:2]): line.split()[-1] for line in lines[1:]}


def test_compare_verdicts(tmp_path):
    steady = [("w", value, 0) for value in (1000.0, 1010.0, 990.0, 1005.0)]
    a = _table(tmp_path / "a", steady + [("noisy", v, 0) for v in (1000.0, 1300.0, 700.0, 1100.0)])

    same = _table(tmp_path / "same", steady + [("noisy", v, 0) for v in (1000.0, 1300.0, 700.0, 1100.0)])
    lines, regressed = compare.compare(a, same)
    verdicts = _verdicts(lines)
    assert not regressed
    assert verdicts[("w", "throughput_eps")] == "within"
    assert verdicts[("noisy", "throughput_eps")] == "unresolved"
    assert "unchanged" not in "\n".join(lines)

    bound = next(m.bound for m in M.END_TO_END if m.name == "throughput_eps")
    slower = _table(
        tmp_path / "slower", [("w", v * (1 - bound - 0.02), 0) for _, v, _ in steady]
    )
    lines, regressed = compare.compare(a, slower)
    assert regressed and _verdicts(lines)[("w", "throughput_eps")] == "REGRESSION"
    assert _verdicts(lines)[("w", "setup_s")] == "within"
    assert compare.main([str(a), str(slower)]) == 1

    faster = _table(
        tmp_path / "faster", [("w", v * (1 + bound + 0.02), 0) for _, v, _ in steady]
    )
    assert _verdicts(compare.compare(a, faster)[0])[("w", "throughput_eps")] == "better"

    wrong = _table(tmp_path / "wrong", [("w", v, int(v == 990.0)) for _, v, _ in steady])
    lines, regressed = compare.compare(a, wrong)
    assert regressed and _verdicts(lines)[("w", "failed_ops_share")] == "REGRESSION"

    # a host running at 0.7 of nominal speed measures 0.7 of the throughput
    # and 1/0.7 of every duration; at speed 1.0 that is the same program
    slow_host = _table(
        tmp_path / "slow_host", [("w", v * 0.7, 0) for _, v, _ in steady], host_speed=0.7
    )
    lines, regressed = compare.compare(a, slow_host)
    assert not regressed
    assert {_verdicts(lines)[("w", m.name)] for m in M.END_TO_END} == {"within"}

    single = _table(tmp_path / "single", steady[:1])
    assert _verdicts(compare.compare(a, single)[0])[("w", "throughput_eps")] == "unresolved"
    assert compare.main([str(a), str(same)]) == 0


def test_default_out_forgets_a_workloads_earlier_runs(tmp_path):
    out = _table(tmp_path / "out", [("w", 1000.0, 0), ("other", 900.0, 0)])
    (out / "w" / "old-run").mkdir(parents=True)
    harness.forget_workload(out, "w")
    assert not (out / "w").exists()
    samples, operations = compare.read_runs(out / "run_table.csv")
    assert set(operations) == {"other"} and samples[("other", "throughput_eps")] == [900.0]
    harness.forget_workload(out, "other")
    assert not (out / "run_table.csv").exists()
