"""Measurement: generate, run the job in fresh processes, check, aggregate.

One benchmark run does a fixed amount of work -- fixed input size, fixed
repetition count -- so two commits are compared on identical work:

1. generate the input from the seed and write it as JSONL;
2. one discarded warm-up repetition (fills the ``.pyc`` and page caches),
   with the batch oracle computed beside it since its timing is thrown away;
3. :data:`REPETITIONS` measured repetitions, each a fresh job process, each
   checked against the oracle, each preceded by :data:`SETUPS_PER_GAP`
   set-up-only launches (never in one block: medians of back-to-back
   launches drift by a third on a shared host) with a calibration-kernel
   pass before and after every launch;
4. with tracing on, two traced repetitions (timing, then counting) after the
   measured ones, plus a 1-worker baseline of a sharded workload;
5. medians over repetitions; one ``run_table.csv`` row per process launched.

No process the harness starts outlives it, however it ends, and the harness
ends inside the driver's 180 seconds on however slow a host (README,
"Processes and time limits").

Evaluation lives in ``compare.py``; the metric definitions in ``metrics.py``.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from perfbench import metrics as M
from perfbench import oracle
from perfbench.workloads import SCALES, WORKLOADS, Workload, generate, write_jsonl

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = ROOT / "perfbench" / "out"

#: measured repetitions of one run, per scale.  A constant, not a time
#: budget: two commits must do the same work.  The driver's cap on all its
#: runs, and the slow days of a shared host, leave room for ten
#: full-scale repetitions of about 1.25 seconds (README, "Sizes").
REPETITIONS = {"full": 10, "smoke": 2}
#: what one full-scale measured repetition takes on the baseline host;
#: ``BENCHMARK.json``'s ``run_seconds`` is REPETITIONS["full"] times this
NOMINAL_REPETITION_SECONDS = 1.25
SETUPS_PER_GAP = 4
#: untraced repetitions of a traced run: the baseline for trace.overhead_share
TRACED_RUN_REPETITIONS = 3
#: the driver gives a run 180 seconds and then kills the harness, which could
#: not tidy up after that.  So the harness keeps its own clock, counted from
#: its start: no job is launched after LAUNCH_UNTIL_SECONDS (a run takes
#: 22-37; 74 was the slowest seen, at larger sizes), any job still running at
#: STOP_AT_SECONDS is killed, and a run cut short that way reports the
#: repetitions it has, if it has at least MIN_REPORTED_REPETITIONS.
LAUNCH_UNTIL_SECONDS = 120.0
STOP_AT_SECONDS = 160.0
CHILD_TIMEOUT_SECONDS = 60.0
MIN_REPORTED_REPETITIONS = {"full": 5, "smoke": 1}

ID_COLUMNS = ("run_id", "workload", "seed", "scale", "rep", "kind", "status")
VALUE_COLUMNS = (
    "events", "wall_s", "throughput_eps", "cpu_s", "cpu_s_per_mevent",
    "peak_rss_mib", "setup_s", "result_latency_p50_ms",
)  # fmt: skip
CHECK_COLUMNS = ("latency_samples", "attempted", "failed", "failed_ops_share")
HOST_COLUMNS = (
    "cpu_count", "python", "platform", "load1_start", "load1_end", "git_rev",
    "calibration_ms", "host_speed",
)  # fmt: skip
TABLE_COLUMNS = ID_COLUMNS + VALUE_COLUMNS + CHECK_COLUMNS + HOST_COLUMNS


# -- host context ------------------------------------------------------------------


def git_revision() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )  # fmt: skip
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def host_context() -> Dict[str, object]:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "load1_start": os.getloadavg()[0],
        "git_rev": git_revision(),
    }


# -- launching the job process -------------------------------------------------------


def _child_environment(out: Path) -> Dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT), str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # dict and set iteration order, and with it allocation patterns, then
    # repeat from launch to launch
    env["PYTHONHASHSEED"] = "0"
    # every launch is a fresh interpreter: without a bytecode cache each one
    # recompiles the program (import 0.18 s instead of 0.065 s here, +8 % RSS).
    # A cache of the benchmark's own makes set-up read the same whether or
    # not the checkout has ``__pycache__`` folders or the caller's
    # environment forbids writing them; the warm-up repetition fills it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(out / "pycache")
    return env


_PR_SET_PDEATHSIG = 1
_PR_SET_CHILD_SUBREAPER = 36
_libc = ctypes.CDLL(None, use_errno=True)
#: job processes started and not yet waited for
_running: List[subprocess.Popen] = []


def _end_with_parent() -> None:
    # in the child, before exec: SIGTERM when the harness ends, however it
    # ends; the job process turns that into an orderly exit, which also ends
    # its shard workers
    _libc.prctl(_PR_SET_PDEATHSIG, signal.SIGTERM, 0, 0, 0)


def adopt_orphans() -> None:
    """Make this process the parent of its orphaned descendants.

    A job process that is killed leaves its shard workers behind, blocked on
    their inboxes for good; as a subreaper the harness inherits them and can
    wait for them after killing them.
    """
    _libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def descendants(root: int) -> List[int]:
    """Every process below ``root``, read from ``/proc``."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                # "pid (comm) state ppid ...": comm may hold blanks and brackets
                parent = int(handle.read().rpartition(b")")[2].split()[1])
        except (OSError, IndexError, ValueError):
            continue  # ended meanwhile
        children.setdefault(parent, []).append(int(entry))
    found: List[int] = []
    queue = [root]
    while queue:
        below = children.get(queue.pop(), [])
        found.extend(below)
        queue.extend(below)
    return found


def stop_processes(pids: List[int]) -> None:
    """SIGKILL ``pids`` and wait until each has ended."""
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    give_up = time.monotonic() + 10.0
    for pid in pids:
        while time.monotonic() < give_up:
            try:
                os.waitpid(pid, 0)
                break
            except ChildProcessError:
                # not this process's child (yet: an orphan arrives once its
                # parent is gone); whoever owns it reaps it
                if not os.path.exists(f"/proc/{pid}"):
                    break
                time.sleep(0.01)


def stop_everything() -> None:
    """End every process the harness started; on every path out of ``main``."""
    for process in _running:
        process.kill()
    stop_processes(descendants(os.getpid()))
    for process in _running:
        process.wait()
    del _running[:]


def start_job(directory: Path, mode: str, out: Path) -> subprocess.Popen:
    """Spawn ``perfbench.jobproc`` on ``directory/job.json``.

    ``out`` is the run's output directory, which holds the bytecode cache.
    The job stays in the harness's process group and session, so whatever
    signals the group reaches it too.
    """
    stderr = open(directory / "stderr.txt", "w", encoding="utf-8")
    try:
        started = time.clock_gettime(time.CLOCK_MONOTONIC)
        process = subprocess.Popen(
            [
                sys.executable, "-m", "perfbench.jobproc",
                str(directory / "job.json"), str(directory / "run.json"),
                mode, repr(started),
            ],
            cwd=ROOT, env=_child_environment(out), stdout=stderr, stderr=stderr,
            preexec_fn=_end_with_parent,
        )  # fmt: skip
    finally:
        stderr.close()
    _running.append(process)
    return process


def finish_job(
    process: subprocess.Popen, directory: Path, stop_at: Optional[float] = None
) -> Optional[dict]:
    """Wait for the job process; its report, or ``None`` if it must be voided.

    ``stop_at`` is the ``time.monotonic()`` reading past which the job is
    killed even if its own :data:`CHILD_TIMEOUT_SECONDS` have not passed.
    """
    timeout = CHILD_TIMEOUT_SECONDS
    if stop_at is not None:
        timeout = max(0.0, min(timeout, stop_at - time.monotonic()))
    try:
        code = process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        code = None
    if code != 0:
        # take any shard workers down with it, then reap
        workers = descendants(process.pid)
        process.kill()
        process.wait()
        stop_processes(workers)
    _running.remove(process)
    if code != 0:
        return None
    try:
        with open(directory / "run.json", "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def prepare(directory: Path, config: Dict[str, object]) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "job.json", "w", encoding="utf-8") as handle:
        json.dump(config, handle, indent=1)
    return directory


# -- one benchmark run -----------------------------------------------------------------


@dataclass
class Repetition:
    """One launched job process and what became of it."""

    rep: int
    kind: str  # warmup | measured | setup | traced-time | traced-count | single-worker
    status: str = "ok"  # ok | failed (wrong output) | void (no report)
    report: Optional[dict] = None
    values: Dict[str, object] = field(default_factory=dict)
    verdict: Optional[oracle.Verdict] = None


@dataclass
class RunResult:
    run_id: str
    traced: bool
    directory: Path
    host: Dict[str, object]
    #: calibration kernel samples in the order taken (two per set-up launch)
    kernel_seconds: List[float]
    repetitions: List[Repetition]
    #: medians and quartiles as measured (see :meth:`reported`)
    end_to_end: Dict[str, Optional[M.Summary]]
    per_layer: Dict[str, float]
    attempted: int
    failed: int

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0

    def reported(self, metric: M.Metric) -> Optional[float]:
        """The metric's value for the contract: the median at nominal host speed."""
        summary = self.end_to_end.get(metric.name)
        if summary is None:
            return None
        return metric.at_nominal_speed(summary.median, self.host["host_speed"])


def run_benchmark(
    workload: Workload,
    *,
    seed: int,
    scale: str,
    trace: bool,
    repetitions: int,
    out: Path,
    setups_per_gap: int = SETUPS_PER_GAP,
    tamper: Optional[Callable[[Repetition, Path], None]] = None,
    started: Optional[float] = None,
) -> RunResult:
    """Run one workload once; see the module docstring for the phases.

    ``tamper`` is the test hook behind "a corrupted result file fails the
    run": it is called with each finished repetition and its folder before
    the output is checked.  ``started`` is the ``time.monotonic()`` reading
    that :data:`LAUNCH_UNTIL_SECONDS` and :data:`STOP_AT_SECONDS` count from
    (default: now).
    """
    if started is None:
        started = time.monotonic()
    stop_at = started + STOP_AT_SECONDS

    def in_time() -> bool:
        return time.monotonic() - started < LAUNCH_UNTIL_SECONDS

    host = host_context()
    run_id = f"s{seed}-t{int(trace)}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    directory = out / workload.name / run_id
    directory.mkdir(parents=True)

    rows = generate(workload, seed, scale)
    source = directory / "input.jsonl"
    write_jsonl(rows, source)
    watermarks = M.watermark_after(rows, workload.lateness)
    setup_dir = prepare(directory / "setup", workload.job_config(source, directory / "setup"))
    done: List[Repetition] = []
    kernel_seconds: List[float] = []
    reference: Optional[oracle.Reference] = None

    def repetition(kind: str, mode: str, workers: Optional[int] = None) -> Repetition:
        nonlocal reference
        rep = Repetition(rep=sum(r.kind != "setup" for r in done), kind=kind)
        rep_dir = directory / f"rep_{rep.rep:02d}"
        prepare(rep_dir, workload.job_config(source, rep_dir, workers=workers))
        process = start_job(rep_dir, mode, out)
        if reference is None:
            # beside the warm-up, whose timing is discarded anyway
            reference = oracle.reference(workload.queries, rows, workload.lateness)
        rep.report = finish_job(process, rep_dir, stop_at)
        shutil.rmtree(rep_dir / "checkpoints", ignore_errors=True)
        if tamper is not None:
            tamper(rep, rep_dir)
        if rep.report is None:
            rep.status = "void"
            rep.verdict = oracle.Verdict(
                attempted=len(reference.expected), missing=len(reference.expected)
            )
        else:
            rep.values = M.repetition_metrics(rep.report, watermarks)
            rep.verdict = oracle.check(reference, rep_dir / "results.jsonl")
            if rep.verdict.failed:
                rep.status = "failed"
        done.append(rep)
        return rep

    def setups() -> None:
        for _ in range(setups_per_gap):
            kernel_seconds.append(M.calibration_kernel_seconds())
            launch = Repetition(rep=sum(r.kind == "setup" for r in done), kind="setup")
            launch.report = finish_job(start_job(setup_dir, "setup", out), setup_dir, stop_at)
            kernel_seconds.append(M.calibration_kernel_seconds())
            if launch.report is None:
                launch.status = "void"
            else:
                launch.values = {"setup_s": launch.report["setup_s"]}
            done.append(launch)

    repetition("warmup", "run")
    for _ in range(repetitions):
        if not in_time():
            break  # a slow spell of the host: report what there is
        setups()
        repetition("measured", "run")
    timed = counted = single = None
    if trace and in_time():
        timed = repetition("traced-time", "trace-time")
        counted = repetition("traced-count", "trace-count")
        if "shards" in workload.job_config(source, directory) and in_time():
            single = repetition("single-worker", "run", workers=1)
    source.unlink()
    host["load1_end"] = os.getloadavg()[0]
    host["calibration_ms"] = statistics.median(kernel_seconds) * 1000.0
    host["host_speed"] = M.host_speed(kernel_seconds)

    measured = [r for r in done if r.kind == "measured"]
    good = [r for r in measured if r.status != "void"]
    launches = [r for r in done if r.kind == "setup" and r.status == "ok"]
    checked = [r for r in done if r.kind not in ("setup", "warmup")]
    attempted = sum(r.verdict.attempted for r in checked)
    failed = sum(r.verdict.failed for r in checked)
    pooled = [ms for r in good for ms in r.values["latencies_ms"]]
    end_to_end = {
        "throughput_eps": M.summarize([r.values["throughput_eps"] for r in good]),
        "result_latency_p50_ms": M.summarize(pooled),
        "cpu_s_per_mevent": M.summarize([r.values["cpu_s_per_mevent"] for r in good]),
        "peak_rss_mib": M.summarize([r.values["peak_rss_mib"] for r in good]),
        "setup_s": M.summarize([r.values["setup_s"] for r in launches]),
        "failed_ops_share": M.summarize([failed / attempted if attempted else 1.0]),
    }
    per_layer: Dict[str, float] = {}
    if trace and good and launches and all(
        r is not None and r.status != "void" for r in (timed, counted)
    ):
        per_layer = M.layer_metrics(
            setups=[r.report for r in launches],
            untraced=[r.report for r in good],
            untraced_latencies_ms=pooled,
            timed=timed.report,
            counted=counted.report,
            single_worker=single.report if single and single.report else None,
        )
    result = RunResult(
        run_id, trace, directory, host, kernel_seconds, done, end_to_end, per_layer,
        attempted, failed,
    )
    write_outputs(result, workload, seed, scale, out)
    return result


# -- outputs -----------------------------------------------------------------------


def write_outputs(result: RunResult, workload: Workload, seed: int, scale: str, out: Path) -> None:
    """Append the run's rows to ``run_table.csv`` and write ``summary.json``."""
    host = result.host
    shared = {
        "run_id": result.run_id, "workload": workload.name, "seed": seed,
        "scale": scale, **{key: host[key] for key in HOST_COLUMNS},
    }  # fmt: skip
    table = out / "run_table.csv"
    fresh = not table.exists()
    with open(table, "a", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=TABLE_COLUMNS, restval="")
        if fresh:
            writer.writeheader()
        for rep in result.repetitions:
            row = dict(shared, rep=rep.rep, kind=rep.kind, status=rep.status)
            for column in VALUE_COLUMNS:
                if rep.values.get(column) is not None:
                    row[column] = repr(rep.values[column])
            if rep.values.get("latencies_ms") is not None:
                row["latency_samples"] = len(rep.values["latencies_ms"])
            if rep.verdict is not None:
                row.update(
                    attempted=rep.verdict.attempted, failed=rep.verdict.failed,
                    failed_ops_share=repr(rep.verdict.failed_ops_share),
                )  # fmt: skip
            writer.writerow(row)
        # the run-level values compare.py reads: raw medians over the rows
        # above, to be corrected by the host_speed column
        row = dict(
            shared, rep="", kind="run-traced" if result.traced else "run",
            status="ok" if result.correct else "failed",
            attempted=result.attempted, failed=result.failed,
        )  # fmt: skip
        for name, summary in result.end_to_end.items():
            if summary is not None:
                row[name] = repr(summary.median)
        row["latency_samples"] = (
            result.end_to_end["result_latency_p50_ms"].n
            if result.end_to_end["result_latency_p50_ms"]
            else 0
        )
        writer.writerow(row)
    summary = {
        "run_id": result.run_id, "workload": workload.name, "why": workload.why,
        "seed": seed, "scale": scale, "events": workload.events[scale],
        "host": host,
        "end_to_end": {
            m.name: None
            if result.end_to_end[m.name] is None
            else dict(vars(result.end_to_end[m.name]), reported=result.reported(m))
            for m in M.END_TO_END
        },
        "per_layer": result.per_layer,
        "kernel_ms": [seconds * 1000.0 for seconds in result.kernel_seconds],
        "attempted": result.attempted, "failed": result.failed,
        "examples": [
            example
            for rep in result.repetitions
            if rep.verdict is not None
            for example in rep.verdict.examples
        ][:10],
        "claim": None,
    }  # fmt: skip
    with open(result.directory / "summary.json", "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1)


def print_report(result: RunResult, workload: Workload, seed: int, scale: str) -> None:
    host = result.host
    print(f"perfbench {workload.name}  seed={seed} scale={scale} run={result.run_id}")
    print(f"  why: {workload.why}")
    print(
        f"  host: {host['cpu_count']} cpus, Python {host['python']}, {host['platform']}, "
        f"load {host['load1_start']:.2f} -> {host['load1_end']:.2f}, git {host['git_rev']}, "
        f"calibration kernel {host['calibration_ms']:.2f} ms = host speed {host['host_speed']:.3f}"
    )
    kinds = [rep.kind for rep in result.repetitions]
    void = sum(rep.status == "void" for rep in result.repetitions)
    print(
        f"  launched: {kinds.count('measured')} measured repetitions after 1 warm-up, "
        f"{kinds.count('setup')} interleaved set-up launches, "
        f"{sum(kind.startswith('traced') for kind in kinds)} traced; {void} voided"
    )
    print(
        f"  {'end-to-end metric':<24}{'unit':<10}{'at speed 1.0':>14}"
        f"{'raw median':>14}{'raw q1':>12}{'raw q3':>12}{'n':>8}"
    )
    for metric in M.END_TO_END:
        summary = result.end_to_end.get(metric.name)
        if summary is None:
            print(f"  {metric.name:<24}{metric.unit:<10}{'no samples':>14}")
            continue
        print(
            f"  {metric.name:<24}{metric.unit:<10}{result.reported(metric):>14.6g}"
            f"{summary.median:>14.6g}{summary.q1:>12.6g}{summary.q3:>12.6g}{summary.n:>8}"
        )
    if result.per_layer:
        print(f"  {'per-layer metric':<38}{'unit':<10}{'value':>14}")
        for metric in M.PER_LAYER:
            print(f"  {metric.name:<38}{metric.unit:<10}{result.per_layer[metric.name]:>14.6g}")
    print(
        f"  operations: {result.attempted} attempted, {result.failed} failed "
        f"-> {'correct' if result.correct else 'INCORRECT'}"
    )
    for rep in result.repetitions:
        if rep.verdict is not None and rep.verdict.failed:
            for example in rep.verdict.examples:
                print(f"    rep {rep.rep:02d}: {example}")
    print(f"  raw: {result.directory}")


def contract_line(result: RunResult, trace: bool) -> Optional[str]:
    """The driver's JSON line, or ``None`` when a metric has no samples."""
    if trace:
        if not result.per_layer:
            return None
        values = {
            m.name: {"value": result.per_layer[m.name], "unit": m.unit} for m in M.PER_LAYER
        }
    else:
        values = {}
        for metric in M.CONTRACT_END_TO_END:
            value = result.reported(metric)
            if value is None:
                return None
            values[metric.name] = {"value": value, "unit": metric.unit}
    return json.dumps(
        {
            "correct": result.correct,
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": values,
        }
    )


# -- command line --------------------------------------------------------------------


def forget_workload(out: Path, workload: str) -> None:
    """Drop a workload's earlier runs from ``out``: raw folders and table rows."""
    shutil.rmtree(out / workload, ignore_errors=True)
    table = out / "run_table.csv"
    if not table.exists():
        return
    with open(table, "r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        columns = tuple(reader.fieldnames or ())
        kept = [row for row in reader if row["workload"] != workload]
    if columns != TABLE_COLUMNS or not kept:
        table.unlink()  # an earlier layout, or nothing left: start afresh
        return
    with open(table, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=TABLE_COLUMNS)
        writer.writeheader()
        writer.writerows(kept)


def _exit_on_signal(signum, _frame) -> None:
    # as an exception, so that main's ``finally`` stops the job processes
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    """Run one workload once; no process it started outlives it."""
    started = time.monotonic()
    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, _exit_on_signal)
    adopt_orphans()
    try:
        return _main(argv, started)
    finally:
        stop_everything()


def _main(argv: Optional[List[str]], started: float) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description="Run one perfbench workload once."
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="accepted for the driver's sake and ignored: a run is a fixed "
        "%d repetitions of fixed work (about %.1f s each on the baseline host), "
        "so that two commits do the same work"
        % (REPETITIONS["full"], NOMINAL_REPETITION_SECONDS),
    )  # fmt: skip
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=SCALES, default="full")
    parser.add_argument(
        "--out", type=Path, default=None,
        help="keep this run beside earlier ones in DIR (default: perfbench/out, "
        "which keeps only the latest run of each workload)",
    )  # fmt: skip
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)  # fmt: skip
        return 2
    workload = WORKLOADS[args.workload]
    out = args.out
    if out is None:
        out = DEFAULT_OUT
        forget_workload(out, workload.name)
    out.mkdir(parents=True, exist_ok=True)
    repetitions = REPETITIONS[args.scale]
    if args.trace:
        repetitions = min(repetitions, TRACED_RUN_REPETITIONS)
    result = run_benchmark(
        workload, seed=args.seed, scale=args.scale, trace=bool(args.trace),
        repetitions=repetitions, out=out.resolve(), started=started,
    )  # fmt: skip
    print_report(result, workload, args.seed, args.scale)
    measured = sum(r.kind == "measured" and r.status != "void" for r in result.repetitions)
    if measured < min(repetitions, MIN_REPORTED_REPETITIONS[args.scale]):
        print(f"perfbench: only {measured} of {repetitions} repetitions in "
              f"{LAUNCH_UNTIL_SECONDS:.0f} s: too few to report", file=sys.stderr)  # fmt: skip
        return 1
    line = contract_line(result, bool(args.trace))
    if line is None:
        print("perfbench: too many voided or skipped launches to report every metric",
              file=sys.stderr)  # fmt: skip
        return 1
    print(line)
    return 0 if result.correct else 1
