"""The job process: one fresh interpreter per repetition or set-up launch.

Run as ``python -m perfbench.jobproc JOB.json OUT.json MODE START`` where
``MODE`` is ``run``, ``setup``, ``trace-time`` or ``trace-count`` and
``START`` is the parent's ``CLOCK_MONOTONIC`` reading just before it spawned
this process.  The job goes through the public path -- ``JobConfig.from_dict``
then ``repro.job(config, events=..., sink=...)`` -- with the configured
``JsonlFileSource`` and ``JsonlFileSink`` wrapped by the two stamping
classes below, which is all the harness needs for the end-to-end metrics:

* set-up ends, and the measured section starts, when the runtime is built,
  the workers are spawned and source and sink are open (``ready``);
* every source pull is stamped when it delivers its slice, every record
  when the sink's ``emit`` returns;
* the measured section ends when the sink is closed after the final flush.

``setup`` mode stops at ``ready`` and tears down.  Raw stamps go to
``OUT.json``; the harness derives the metrics (``perfbench.metrics``).
"""

from __future__ import annotations

import json
import os
import resource
import signal
import sys
import time


def _monotonic() -> float:
    # comparable across processes, unlike perf_counter's unspecified epoch
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _exit_on_sigterm(signum, _frame) -> None:
    # the harness asks for SIGTERM should it die (PR_SET_PDEATHSIG): leave
    # through the interpreter's exit, where multiprocessing ends the shard
    # workers, which would otherwise wait on their inboxes for good
    raise SystemExit(128 + signum)


def main(argv) -> int:
    job_path, out_path, mode, start = argv[0], argv[1], argv[2], float(argv[3])
    entered = _monotonic()
    signal.signal(signal.SIGTERM, _exit_on_sigterm)

    import repro
    from repro.streaming.sources import EventSource, Sink

    imported = _monotonic()

    # defined here, not at module level, because their base classes come
    # from the import that was just timed
    class StampedSource(EventSource):
        """Delegates to the configured source, stamping each delivered slice."""

        def __init__(self, inner):
            self.inner = inner
            self.replayable = inner.replayable
            #: (perf_counter at delivery, events delivered so far)
            self.pulls = []
            self.before_pull = None

        def batches(self, size):
            pulls = self.pulls
            perf_counter = time.perf_counter
            delivered = 0
            iterator = iter(self.inner.batches(size))
            while True:
                if self.before_pull is not None:
                    self.before_pull()
                batch = next(iterator, None)
                if batch is None:
                    return
                delivered += len(batch)
                pulls.append((perf_counter(), delivered))
                yield batch

        def events(self):
            for batch in self.batches(1):
                yield from batch

        def close(self):
            self.inner.close()

    class StampedSink(Sink):
        """Delegates to the configured sink, stamping each accepted record."""

        def __init__(self, inner):
            self.inner = inner
            self.stamps = []

        def emit(self, record):
            self.inner.emit(record)
            self.stamps.append(time.perf_counter())

        def ready(self):
            return self.inner.ready()

        def close(self):
            self.inner.close()

    tracer = None
    if mode.startswith("trace-"):
        from perfbench.tracing import Tracer

        tracer = Tracer(mode[len("trace-"):]).install()

    with open(job_path, "r", encoding="utf-8") as handle:
        config = repro.JobConfig.from_dict(json.load(handle))
    source = StampedSource(config.source.build())
    sink = StampedSink(config.sink.build())
    job = repro.job(config, events=source, sink=sink).start()
    built = _monotonic()
    runtime = job.runtime
    if hasattr(runtime, "rebalance"):
        # a sharded runtime spawns its workers lazily; an empty forced
        # rebalance is the public no-op that starts them, so the spawn
        # lands in set-up and not in the first slice
        runtime.rebalance([])
    ready = _monotonic()

    report = {
        "mode": mode,
        "pid": os.getpid(),
        "setup_s": ready - start,
        "launch_s": entered - start,
        "import_s": imported - entered,
        "build_s": built - imported,
        "worker_spawn_s": ready - built,
    }
    if mode == "setup":
        job.stop()
        sink.close()
        _write(out_path, report)
        return 0

    if tracer is not None and tracer.mode == "count":
        source.before_pull = lambda: tracer.sample(runtime)
    cpu_before = _cpu_seconds()
    began = time.perf_counter()
    if tracer is not None:
        tracer.begin()
    records = job.results()
    sink.close()
    if tracer is not None:
        tracer.end()
    ended = time.perf_counter()
    # results() stopped the job: shard workers are joined, so the children
    # fields now hold their whole lifetime
    cpu_after = _cpu_seconds()
    report.update(
        {
            "events": source.pulls[-1][1] if source.pulls else 0,
            "wall_s": ended - began,
            "cpu_self_s": cpu_after[0] - cpu_before[0],
            "cpu_children_s": cpu_after[1] - cpu_before[1],
            "rss_self_kib": _high_water_rss_kib(),
            "rss_largest_child_kib": resource.getrusage(
                resource.RUSAGE_CHILDREN
            ).ru_maxrss,
            "began": began,
            "pulls": source.pulls,
            "record_stamps": sink.stamps,
            # inf (the final flush) is not JSON; None marks it
            "record_watermarks": [
                None if record.is_final_flush else record.watermark
                for record in records
            ],
            "runtime_metrics": runtime.metrics.snapshot(),
            "backpressure_s": runtime.metrics.backpressure_seconds,
        }
    )
    if tracer is not None:
        tracer.uninstall()
        report["trace"] = tracer.summary()
        report["registry"] = _registry_values(runtime.registry_snapshot())
        shard_stats = getattr(runtime, "shard_stats", None)
        if shard_stats is not None:
            report["shards"] = [stats.as_dict() for stats in shard_stats]
            report["shard_report"] = runtime.shard_report()
        if tracer.mode == "time":
            tracer.write(os.path.join(os.path.dirname(out_path), "trace.jsonl"))
    _write(out_path, report)
    return 0


def _cpu_seconds():
    """User+system CPU of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, children.ru_utime + children.ru_stime


def _high_water_rss_kib() -> int:
    """``VmHWM`` of this process.

    Not ``ru_maxrss``: that counter survives ``exec``, so it would report
    the harness's own footprint (which holds the whole input) whenever that
    is larger than the job's.  Workers are forked, not exec'd, so for them
    ``RUSAGE_CHILDREN`` is right -- and the only view left once they exit.
    """
    with open("/proc/self/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/status has no VmHWM line")


def _registry_values(snapshot):
    """The checkpoint byte counters out of ``registry_snapshot()``."""
    from repro import snapshot_value

    return {
        f"checkpoint_bytes_{kind}": snapshot_value(
            snapshot, "cogra_checkpoint_bytes_total", (kind,)
        )
        or 0
        for kind in ("base", "delta")
    }


def _write(path, report) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
