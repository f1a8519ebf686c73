"""Small helpers shared by the benchmark files."""

from __future__ import annotations

import json
import resource
import subprocess
import time
from pathlib import Path
from typing import Iterable, Optional, Tuple

from repro.core.results import GroupResult

#: The persisted perf trajectory: every benchmark run appends one record per
#: instrumented benchmark, so regressions show up as a time series across
#: commits rather than a single number that nobody remembers.
BENCH_RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_streaming.json"

BENCH_SCHEMA_VERSION = 1


def _git_revision() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def append_bench_record(
    bench: str,
    throughput: float,
    p95_latency_s: Optional[float] = None,
    path: Optional[Path] = None,
    **extra,
) -> dict:
    """Append one versioned perf record to ``BENCH_streaming.json``.

    The file holds ``{"version": 1, "records": [...]}``; each record carries
    the benchmark name, throughput (events/second), the p95 per-event latency
    when the benchmark measured one, the process's peak RSS in KiB
    (``ru_maxrss`` -- the whole pytest process, an upper bound on the
    benchmark's own footprint), the git revision, and a wall-clock timestamp.
    An unreadable or foreign file is started over rather than crashing the
    benchmark run.
    """
    target = BENCH_RESULTS_PATH if path is None else Path(path)
    try:
        document = json.loads(target.read_text())
        if (
            not isinstance(document, dict)
            or document.get("version") != BENCH_SCHEMA_VERSION
            or not isinstance(document.get("records"), list)
        ):
            raise ValueError("foreign file")
    except (OSError, ValueError):
        document = {"version": BENCH_SCHEMA_VERSION, "records": []}
    record = {
        "bench": bench,
        "throughput_events_per_s": round(float(throughput), 1),
        "p95_latency_s": p95_latency_s,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "git_rev": _git_revision(),
        "timestamp": time.time(),
    }
    record.update(extra)
    document["records"].append(record)
    target.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return record


def results_signature(results: Iterable[GroupResult]) -> Tuple:
    """Order-independent signature of a result set for equality checks."""
    return tuple(
        sorted(
            (
                result.window_id,
                tuple(sorted(result.group.items())),
                tuple(sorted((k, repr(v)) for k, v in result.values.items())),
            )
            for result in results
        )
    )
