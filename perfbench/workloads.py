"""The four closed-loop workloads: seeded input generators and job configs.

Every workload is a pure function of ``(seed, scale)``: it yields the input
events as wire rows (the dictionaries written to the JSONL file, in
*arrival* order) and the ``JobConfig`` dictionary the job process loads.
The program under test sees only the generated file.

Why these four (the README has the long form):

* ``fold_overlap`` -- the executor fold dominates; the workload a fold
  optimisation must move.
* ``ingest_disorder`` -- decode, reorder and sink dominate; the workload a
  fold optimisation must *not* move, and the one an ingest change must.
* ``granularity_mix`` -- the same executor layer used the other way (events
  are stored, not just counted), so a fold change specialised to
  type-grained sliding windows that costs the event-keeping paths shows.
* ``sharded_skew_ckpt`` -- the only one that runs serialize, IPC, ack-merge,
  rebalance and checkpoint code at all.
"""

from __future__ import annotations

import itertools
import json
import random
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List

Row = Dict[str, object]

SCALES = ("full", "smoke")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its input generator and its job."""

    name: str
    why: str
    #: input size per scale; "full" is sized so one repetition takes about
    #: 1.25 s on the baseline host (what the driver's total time cap leaves
    #: room for on a slow day)
    events: Dict[str, int]
    lateness: float
    #: ``(rng, count)`` -> ``(event time, arrival time, wire row)`` triples in
    #: event-time order; the arrival order is derived by :func:`generate`
    rows: Callable[[random.Random, int], Iterator[tuple]]
    queries: tuple
    #: JobConfig sections beyond queries/watermark/late/source/sink
    sections: Callable[[Path], Dict[str, object]] = lambda rep_dir: {}

    def job_config(self, source: Path, rep_dir: Path, workers=None) -> Dict[str, object]:
        """The ``JobConfig`` dictionary of one repetition writing to ``rep_dir``."""
        config: Dict[str, object] = {
            "queries": [{"name": name, "text": text} for name, text in self.queries],
            "watermark": {"kind": "bounded-delay", "lateness": self.lateness},
            "late": {"policy": "drop"},
            "source": {"spec": str(source)},
            "sink": {"spec": str(rep_dir / "results.jsonl")},
        }
        config.update(self.sections(rep_dir))
        if workers is not None:
            config["shards"] = dict(config.get("shards", {}), workers=workers)
        return config


def generate(workload: Workload, seed: int, scale: str) -> List[Row]:
    """The workload's input rows in arrival order (same seed, same rows)."""
    # string seeding hashes with SHA-512, so it is stable across processes
    rng = random.Random(f"{workload.name}:{seed}")
    rows = list(workload.rows(rng, workload.events[scale]))
    # sorted() is stable: equal arrival stamps keep their event-time order
    rows.sort(key=lambda item: item[1])
    return [row for _time, _arrival, row in rows]


def write_jsonl(rows: List[Row], path: Path) -> None:
    """Write the input file the job's ``JsonlFileSource`` reads."""
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, separators=(",", ":")) + "\n")


# -- fold_overlap --------------------------------------------------------------


def _fold_overlap_rows(rng: random.Random, count: int) -> Iterator[tuple]:
    # 100 events per second of event time over 200 groups: about 30 events
    # per (60 s window, group), every event inside 12 open windows
    for index in range(count):
        time = round(index / 100.0, 4)
        row = {
            "type": "S",
            "time": time,
            "g": f"g{rng.randrange(200):03d}",
            "v": round(rng.uniform(10.0, 500.0), 2),
        }
        yield time, time + rng.uniform(0.0, 0.5), row


FOLD_OVERLAP = Workload(
    name="fold_overlap",
    why="type-grained S+ over 12 overlapping windows and 200 groups: the "
    "executor fold dominates, so fold optimisations must show here",
    events={"full": 17_000, "smoke": 8_000},
    lateness=1.0,
    rows=_fold_overlap_rows,
    queries=(
        (
            "trends",
            "RETURN g, COUNT(*), MAX(S.v) PATTERN S+ "
            "SEMANTICS skip-till-any-match GROUP-BY g "
            "WITHIN 60 seconds SLIDE 5 seconds",
        ),
    ),
)


# -- ingest_disorder -----------------------------------------------------------

_VENUES = ("XNAS", "XNYS", "ARCX", "BATS", "EDGX", "IEXG", "XCHI", "XPHL")
_CONDITIONS = ("regular", "odd-lot", "intermarket-sweep", "form-t")


def _ingest_disorder_rows(rng: random.Random, count: int) -> Iterator[tuple]:
    # 1000 ticks per second of event time, delivered 0-4 s late under a 5 s
    # bound (the reorder buffer holds ~5000 events); 1 % arrive 6-10 s late
    # and are dropped.  Half are quotes, which no query routes on; of a
    # trade the query reads only ``venue``.
    for index in range(count):
        time = round(index / 1000.0, 4)
        price = round(rng.uniform(5.0, 900.0), 2)
        row = {
            "type": "Trade" if rng.random() < 0.5 else "Quote",
            "time": time,
            "venue": _VENUES[rng.randrange(8)],
            "symbol": f"SYM{rng.randrange(3000):04d}",
            "price": price,
            "bid": round(price - 0.01, 2),
            "ask": round(price + 0.01, 2),
            "bid_size": rng.randrange(1, 50) * 100,
            "ask_size": rng.randrange(1, 50) * 100,
            "volume": rng.randrange(1, 5000),
            "condition": _CONDITIONS[rng.randrange(4)],
            "trade_id": f"{index:012d}",
            "participant_ts": round(time + 0.000123, 6),
        }
        late = rng.random() < 0.01
        delay = rng.uniform(6.0, 10.0) if late else rng.uniform(0.0, 4.0)
        yield time, time + delay, row


INGEST_DISORDER = Workload(
    name="ingest_disorder",
    why="wide ticks, deep reorder buffer, 1 % dropped late, one cheap tumbling "
    "count: decode/reorder/sink dominate, so fold optimisations must not show",
    events={"full": 81_000, "smoke": 12_000},
    lateness=5.0,
    rows=_ingest_disorder_rows,
    queries=(
        (
            "trades",
            "RETURN venue, COUNT(*) PATTERN Trade T "
            "SEMANTICS skip-till-any-match GROUP-BY venue WITHIN 2 seconds",
        ),
    ),
)


# -- granularity_mix -----------------------------------------------------------


def _granularity_mix_rows(rng: random.Random, count: int) -> Iterator[tuple]:
    # 120 events per second of event time over 40 groups: about 30 events
    # per (10 s window, group), which keeps the event-keeping aggregators'
    # quadratic work bounded while they still store every matched event
    types = ("A",) * 12 + ("B",) * 6 + ("C",) * 1 + ("D",) * 1
    for index in range(count):
        time = round(index / 120.0, 4)
        row = {
            "type": types[rng.randrange(20)],
            "time": time,
            "g": f"k{rng.randrange(40):02d}",
            "v": rng.randrange(1, 100),
        }
        yield time, time + rng.uniform(0.0, 1.0), row


GRANULARITY_MIX = Workload(
    name="granularity_mix",
    why="five queries planned to pattern/type/mixed/event granularity plus a "
    "negation: the event-storing paths a type-grained fold change could hurt",
    events={"full": 16_500, "smoke": 2_400},
    lateness=2.0,
    rows=_granularity_mix_rows,
    queries=(
        (
            "contiguous",
            "RETURN g, COUNT(*), MAX(A.v) PATTERN SEQ(A+, B) "
            "SEMANTICS contiguous GROUP-BY g WITHIN 10 seconds",
        ),
        (
            "any",
            "RETURN g, COUNT(*), MIN(A.v) PATTERN SEQ(A+, B) "
            "SEMANTICS skip-till-any-match GROUP-BY g WITHIN 10 seconds",
        ),
        (
            "any_adjacent",
            "RETURN g, COUNT(*) PATTERN SEQ(A+, B) "
            "SEMANTICS skip-till-any-match WHERE A.v < NEXT(A).v "
            "GROUP-BY g WITHIN 10 seconds",
        ),
        (
            "next_adjacent",
            "RETURN g, COUNT(*), MAX(A.v) PATTERN A+ "
            "SEMANTICS skip-till-next-match WHERE A.v < NEXT(A).v "
            "GROUP-BY g WITHIN 10 seconds",
        ),
        (
            "any_all_adjacent",
            "RETURN g, COUNT(*), MAX(A.v) PATTERN A+ "
            "SEMANTICS skip-till-any-match WHERE A.v < NEXT(A).v "
            "GROUP-BY g WITHIN 10 seconds",
        ),
        (
            "negation",
            "RETURN g, COUNT(*) PATTERN SEQ(A+, NOT C, B) "
            "SEMANTICS skip-till-any-match GROUP-BY g WITHIN 10 seconds",
        ),
    ),
)


# -- sharded_skew_ckpt ---------------------------------------------------------


def _sharded_skew_rows(rng: random.Random, count: int) -> Iterator[tuple]:
    # Zipf(1.0) over 500 keys: the hottest key carries ~15 % of the stream.
    # Key names are fixed (not seeded) and ordered so the 20 hottest share
    # CRC-32 parity, which under the seed routing at the time of writing
    # (crc32 of the key's repr over round-robin slots) starts one worker at
    # ~71 % of the load.  With the 1.3 skew threshold below that is exactly
    # one rebalance cycle migrating one hot slot, on every seed tried; a
    # tighter threshold re-triggers on sampling noise 2-7 times depending
    # on the seed, and the pauses then dominate the seed-to-seed spread.
    # Parity is computed here from zlib, not from the program, so the input
    # stays the same if the routing changes -- sharded.skew_ratio and
    # sharded.rebalance_moves then show the drift.
    names = [f"u{index:03d}" for index in range(500)]
    even = [n for n in names if zlib.crc32(repr((n,)).encode("utf-8")) % 2 == 0]
    hot = even[:20]
    keys = hot + [n for n in names if n not in hot]
    cumulative = list(itertools.accumulate(1.0 / rank for rank in range(1, 501)))
    chosen = rng.choices(keys, cum_weights=cumulative, k=count)
    for index in range(count):
        time = round(index / 200.0, 4)
        row = {
            "type": "A" if rng.random() < 0.7 else "B",
            "time": time,
            "g": chosen[index],
            "v": rng.randrange(1, 1000),
        }
        yield time, time + rng.uniform(0.0, 1.0), row


def _sharded_sections(rep_dir: Path) -> Dict[str, object]:
    return {
        "shards": {
            "workers": 2,
            "rebalance": {
                "enabled": True,
                "skew_threshold": 1.3,
                "min_interval": 2048,
            },
        },
        "checkpoint": {"dir": str(rep_dir / "checkpoints"), "interval": 8192},
    }


SHARDED_SKEW_CKPT = Workload(
    name="sharded_skew_ckpt",
    why="2 workers, Zipf keys, rebalancing, checkpoints every 8192 events: the "
    "only workload running serialize/IPC/ack-merge/checkpoint code",
    events={"full": 37_500, "smoke": 9_000},
    lateness=2.0,
    rows=_sharded_skew_rows,
    queries=(
        (
            "pairs",
            "RETURN g, COUNT(*), MAX(A.v) PATTERN SEQ(A+, B) "
            "SEMANTICS skip-till-any-match GROUP-BY g "
            "WITHIN 30 seconds SLIDE 10 seconds",
        ),
    ),
    sections=_sharded_sections,
)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (FOLD_OVERLAP, INGEST_DISORDER, GRANULARITY_MIX, SHARDED_SKEW_CKPT)
}
