"""Evaluation: compare two sets of runs, A (parent) against B (change).

``python3 perfbench/compare.py A/ B/`` reads the ``run_table.csv`` of two
``--out`` directories.  A sample is one run's value of a metric (its median
over repetitions: the ``kind == "run"`` rows, which leaves out the short
traced runs); each side is summarised by the median and quartiles of its
runs.  One row per (workload, end-to-end
metric):

``REGRESSION``
    B's median is worse than A's by more than the metric's bound.
``unresolved``
    either side's inter-quartile spread is wider than the bound (or a side
    has fewer than two runs, so no spread is known).  Never "unchanged":
    the runs cannot tell.
``within``
    B's median is inside the bound and both spreads are tighter than it.
``better``
    as ``within``, and B's median improved by more than the bound.  This is
    not a claim: a claim needs the paired runs the README describes.

``failed_ops_share`` is absolute: any rise is a regression.  The exit code
is non-zero on a regression.  Run on two sets of the same commit, this is
the A/A check.
"""

from __future__ import annotations

import csv
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

if __package__ in (None, ""):  # run as a script: make the package importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.metrics import END_TO_END, Metric, Summary, summarize  # noqa: E402

Samples = Dict[Tuple[str, str], List[float]]


def read_runs(table: Path) -> Tuple[Samples, Dict[str, Tuple[int, int]]]:
    """Per (workload, metric) run values, and per workload (failed, attempted)."""
    samples: Samples = {}
    operations: Dict[str, Tuple[int, int]] = {}
    with open(table, "r", encoding="utf-8", newline="") as handle:
        for row in csv.DictReader(handle):
            if row["kind"] != "run":
                continue
            workload = row["workload"]
            if row["scale"] != "full":
                workload += "@" + row["scale"]
            failed, attempted = operations.get(workload, (0, 0))
            operations[workload] = (
                failed + int(row["failed"]),
                attempted + int(row["attempted"]),
            )
            for metric in END_TO_END:
                if metric.bound and row.get(metric.name):
                    # the table holds raw medians; the metric is the value
                    # at nominal host speed, as run.py reports it
                    samples.setdefault((workload, metric.name), []).append(
                        metric.at_nominal_speed(
                            float(row[metric.name]), float(row["host_speed"])
                        )
                    )
    return samples, operations


def spread(summary: Summary) -> Optional[float]:
    """Inter-quartile range as a share of the median; None below two runs."""
    if summary.n < 2 or summary.median == 0:
        return None
    return (summary.q3 - summary.q1) / abs(summary.median)


def verdict(metric: Metric, a: Summary, b: Summary) -> Tuple[str, float]:
    """``(verdict, relative change of the median, positive = worse)``."""
    change = (b.median - a.median) / a.median
    worse = -change if metric.better == "higher" else change
    if worse > metric.bound:
        return "REGRESSION", worse
    spreads = (spread(a), spread(b))
    if any(s is None or s > metric.bound for s in spreads):
        return "unresolved", worse
    return ("better" if worse < -metric.bound else "within"), worse


def _failed_share(operations: Tuple[int, int]) -> float:
    failed, attempted = operations
    return failed / attempted if attempted else 1.0


def compare(a_dir: Path, b_dir: Path) -> Tuple[List[str], bool]:
    """The report lines and whether any row regressed."""
    a_samples, a_ops = read_runs(a_dir / "run_table.csv")
    b_samples, b_ops = read_runs(b_dir / "run_table.csv")
    lines = [
        f"{'workload':<20}{'metric':<24}{'A median [q1, q3] n':<40}"
        f"{'B median [q1, q3] n':<40}{'worse by':>10}{'bound':>8}  verdict"
    ]
    regressed = False
    for workload in sorted(set(a_ops) | set(b_ops)):
        for metric in END_TO_END:
            label = f"{workload:<20}{metric.name:<24}"
            a = summarize(a_samples.get((workload, metric.name), []))
            b = summarize(b_samples.get((workload, metric.name), []))
            if workload not in a_ops or workload not in b_ops:
                lines.append(f"{label}no runs on one side: unresolved")
            elif metric.bound == 0.0:
                # absolute, over all runs of a side: failed / attempted
                a_share = _failed_share(a_ops[workload])
                b_share = _failed_share(b_ops[workload])
                word = "REGRESSION" if b_share > a_share else "within"
                lines.append(
                    f"{label}{a_share:<40.6g}{b_share:<40.6g}"
                    f"{b_share - a_share:>+10.6f}{'0':>8}  {word}"
                )
                regressed = regressed or word == "REGRESSION"
            elif a is None or b is None:
                lines.append(f"{label}no value on one side (voided runs): unresolved")
            else:
                word, worse = verdict(metric, a, b)
                lines.append(
                    f"{label}{_cell(a):<40}{_cell(b):<40}"
                    f"{worse:>+10.2%}{metric.bound:>8.0%}  {word}"
                )
                regressed = regressed or word == "REGRESSION"
    return lines, regressed


def _cell(summary: Summary) -> str:
    return f"{summary.median:.6g} [{summary.q1:.6g}, {summary.q3:.6g}] {summary.n}"


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 perfbench/compare.py A_OUT_DIR B_OUT_DIR", file=sys.stderr)
        return 2
    lines, regressed = compare(Path(argv[0]), Path(argv[1]))
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
