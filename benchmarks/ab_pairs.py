"""Alternating parent/change pairs of one ``perfbench`` workload.

The procedure ``perfbench/README.md`` ("Making a claim with this benchmark")
prescribes for a performance claim, scripted::

    python benchmarks/ab_pairs.py PARENT_REV --workload NAME [--pairs 10] [--seed S]

``PARENT_REV`` is checked out into a throw-away ``git worktree``; the change
is the tree this script lives in.  Each pair runs ``perfbench/run.py`` once
on either side, each side from its own checkout into its own ``--out``
directory, and the side that goes first alternates from pair to pair, so a
slow spell of the host (they last minutes) hits both sides alike.  The
script then prints, per end-to-end metric of ``BENCHMARK.json``, how many
pairs the change won on the raw run values -- a pair is adjacent in time, so
its two runs need no host-speed correction -- and ends with
``perfbench/compare.py`` over the two directories, whose exit code it
returns (non-zero on a regression).

Standard library only; nothing is imported from ``perfbench/`` -- either
side is driven through its own command line.  Ten pairs take about ten
minutes.
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_side(root: Path, out: Path, workload: str, seed: int) -> None:
    """One ``perfbench/run.py`` run of the checkout at ``root`` into ``out``."""
    command = [
        sys.executable, str(root / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed), "--out", str(out),
    ]
    subprocess.run(command, cwd=root, check=True, stdout=subprocess.DEVNULL)


def run_values(out: Path, metrics: List[str]) -> Dict[str, List[float]]:
    """Per metric, the raw run-level values of ``out`` in run order."""
    values: Dict[str, List[float]] = {name: [] for name in metrics}
    with open(out / "run_table.csv", "r", encoding="utf-8", newline="") as handle:
        for row in csv.DictReader(handle):
            if row["kind"] == "run":
                for name in metrics:
                    values[name].append(float(row[name]))
    return values


def pair_table(parent_out: Path, change_out: Path) -> List[str]:
    """One line per end-to-end metric: pairs won, medians, parent's quartiles."""
    declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    names = [metric["name"] for metric in declared]
    parent = run_values(parent_out, names)
    change = run_values(change_out, names)
    lines = [
        f"{'metric':<24}{'pairs won':>10}{'parent median [q1, q3]':>38}"
        f"{'change median':>16}{'change/parent':>15}"
    ]
    for metric in declared:
        name = metric["name"]
        pairs = list(zip(parent[name], change[name]))
        higher = metric["better"] == "higher"
        won = sum(1 for a, b in pairs if (b > a if higher else b < a))
        a_median = statistics.median(parent[name])
        b_median = statistics.median(change[name])
        quartiles = (
            statistics.quantiles(parent[name], n=4, method="inclusive")
            if len(pairs) > 1
            else [a_median] * 3
        )
        cell = f"{a_median:.6g} [{quartiles[0]:.6g}, {quartiles[2]:.6g}]"
        lines.append(
            f"{name:<24}{f'{won}/{len(pairs)}':>10}{cell:>38}"
            f"{b_median:>16.6g}{b_median / a_median:>15.3f}"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_rev", metavar="PARENT_REV")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--out", type=Path, default=None,
        help="keep the two --out directories (parent/, change/) under DIR "
        "(default: benchmarks/results/ab_pairs/WORKLOAD-sSEED)",
    )
    parser.add_argument(
        "--parent-dir", type=Path, default=None,
        help="an existing checkout of PARENT_REV to run instead of creating "
        "(and removing) a git worktree",
    )
    args = parser.parse_args(argv)
    out = args.out or (
        REPO_ROOT / "benchmarks" / "results" / "ab_pairs"
        / f"{args.workload}-s{args.seed}"
    )
    out = out.resolve()
    outs = {"parent": out / "parent", "change": out / "change"}
    if any((side / "run_table.csv").exists() for side in outs.values()):
        parser.error(f"{out} already holds runs; pairs must start from empty sides")

    worktree = None
    if args.parent_dir is not None:
        parent_root = args.parent_dir.resolve()
    else:
        worktree = Path(tempfile.mkdtemp(prefix="ab_pairs_parent_"))
        subprocess.run(
            ["git", "worktree", "add", "--detach", str(worktree), args.parent_rev],
            cwd=REPO_ROOT, check=True,
        )
        parent_root = worktree
    roots = {"parent": parent_root, "change": REPO_ROOT}
    try:
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                print(f"pair {pair + 1}/{args.pairs}: {side}", flush=True)
                run_side(roots[side], outs[side], args.workload, args.seed)
    finally:
        if worktree is not None:
            subprocess.run(
                ["git", "worktree", "remove", "--force", str(worktree)],
                cwd=REPO_ROOT, check=False,
            )

    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} alternating pairs "
          f"against {args.parent_rev} (raw run values)")
    print("\n".join(pair_table(outs["parent"], outs["change"])))
    print()
    compare = REPO_ROOT / "perfbench" / "compare.py"
    command = [sys.executable, str(compare), str(outs["parent"]), str(outs["change"])]
    return subprocess.run(command, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
