"""Entry point: ``python3 perfbench/run.py --workload NAME [--seed S] ...``.

Kept to path set-up so the package imports work when run as a script from
the repository root; the benchmark itself is ``perfbench.harness``.
"""

import sys
from pathlib import Path


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root), str(root / "src")]
    from perfbench.harness import main as harness_main

    return harness_main()


if __name__ == "__main__":
    sys.exit(main())
