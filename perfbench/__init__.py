"""The repository's benchmark; see README.md.  Run it with ``python3 perfbench/run.py``."""
