"""The repository's benchmark: four workloads, end-to-end metrics and a
per-layer ledger, all measured from outside the simulator through its
public API.  Run it with ``python3 perfbench/run.py``; see README.md.
"""
