"""The repository's benchmark: workloads, independent checks and layer tracing.

Run it with `python3 perfbench/run.py`; see README.md in this directory.
"""
