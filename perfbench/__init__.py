"""The simulator's benchmark: workloads, checks, span tracing and metrics.

Run it with ``python3 perfbench/run.py``; ``README.md`` in this
directory documents the workloads, the metrics and the layer map.
"""
