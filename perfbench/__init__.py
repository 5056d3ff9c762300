"""The repository's end-to-end and per-layer benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold-functional --seed 1 \
        --seconds 30 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and the map
from each layer metric to the end-to-end metric it should move.
"""
