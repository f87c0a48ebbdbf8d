"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace 0``
prints every end-to-end metric of one workload; ``--trace 1`` re-runs it with
spans around each layer's public entry points and prints the per-layer
metrics.  ``python3 perfbench/run.py --all`` runs every workload both ways and
writes ``perfbench/results.json``.  ``BENCHMARK.json`` at the repository root
declares every workload, metric name, unit and regression bound.
"""
