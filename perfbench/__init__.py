"""The repository benchmark: paper-config fits and served streams.

Run one workload with ``python3 perfbench/run.py --workload <name> --seed
<n> --seconds <s> --trace <0|1>`` from the root of a checkout; see
``run.py`` for the workloads and ``BENCHMARK.json`` for the metrics.
"""
