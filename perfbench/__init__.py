"""The repository's benchmark: ``python3 perfbench/run.py --workload <name>``.

See ``perfbench/run.py`` for the command line and ``BENCHMARK.json``
for the workloads and metrics it reports.
"""
