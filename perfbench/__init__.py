"""Seeded end-to-end benchmark of the CDSS engine.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` builds one chain CDSS, drives a workload's traffic for
the given time, checks every answer, and prints its metrics; the last
stdout line is one JSON object.  ``BENCHMARK.json`` at the repository
root names the workloads and metrics; ``rationale.json`` beside this
file records each workload's shape and which end-to-end metric each
per-layer metric should move.
"""
