"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload resident_writes --seed 1 \\
        --seconds 10 --trace 0

Prints the op-log digest, the workload's traffic properties and every
metric with its unit and sample count, then, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the JSON metrics are the ``end_to_end`` metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its ``per_layer``
metrics, and the traced spans are written to
``.perfbench_out/<workload>-<seed>.spans.jsonl``.  Exits non-zero,
printing no result, when the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny systems, for the benchmark's own self-test",
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program under test at {ROOT}/src/repro", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.bench import run_workload, store_dir
    from perfbench.workloads import FULL, SMOKE, WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"expected one of {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    spans_path = None
    if args.trace:
        out = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out, exist_ok=True)
        spans_path = os.path.join(out, f"{args.workload}-{args.seed}.spans.jsonl")
    workdir = store_dir(ROOT)
    try:
        result = run_workload(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            workdir,
            sizes=SMOKE if args.smoke else FULL,
            spans_path=spans_path,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {result.workload} seed {result.seed} trace {args.trace}")
    for line in result.notes:
        print(line)
    for name, (value, unit, samples) in sorted(result.metrics.items()):
        print(f"metric {name} {value:.6g} {unit} (n={samples})")
    for problem in result.problems:
        print(f"problem {problem}")
    missing = [m["name"] for m in wanted if m["name"] not in result.metrics]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {
        m["name"]: {"value": result.metrics[m["name"]][0], "unit": m["unit"]}
        for m in wanted
    }
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
