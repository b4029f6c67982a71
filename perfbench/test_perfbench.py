"""Self-test of the benchmark, at smoke size.

Every workload must print every metric ``BENCHMARK.json`` names, with
its unit; a deliberately corrupted answer must fail the run; the op
log must follow the seed; and the benchmark must refuse to run where
the program under test is missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench.bench import run_workload
from perfbench.workloads import SMOKE, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")


def load(*parts: str) -> dict:
    with open(os.path.join(ROOT, *parts), encoding="utf-8") as handle:
        return json.load(handle)


SPEC = load("BENCHMARK.json")
RATIONALE = load("perfbench", "rationale.json")


def bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    run = bench(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--smoke",
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, run.stdout
    assert result["failed"] == 0, run.stdout
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    units = {name: value["unit"] for name, value in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in wanted}
    printed = {
        line.split()[1]: line.split()[3]
        for line in lines
        if line.startswith("metric ")
    }
    if not trace:
        # every end-to-end metric of the workload is printed, gated or not
        wanted = [
            {"name": name, "unit": spec["unit"]}
            for name, spec in RATIONALE["end_to_end"].items()
            if workload in spec["workloads"]
        ]
    for metric in wanted:
        assert printed.get(metric["name"]) == metric["unit"], metric["name"]
    assert any(line.startswith("traffic read_repeat_share") for line in lines)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_a_corrupted_answer_fails_the_run(workload, tmp_path):
    result = run_workload(
        workload, 5, 1.0, False, str(tmp_path), sizes=SMOKE, corrupt=True
    )
    assert not result.correct
    assert result.failed >= result.wrong >= 1


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_the_op_log_follows_the_seed(workload, tmp_path):
    def digest(seed: int) -> str:
        return WORKLOADS[workload](seed, SMOKE, str(tmp_path)).digest()

    assert digest(11) == digest(11)
    assert digest(11) != digest(12)


def test_memory_queries_repeats_half_of_its_reads(tmp_path):
    result = run_workload(
        "memory_queries", 2, 1.0, False, str(tmp_path), sizes=SMOKE
    )
    share = next(
        note for note in result.notes if note.startswith("traffic read_repeat")
    )
    assert share.split()[2] == "0.5000"


def test_rationale_covers_every_benchmark_metric():
    names = sorted(w["name"] for w in SPEC["workloads"])
    assert sorted(RATIONALE["workloads"]) == names
    gated = {
        name for name, spec in RATIONALE["end_to_end"].items() if spec["gated"]
    }
    assert gated == {m["name"] for m in SPEC["end_to_end"]}
    names = sorted(m["name"] for m in SPEC["per_layer"])
    assert sorted(RATIONALE["per_layer"]) == names
    for name, layer in RATIONALE["per_layer"].items():
        for metric, workload in layer["should_move"]:
            assert workload in RATIONALE["end_to_end"][metric]["workloads"], name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    run = bench(
        str(tmp_path), "--workload", "resident_writes", "--seed", "1",
        "--seconds", "1", "--trace", "0",
    )
    assert run.returncode != 0
    assert "{" not in run.stdout
