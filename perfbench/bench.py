"""One benchmark run: set up, drive, check, and report every metric.

:func:`run_workload` returns a :class:`Result` whose ``metrics`` map
metric names to ``(value, unit, samples)``.  The end-to-end metrics
come from the untraced run; a traced run (``trace=True``) instead
splits its time into an untraced half and a traced half, and reports
the per-layer metrics of the traced half plus the tracing overhead
(traced minus untraced medians).
"""

from __future__ import annotations

import os
import resource
import time
from dataclasses import dataclass, field

from perfbench.tracing import (
    Recorder,
    install_layers,
    layer_metrics,
    median,
    render_rollup,
)
from perfbench.workloads import FULL, WORKLOADS, Phase, Sizes, Workload, percentile

Metric = tuple[float, str, int]


@dataclass
class Result:
    workload: str
    seed: int
    attempted: int
    failed: int
    #: failed ops whose answer a check marked wrong
    wrong: int
    problems: list[str]
    metrics: dict[str, Metric]
    #: printable lines: op-log digest, traffic properties, traced profile
    notes: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.wrong == 0


def end_to_end(
    workload: Workload, phases: list[Phase], setup_s: list[float]
) -> dict[str, Metric]:
    """Every end-to-end metric whose operation ran in this workload."""
    writer, reader = phases[0], phases[-1]
    served = len(phases) > 1
    metrics: dict[str, Metric] = {
        "setup_s": (median(setup_s), "s", len(setup_s)),
        "ops_per_s": (
            reader.completed / reader.elapsed if reader.elapsed else 0.0,
            "1/s",
            reader.completed,
        ),
    }
    exchange = writer.ms["exchange"]
    metrics["exchange_p50_ms"] = (median(exchange), "ms", len(exchange))
    metrics["exchange_p90_ms"] = (percentile(exchange, 0.9), "ms", len(exchange))
    kinds = ["propagate", "lineage", "derivability", "trusted"]
    kinds += ["proql_graph", "proql_sql", "fresh_read"]
    for kind in kinds:
        samples = reader.ms.get(kind) or writer.ms.get(kind)
        if samples:
            metrics[f"{kind}_p50_ms"] = (median(samples), "ms", len(samples))
    if workload.resident:
        tuples = workload.system.instance_size()
        metrics["store_bytes_per_tuple"] = (
            workload.store_bytes() / tuples,
            "B",
            tuples,
        )
    if served and "fresh_read_p50_ms" not in metrics:
        metrics["fresh_read_p50_ms"] = (0.0, "ms", 0)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["peak_rss_mb"] = (peak, "MB", 1)
    return metrics


def traffic(phases: list[Phase]) -> list[str]:
    """The workload's measured traffic properties, as printable lines."""
    writes = sum(phase.writes for phase in phases)
    reads = sum(phase.reads for phase in phases)
    repeats = sum(phase.repeat_reads for phase in phases)
    total = writes + reads
    return [
        f"traffic write_share {writes / total if total else 0.0:.4f} "
        f"(writes={writes} reads={reads})",
        f"traffic read_repeat_share {repeats / reads if reads else 0.0:.4f} "
        f"(repeats of an earlier question at the same epoch: {repeats}/{reads})",
    ]


def per_layer(
    recorder: Recorder,
    phases: list[Phase],
    untraced: dict[str, Metric],
    traced: dict[str, Metric],
    counters: dict[str, float],
) -> dict[str, Metric]:
    """Every per-layer metric of the traced phase, plus the overhead.

    Span-derived metrics come from :func:`layer_metrics`; the rest from
    what the ops observed (``last_exchange``, ``last_deletion``,
    ``last_read``) and the ``cdss.metrics`` counter deltas.
    """
    writer, reader = phases[0], phases[-1]
    firings: dict[str, int] = {}
    for phase in phases:
        firings.update(phase.firings)
    metrics: dict[str, Metric] = {}
    for name, (value, samples) in layer_metrics(recorder, firings).items():
        unit = "ms" if name.endswith("_ms") else "count"
        metrics[name] = (value, "ratio" if name.endswith("share") else unit, samples)

    def median_of(values: list[float]) -> Metric:
        return (median(values), "count", len(values))

    def ratio(part: float, whole: float, samples: int) -> Metric:
        return (part / whole if whole else 0.0, "ratio", samples)

    metrics["sql_executor.rows_mirrored"] = median_of(
        [float(n) for phase in phases for n in phase.mirrored]
    )
    metrics["graph_queries.pm_rows_scanned"] = median_of(
        [float(n) for phase in phases for n in phase.pm_scanned]
    )
    answers = sum(phase.reads for phase in phases if phase.prefix == "r")
    hits = sum(phase.cache_hits for phase in phases)
    metrics["serve.cache_hit_ratio"] = ratio(hits, answers, answers)
    retries = sum(phase.retries for phase in phases)
    metrics["serve.retries"] = (float(retries), "count", answers)
    for name in ("stale_retries", "busy_retries", "snapshot_refreshes"):
        value = counters.get(f"serve.{name}", 0.0)
        metrics[f"serve.{name}"] = (value, "count", answers)
    hits = counters.get("unfold.cache_hits", 0.0)
    lookups = hits + counters.get("unfold.cache_misses", 0.0)
    metrics["proql.unfold_cache_hit_ratio"] = ratio(hits, lookups, int(lookups))
    late = writer.late_ms
    metrics["generator.late_p50_ms"] = (median(late), "ms", len(late))
    base, with_trace = untraced["exchange_p50_ms"], traced["exchange_p50_ms"]
    metrics["trace.exchange_p50_overhead_ms"] = (
        with_trace[0] - base[0],
        "ms",
        with_trace[2],
    )
    base_ops, traced_ops = untraced["ops_per_s"][0], traced["ops_per_s"][0]
    metrics["trace.ops_per_s_overhead_share"] = ratio(
        base_ops - traced_ops, base_ops, reader.completed
    )
    return metrics


def counter_delta(
    before: dict[str, float], after: dict[str, float]
) -> dict[str, float]:
    return {name: value - before.get(name, 0.0) for name, value in after.items()}


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: str,
    sizes: Sizes = FULL,
    corrupt: bool = False,
    spans_path: str | None = None,
) -> Result:
    """Set up, drive and check one workload; report its metrics."""
    workload = WORKLOADS[name](seed, sizes, workdir)
    try:
        setup_s = []
        for _ in range(sizes.setups):
            started = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - started)
        workload.corrupt = corrupt
        notes = [f"op log digest {workload.digest()} (seed {seed})"]
        if not trace:
            phases = workload.drive(seconds, None)
            metrics = end_to_end(workload, phases, setup_s)
            notes += traffic(phases)
        else:
            untraced_phases = workload.drive(seconds / 2, None)
            untraced = end_to_end(workload, untraced_phases, setup_s)
            recorder = Recorder()
            install_layers(recorder)
            workload.instrument(recorder)
            before = workload.system.metrics.snapshot()
            try:
                traced_phases = workload.drive(seconds / 2, recorder)
            finally:
                recorder.uninstall()
            counters = counter_delta(before, workload.system.metrics.snapshot())
            traced = end_to_end(workload, traced_phases, setup_s)
            metrics = per_layer(recorder, traced_phases, untraced, traced, counters)
            phases = untraced_phases + traced_phases
            notes += traffic(traced_phases)
            notes += [f"traced spans: {len(recorder.spans)}"]
            notes += render_rollup(recorder)
            if spans_path is not None:
                recorder.write(spans_path)
        workload.check(phases[-1])
        attempted = sum(phase.attempted for phase in phases)
        failed = sum(phase.failed for phase in phases)
        if not trace:
            metrics["failed_share"] = (failed / attempted, "ratio", attempted)
        return Result(
            workload=name,
            seed=seed,
            attempted=attempted,
            failed=failed,
            wrong=sum(phase.wrong for phase in phases),
            problems=[p for phase in phases for p in phase.problems],
            metrics=metrics,
            notes=notes,
        )
    finally:
        workload.teardown()


def store_dir(root: str) -> str:
    """A per-process scratch directory for store files under *root*."""
    path = os.path.join(root, ".perfbench_work", str(os.getpid()))
    os.makedirs(path, exist_ok=True)
    return path
