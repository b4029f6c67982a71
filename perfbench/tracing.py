"""Outside-in tracing: spans around each layer's public functions.

A :class:`Recorder` replaces the named functions of every layer module
in place with timing wrappers, so the program under test carries no
spans of its own.  Each thread keeps its own span stack; every span
records its name, start, end, parent, thread, and the benchmark op it
ran under.  Spans stay in memory until :meth:`Recorder.write` saves
them as JSONL when the run ends.  :meth:`Recorder.uninstall` restores
every original function.

The records use the shape :mod:`repro.obs.report` reads (``span``,
``parent``, ``name``, ``wall_ms``, ``cpu_ms``), so its self-time
rollup is reused for the unattributed shares and the printed profile.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.obs.report import build_rollup, rollup_rows

#: hook run after a wrapped call returns: (record, args, result).
OnExit = Callable[[dict, tuple, Any], None]


class Recorder:
    """In-memory span recorder over wrapped layer functions."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        #: statements the store connection ran, per op id.
        self.statements: dict[str, int] = defaultdict(int)
        #: exchange/propagation epoch: bumped after every write op, so
        #: annotate calls can be keyed by the state they annotate.
        self.epoch = 0
        #: (epoch, semiring, op kind) of every annotate call so far.
        self.annotate_keys: set[tuple] = set()
        self.annotate_calls = 0
        self.annotate_repeats = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._connection: Any = None

    # -- span bookkeeping ------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _op(self) -> tuple[str, str]:
        return getattr(self._local, "op", ("", ""))

    @contextmanager
    def op(self, op_id: str, kind: str) -> Iterator[None]:
        """Run one benchmark op under a root ``op.<kind>`` span."""
        self._local.op = (op_id, kind)
        try:
            with self.span(f"op.{kind}"):
                yield
        finally:
            self._local.op = ("", "")

    @contextmanager
    def span(self, name: str) -> Iterator[dict[str, Any]]:
        stack = self._stack()
        span_id = next(self._ids)
        op_id, kind = self._op()
        record: dict[str, Any] = {
            "span": span_id,
            "parent": stack[-1] if stack else None,
            "name": name,
            "thread": threading.current_thread().name,
            "op": op_id,
            "kind": kind,
            "attrs": {},
        }
        stack.append(span_id)
        cpu = time.thread_time()
        start = time.perf_counter()
        try:
            yield record
        except BaseException:
            record["attrs"]["error"] = True
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            record["start"] = start
            record["end"] = end
            record["wall_ms"] = (end - start) * 1e3
            record["cpu_ms"] = (time.thread_time() - cpu) * 1e3
            self.spans.append(record)

    # -- installing wrappers ---------------------------------------------

    def wrap(
        self, owner: object, attr: str, name: str, on_exit: OnExit | None = None
    ) -> None:
        """Replace ``owner.attr`` with a wrapper timing it as *name*."""
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with recorder.span(name) as record:
                result = original(*args, **kwargs)
                if on_exit is not None:
                    on_exit(record, args, result)
                return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def count_statements(self, connection: Any) -> None:
        """Count every statement *connection* runs against the current op."""

        def on_statement(sql: str) -> None:
            self.statements[self._op()[0]] += 1

        connection.set_trace_callback(on_statement)
        self._connection = connection

    def uninstall(self) -> None:
        """Restore every wrapped function and the statement callback."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._connection is not None:
            self._connection.set_trace_callback(None)
            self._connection = None

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, default=repr) + "\n")

    # -- hooks -------------------------------------------------------------

    def _bump_epoch(self, record: dict, args: tuple, result: Any) -> None:
        self.epoch += 1

    def _annotate_key(self, record: dict, args: tuple, result: Any) -> None:
        semiring = getattr(args[1], "name", type(args[1]).__name__)
        key = (self.epoch, semiring, record["kind"])
        self.annotate_calls += 1
        if key in self.annotate_keys:
            self.annotate_repeats += 1
            record["attrs"]["repeat"] = True
        self.annotate_keys.add(key)


def _set_attr(attr: str, value: Callable[[Any], Any]) -> OnExit:
    def hook(record: dict, args: tuple, result: Any) -> None:
        record["attrs"][attr] = value(result)

    return hook


def install_layers(recorder: Recorder) -> None:
    """Wrap the public entry points of every layer module.

    Functions a caller imported by name are wrapped where that caller
    looks them up (``repro.cdss.system.evaluate``, the reader's
    ``load_edges``), so the span measures the call as that layer makes
    it.
    """
    from repro.cdss import system as cdss_system
    from repro.exchange import graph_queries, reach_index, sql_executor
    from repro.proql import graph_engine
    from repro.proql.sql_engine import SQLEngine
    from repro.provenance.graph import ProvenanceGraph
    from repro.serve import reader
    from repro.storage.sqlite_backend import SQLiteStorage

    # the package re-exports the function under the module's name
    annotate_module = importlib.import_module("repro.provenance.annotate")
    wrap = recorder.wrap
    wrap(cdss_system.CDSS, "exchange", "cdss.exchange", recorder._bump_epoch)
    wrap(
        cdss_system.CDSS,
        "propagate_deletions",
        "cdss.propagate",
        recorder._bump_epoch,
    )
    engine = sql_executor.SQLiteExchangeEngine
    wrap(engine, "run", "sql_executor.run")
    wrap(engine, "propagate_deletions", "sql_executor.propagate")
    wrap(sql_executor.ExchangeStore, "sync_instance", "sql_executor.sync")
    index = reach_index.ReachabilityIndex
    wrap(index, "on_run_complete", "reach_index.maintain")
    wrap(index, "begin_prune", "reach_index.prune")
    wrap(index, "finish_prune", "reach_index.prune")
    wrap(index, "rebuild", "reach_index.rebuild")
    wrap(reader, "load_edges", "reach_index.load_edges")
    wrap(reader, "liveness_over_edges", "reach_index.liveness")
    rounds = _set_attr("rounds", lambda result: result[0])
    for module in (sql_executor, graph_queries):
        wrap(
            module,
            "run_liveness_fixpoint",
            "graph_queries.liveness_fixpoint",
            rounds,
        )
    wrap(
        cdss_system,
        "evaluate",
        "datalog.evaluate",
        _set_attr("firings", lambda result: result.firings),
    )
    for module in (cdss_system, annotate_module, graph_engine):
        wrap(module, "annotate", "provenance.annotate", recorder._annotate_key)
    wrap(annotate_module, "lineage_of", "provenance.lineage_of")
    wrap(cdss_system, "derivability_partition", "provenance.partition")
    wrap(ProvenanceGraph, "remove_nodes", "provenance.remove_nodes")
    wrap(
        SQLiteStorage,
        "load",
        "storage.load",
        _set_attr("rows", lambda result: result),
    )
    wrap(
        SQLEngine,
        "run",
        "proql.sql_run",
        _set_attr("stats", lambda result: result.stats),
    )
    wrap(graph_engine.GraphEngine, "run", "proql.graph_run")
    for method in ("lineage", "derivability", "trusted"):
        wrap(reader.ReaderSession, method, "serve.query")


# -- per-layer metrics ------------------------------------------------------


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def per_op(
    spans: list[dict],
    name: str,
    value: Callable[[dict], float] = lambda s: s["wall_ms"],
    kinds: tuple[str, ...] | None = None,
) -> list[float]:
    """Per-op totals of *value* over the spans named *name*."""
    totals: dict[str, float] = defaultdict(float)
    for record in spans:
        if record["name"] == name and (kinds is None or record["kind"] in kinds):
            totals[record["op"]] += value(record)
    return list(totals.values())


def self_share(rows: list[dict], name: str) -> float:
    """Self time / wall time summed over every rollup row named *name*."""
    wall = sum(row["wall_ms"] for row in rows if row["name"] == name)
    own = sum(row["self_ms"] for row in rows if row["name"] == name)
    return own / wall if wall else 0.0


def layer_metrics(
    recorder: Recorder, firings: dict[str, int]
) -> dict[str, tuple[float, int]]:
    """Every span-derived per-layer metric as ``name -> (value, samples)``.

    *firings* maps resident exchange op ids to
    ``last_exchange.firings``.  Timings are medians over the ops (or
    calls) where the layer ran; a layer that never ran reports 0 with
    0 samples.
    """
    spans = recorder.spans
    rows = rollup_rows(build_rollup(spans))
    out: dict[str, tuple[float, int]] = {}

    def put(metric: str, values: list[float]) -> None:
        out[metric] = (median(values), len(values))

    def stat(attr: str) -> Callable[[dict], float]:
        return lambda s: float(getattr(s["attrs"].get("stats"), attr, 0.0))

    # exchange.sql_executor
    put("sql_executor.run_ms", per_op(spans, "sql_executor.run"))
    put("sql_executor.sync_ms", per_op(spans, "sql_executor.sync"))
    put("sql_executor.propagate_ms", per_op(spans, "sql_executor.propagate"))
    exchange_ops = [op for op in firings if op in recorder.statements]
    put(
        "sql_executor.statements",
        [recorder.statements[op] for op in exchange_ops],
    )
    put(
        "sql_executor.statements_per_firing",
        [
            recorder.statements[op] / firings[op]
            for op in exchange_ops
            if firings[op]
        ],
    )
    # exchange.reach_index
    put("reach_index.maintain_ms", per_op(spans, "reach_index.maintain"))
    put("reach_index.prune_ms", per_op(spans, "reach_index.prune"))
    rebuilds = sum(1 for s in spans if s["name"] == "reach_index.rebuild")
    out["reach_index.rebuilds"] = (float(rebuilds), rebuilds)
    put("reach_index.load_edges_ms", per_op(spans, "reach_index.load_edges"))
    put("reach_index.liveness_ms", per_op(spans, "reach_index.liveness"))
    # exchange.graph_queries
    put(
        "graph_queries.liveness_fixpoint_ms",
        per_op(spans, "graph_queries.liveness_fixpoint"),
    )
    put(
        "graph_queries.liveness_rounds",
        per_op(
            spans,
            "graph_queries.liveness_fixpoint",
            lambda s: float(s["attrs"].get("rounds", 0)),
        ),
    )
    # datalog
    put("datalog.evaluate_ms", per_op(spans, "datalog.evaluate"))
    put(
        "datalog.firings",
        per_op(
            spans,
            "datalog.evaluate",
            lambda s: float(s["attrs"].get("firings", 0)),
        ),
    )
    # provenance: annotate is per call, the rest per op
    put(
        "provenance.annotate_ms",
        [s["wall_ms"] for s in spans if s["name"] == "provenance.annotate"],
    )
    calls = recorder.annotate_calls
    out["provenance.annotate_repeat_share"] = (
        recorder.annotate_repeats / calls if calls else 0.0,
        calls,
    )
    put("provenance.lineage_of_ms", per_op(spans, "provenance.lineage_of"))
    put("provenance.partition_ms", per_op(spans, "provenance.partition"))
    put("provenance.remove_nodes_ms", per_op(spans, "provenance.remove_nodes"))
    # storage
    put("storage.load_ms", per_op(spans, "storage.load"))
    put(
        "storage.rows_loaded",
        per_op(spans, "storage.load", lambda s: float(s["attrs"].get("rows", 0))),
    )
    # proql: pipeline stages from SQLStats, graph run on graph-engine ops
    for metric, attr, scale in (
        ("proql.unfold_ms", "unfold_seconds", 1e3),
        ("proql.compile_ms", "compile_seconds", 1e3),
        ("proql.sql_ms", "sql_seconds", 1e3),
        ("proql.reconstruct_ms", "reconstruct_seconds", 1e3),
        ("proql.unfolded_rules", "unfolded_rules", 1.0),
    ):
        get = stat(attr)
        put(metric, per_op(spans, "proql.sql_run", lambda s: get(s) * scale))
    put(
        "proql.graph_run_ms",
        per_op(spans, "proql.graph_run", kinds=("proql_graph",)),
    )
    # serve: per reader answer
    put(
        "serve.query_ms",
        [s["wall_ms"] for s in spans if s["name"] == "serve.query"],
    )
    served = [row for row in rows if row["name"] == "serve.query"]
    count = sum(row["count"] for row in served)
    out["serve.self_ms"] = (
        sum(row["self_ms"] for row in served) / count if count else 0.0,
        count,
    )
    # cdss: time the wrapped child layers do not cover
    exchanges = sum(1 for s in spans if s["name"] == "cdss.exchange")
    propagations = sum(1 for s in spans if s["name"] == "cdss.propagate")
    out["cdss.exchange_unattributed_share"] = (
        self_share(rows, "cdss.exchange"),
        exchanges,
    )
    out["cdss.propagate_unattributed_share"] = (
        self_share(rows, "cdss.propagate"),
        propagations,
    )
    return out


def render_rollup(recorder: Recorder, depth: int = 4) -> list[str]:
    """The traced run's self-time profile, as printable lines."""
    lines = [f"{'span':<52} {'count':>7} {'wall_ms':>11} {'self_ms':>11}"]
    for row in rollup_rows(build_rollup(recorder.spans)):
        if row["depth"] < depth:
            label = "  " * row["depth"] + row["name"]
            lines.append(
                f"{label:<52} {row['count']:>7} {row['wall_ms']:>11.2f} "
                f"{row['self_ms']:>11.2f}"
            )
    return lines
