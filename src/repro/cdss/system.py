"""The CDSS itself: peers + mappings + update exchange (Section 2).

:class:`CDSS` assembles the full data-exchange substrate the paper's
storage and query layers sit on:

* a catalog of every public relation and its local-contribution table;
* auto-generated local rules ``L_R: R(x̄) :- R_l(x̄)`` (Example 2.1's
  L1–L4), so base data appears in the provenance graph as leaf tuples;
* **update exchange**: (incremental) semi-naive materialization of all
  peers' instances, recording the provenance graph;
* **deletion propagation** (use case Q5): after local deletions,
  re-derive derivability from the remaining leaves and garbage-collect
  tuples (and derivations) that are no longer supported — provenance
  makes this a graph computation instead of a view recomputation.
"""

from __future__ import annotations

import os
import time
import warnings
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.cdss.mapping import SchemaMapping
from repro.cdss.peer import Peer
from repro.cdss.trust import TrustPolicy
from repro.datalog.evaluation import EvaluationResult, evaluate
from repro.datalog.parser import parse_rule
from repro.datalog.rules import Program, Rule
from repro.errors import ExchangeError, SchemaError
from repro.exchange.cache import ProgramCache
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import as_tracer
from repro.provenance.annotate import annotate, derivability_partition
from repro.provenance.graph import ProvenanceGraph, TupleNode
from repro.relational.instance import Catalog, Instance, Row
from repro.relational.schema import RelationSchema, is_local_name, local_name
from repro.semirings.registry import get_semiring

if TYPE_CHECKING:  # pragma: no cover - typing only
    from typing import Callable

    from repro.analysis import Report
    from repro.exchange.cache import CompiledExchangeProgram
    from repro.exchange.graph_queries import StoreGraphQueries
    from repro.exchange.sql_executor import ExchangeStore
    from repro.obs.trace import NullTracer, Tracer
    from repro.proql.graph_engine import ProQLResult
    from repro.proql.pruning import UnfoldCache
    from repro.serve import ReaderSession, StoreServer

#: EvaluationResult fields mirrored into the metrics registry after
#: every lifecycle call (prefixed with the call kind: ``exchange.*``,
#: ``deletion.*``, ``graph_query.*``).
_METRIC_FIELDS = (
    "iterations",
    "firings",
    "inserted",
    "plans_compiled",
    "index_hits",
    "dedup_skipped",
    "rows_mirrored",
    "relations_synced",
    "rows_deleted",
    "pm_rows_collected",
    "pm_rows_scanned",
    "index_hit",
    "index_miss",
)


def local_rule_name(relation: str) -> str:
    """Name of the auto-generated local-contribution rule for *relation*."""
    return f"L_{relation}"


class CDSS:
    """A collaborative data sharing system instance."""

    def __init__(
        self,
        peers: Iterable[Peer] = (),
        trace: "Tracer | NullTracer | str | os.PathLike | None" = None,
    ):
        #: lifecycle tracer (:mod:`repro.obs`): ``None`` disables
        #: tracing (the zero-overhead default); pass a
        #: :class:`~repro.obs.trace.Tracer` or a JSONL path to opt in.
        self.tracer = as_tracer(trace)
        #: cumulative counters every lifecycle call reports into — the
        #: single source behind :attr:`exchange_seconds` and friends
        #: (``cdss.metrics.snapshot()`` for the full picture).
        self.metrics = MetricsRegistry()
        self.peers: dict[str, Peer] = {}
        self.mappings: dict[str, SchemaMapping] = {}
        self.catalog = Catalog()
        self._local_rules: dict[str, Rule] = {}
        self.instance = Instance(self.catalog)
        self.graph = ProvenanceGraph()
        self._pending: dict[str, set[Row]] = {}
        self._exchanged_once = False
        #: engine statistics of the most recent :meth:`exchange`.
        self.last_exchange: EvaluationResult | None = None
        #: statistics of the most recent :meth:`propagate_deletions`
        #: (``rows_deleted`` / ``pm_rows_collected`` / ``engine``).
        self.last_deletion: EvaluationResult | None = None
        #: statistics of the most recent graph query (:meth:`lineage`,
        #: :meth:`derivability`, :meth:`trusted`): which engine
        #: answered it, and — for the store engine — ``iterations`` and
        #: ``pm_rows_scanned`` of the relational walk.
        self.last_graph_query: EvaluationResult | None = None
        #: report of the most recent ``exchange(validate=...)``
        #: pre-flight (None until one runs).
        self.last_validation: "Report | None" = None
        #: compiled-program cache shared by both exchange engines;
        #: invalidated whenever the mapping program can change.
        self.plan_cache = ProgramCache()
        #: (invalidation counter, entry) memo over
        #: :meth:`_fetch_program`, so warm graph queries skip both the
        #: program rebuild and its fingerprint hash.
        self._program_memo: "tuple[int, CompiledExchangeProgram] | None" = None
        #: lazily created unfolded-ProQL-program cache (see
        #: :attr:`unfold_cache`); None until the first query needs it.
        self._unfold_cache: "UnfoldCache | None" = None
        #: lazily created SQLite mirror for ``engine="sqlite"``.
        self.exchange_store: "ExchangeStore | None" = None
        self._owns_store = False
        #: True once this system has run a store-resident exchange
        #: (``resident=True``); the mode is sticky for the CDSS's life.
        self._resident = False
        for peer in peers:
            self.add_peer(peer)

    @property
    def exchange_seconds(self) -> float:
        """Cumulative wall-clock seconds spent in update exchange.

        Reads the ``exchange.seconds`` metrics counter — the per-call
        complement is ``last_exchange.wall_seconds``.
        """
        return self.metrics.value("exchange.seconds")

    def _record_result(self, kind: str, result: EvaluationResult) -> None:
        """Mirror one lifecycle result into the metrics registry.

        Every non-zero stat field lands as a ``<kind>.<field>``
        counter, plus ``<kind>.calls`` and ``<kind>.seconds`` — the
        cumulative views (:attr:`exchange_seconds` included) all read
        from here.
        """
        metrics = self.metrics
        metrics.add(f"{kind}.calls")
        metrics.add(f"{kind}.seconds", result.wall_seconds)
        for field in _METRIC_FIELDS:
            value = getattr(result, field)
            if value:
                metrics.add(f"{kind}.{field}", value)

    # -- construction ------------------------------------------------------------

    def add_peer(self, peer: Peer) -> Peer:
        """Register a peer and its relations (plus their
        local-contribution twins and ``L_R`` rules).

        Engine-independent: works identically in store-resident mode —
        the new relations' tables are created in the store by the next
        exchange.  Invalidates the compiled-program cache.
        """
        if peer.name in self.peers:
            raise SchemaError(f"duplicate peer {peer.name}")
        self.peers[peer.name] = peer
        for schema in peer.relations:
            self._register_relation(schema)
        self.plan_cache.invalidate()
        if self._unfold_cache is not None:
            self._unfold_cache.invalidate()
        return peer

    def _register_relation(self, schema: RelationSchema) -> None:
        self.catalog.add(schema)
        self.catalog.add(schema.local_contribution())
        terms = ", ".join(schema.attribute_names)
        rule = parse_rule(
            f"{local_rule_name(schema.name)}: "
            f"{schema.name}({terms}) :- {local_name(schema.name)}({terms})"
        )
        self._local_rules[schema.name] = rule
        # The instance tracks catalog growth lazily; rebuild its view.
        self.instance.catalog = self.catalog

    def add_mapping(self, text_or_mapping: str | SchemaMapping, name: str | None = None) -> SchemaMapping:
        """Register a mapping given as rule text or a SchemaMapping.

        Engine-independent (works identically in store-resident mode);
        the mapping's ``P_m`` provenance relation is created by the
        next exchange.  Invalidates the compiled-program cache.
        """
        if isinstance(text_or_mapping, SchemaMapping):
            mapping = text_or_mapping
        else:
            default = name or f"m{len(self.mappings) + 1}"
            mapping = SchemaMapping.parse(text_or_mapping, self.catalog, default)
        if mapping.name in self.mappings:
            raise SchemaError(f"duplicate mapping name {mapping.name}")
        for atom in mapping.body + mapping.head:
            if atom.relation not in self.catalog:
                raise SchemaError(
                    f"mapping {mapping.name}: unknown relation "
                    f"{atom.relation}"
                )
            if atom.arity != self.catalog[atom.relation].arity:
                raise SchemaError(
                    f"mapping {mapping.name}: atom {atom} does not match the "
                    f"arity of {atom.relation}"
                )
        self.mappings[mapping.name] = mapping
        self.plan_cache.invalidate()
        if self._unfold_cache is not None:
            self._unfold_cache.invalidate()
        return mapping

    def add_mappings(self, texts: Iterable[str]) -> list[SchemaMapping]:
        """Register several mappings (see :meth:`add_mapping`;
        engine-independent, resident mode included)."""
        return [self.add_mapping(text) for text in texts]

    # -- programs ------------------------------------------------------------

    def local_rules(self) -> list[Rule]:
        """The auto-generated local-contribution rules ``L_R``
        (engine-independent metadata; safe in any mode)."""
        return list(self._local_rules.values())

    def program(self) -> Program:
        """Local-contribution rules + all schema mappings
        (engine-independent metadata; safe in any mode)."""
        return Program(self.local_rules() + [m.rule for m in self.mappings.values()])

    def _fetch_program(self) -> "CompiledExchangeProgram":
        """The compiled exchange program, memoized against the plan
        cache's invalidation counter: warm graph queries (the indexed
        sub-millisecond path) must not rebuild and re-hash the rule
        list on every call."""
        memo = self._program_memo
        if memo is not None and memo[0] == self.plan_cache.invalidations:
            return memo[1]
        entry, _ = self.plan_cache.fetch(self.program())
        self._program_memo = (self.plan_cache.invalidations, entry)
        return entry

    # -- data ------------------------------------------------------------

    def insert_local(self, relation: str, row: Sequence[object]) -> bool:
        """Queue a local insertion into *relation*'s contribution table.

        Works in every mode.  In store-resident mode the row lives in
        the Python instance (local contributions are the one thing the
        instance keeps) until the next exchange ships it to the
        authoritative store; until then it is invisible to graph
        queries, exactly as it would be absent from a non-resident
        system's graph.

        Float NaNs in *row* are canonicalized to the system's single
        NaN object (:data:`~repro.storage.encoding.CANONICAL_NAN`), so
        NaN joins identically on both engines — by value, not IEEE
        ``nan != nan`` (see ``docs/architecture.md``).
        """
        # Local import: repro.storage's package init imports CDSS back.
        from repro.storage.encoding import canonical_row

        if relation not in self.catalog:
            raise SchemaError(f"unknown relation {relation}")
        target = relation if is_local_name(relation) else local_name(relation)
        row = canonical_row(row)
        if self.instance.insert(target, row):
            self._pending.setdefault(target, set()).add(row)
            return True
        return False

    def insert_local_many(
        self, relation: str, rows: Iterable[Sequence[object]]
    ) -> int:
        """Queue a batch of local insertions (see :meth:`insert_local`;
        works in every mode, resident included)."""
        return sum(self.insert_local(relation, row) for row in rows)

    def exchange(
        self,
        engine: str = "memory",
        storage: "ExchangeStore | str | os.PathLike | None" = None,
        resident: bool = False,
        validate: str = "off",
    ) -> EvaluationResult:
        """Run (incremental) update exchange.

        The first call materializes everything; later calls seed the
        semi-naive evaluation with only the pending local insertions,
        so unchanged derivations are not re-fired.

        ``engine`` selects the evaluation substrate: ``"memory"`` runs
        compiled join plans over in-memory hash indexes; ``"sqlite"``
        runs whole delta batches as set-oriented SQL statements
        (:mod:`repro.exchange.sql_executor`) — the out-of-core mode.
        ``storage`` (sqlite engine only) names the
        :class:`~repro.exchange.sql_executor.ExchangeStore` to use, or
        a filesystem path for instances larger than memory; by default
        the CDSS owns one in-memory store, reused across incremental
        calls.  Both engines share the compiled-program cache
        (:attr:`plan_cache`): repeated exchanges over an unchanged
        program compile zero plans (``plans_compiled == 0``).

        **Sync protocol** (sqlite engine): the store mirrors the
        instance incrementally.  Each relation carries a change journal
        (:meth:`~repro.relational.instance.Instance.change_mark`), and
        the store keeps a per-relation high-water mark: rows appended
        since the mark ship as batched INSERTs, a relation that saw a
        deletion reloads in full, and an unchanged relation ships
        nothing.  The result reports the traffic as
        ``rows_mirrored``/``relations_synced`` — a repeat exchange over
        unchanged relations reports ``rows_mirrored == 0``.

        **Resident mode** (``resident=True``, sqlite engine with
        on-disk ``storage=`` only): the
        on-disk store is the *authoritative* instance.  Derived tuples
        and provenance derivations are never materialized in Python —
        the instance holds only local contributions, so working sets
        may exceed memory.  The mode is sticky: once a system has
        exchanged residently it must keep doing so, and
        :meth:`instance_size` counts store rows.  The full paper
        lifecycle stays available relationally: :meth:`delete_local`
        marks victims in SQL, :meth:`propagate_deletions` runs the
        DERIVABILITY test inside the dead cone over the store's
        reachability index, and the graph queries (:meth:`lineage`,
        :meth:`derivability`, :meth:`trusted`) are answered by
        recursive joins over that same history
        (:mod:`repro.exchange.graph_queries`).  Every successful
        resident run also maintains the store's reachability index
        (under an ``index.maintain`` span): a full run replaces it, an
        incremental run over a *current* index extends it with just the
        new firings, and any other combination rebuilds it from the
        stored history — so the next graph query starts from a current
        index (``docs/graph-index.md``).  A run that dies mid-flight
        leaves the index marked stale; nothing is lost, the next graph
        query or run rebuilds it.

        **Pre-flight** (``validate=``): ``"warn"`` or ``"error"`` runs
        the static analyzer (:func:`repro.analysis.analyze`) over the
        mapping program before any engine work — reporting the result
        in :attr:`last_validation`, warning or raising
        :class:`~repro.errors.AnalysisError` on error diagnostics.
        The default ``"off"`` adds zero overhead.

        **Observability**: with a tracer installed (``CDSS(trace=...)``)
        the call emits an ``exchange`` span with validate/compile/round
        children (see ``docs/observability.md``).  The call's own
        duration lands on ``result.wall_seconds``; the cumulative
        :attr:`exchange_seconds` and the other ``exchange.*`` counters
        accumulate in :attr:`metrics`.
        """
        started = time.perf_counter()
        with self.tracer.span("exchange") as span:
            span.set("engine", engine).set("resident", resident)
            if validate != "off":
                with self.tracer.span("exchange.validate") as vspan:
                    vspan.set("mode", validate)
                    self._validate_program(validate)
            if resident and engine != "sqlite":
                raise ExchangeError(
                    'resident=True requires engine="sqlite"; only the store '
                    "can hold the authoritative instance"
                )
            if self._exchanged_once and resident != self._resident:
                raise ExchangeError(
                    "cannot switch store-resident mode mid-life: the "
                    f"{'store' if self._resident else 'Python instance'} "
                    "already holds the derived tuples; build a fresh CDSS"
                )
            if self._resident and self._exchanged_once:
                self._check_resident_store(storage)
            with self.tracer.span("exchange.compile") as cspan:
                rules = self.program()
                program, cache_hit = self.plan_cache.fetch(rules)
                cspan.set("cache_hit", cache_hit)
            initial_delta: Mapping[str, set[Row]] | None
            if self._exchanged_once:
                initial_delta = dict(self._pending)
            else:
                initial_delta = None
            span.set("incremental", initial_delta is not None)
            if engine == "memory":
                if storage is not None:
                    raise ExchangeError(
                        'storage= applies only to engine="sqlite"; the '
                        "memory engine has no store"
                    )
                result = evaluate(
                    rules,
                    self.instance,
                    graph=self.graph,
                    initial_delta=initial_delta,
                    compiled_program=program,
                    tracer=self.tracer,
                )
            elif engine == "sqlite":
                from repro.exchange.sql_executor import SQLiteExchangeEngine

                store = self._resolve_store(storage)
                if resident and store.path == ":memory:":
                    raise ExchangeError(
                        "store-resident exchange requires an on-disk store "
                        "(pass storage=<path>): an in-memory store would be "
                        "the only copy of the derived instance with neither "
                        "durability nor out-of-core capacity"
                    )
                result = SQLiteExchangeEngine(store, tracer=self.tracer).run(
                    program,
                    self.catalog,
                    self.mappings,
                    self.instance,
                    graph=self.graph,
                    initial_delta=initial_delta,
                    resident=resident,
                )
            else:
                raise ExchangeError(
                    f"unknown exchange engine {engine!r}; "
                    'expected "memory" or "sqlite"'
                )
            result.engine = engine
            result.plan_cache_hit = cache_hit
            result.plans_compiled = 0 if cache_hit else program.plan_count
            span.set("rounds", result.iterations).set("firings", result.firings)
        result.wall_seconds = time.perf_counter() - started
        self._record_result("exchange", result)
        self.last_exchange = result
        self._pending.clear()
        self._exchanged_once = True
        self._resident = resident
        return result

    def _validate_program(self, mode: str) -> None:
        """The ``validate=`` pre-flight: run the static analyzer over
        the mapping program before the exchange fires anything."""
        if mode == "off":
            return
        if mode not in ("warn", "error"):
            raise ExchangeError(
                f"unknown validate mode {mode!r}; "
                'expected "off", "warn", or "error"'
            )
        from repro.analysis import analyze

        report = analyze(self)
        self.last_validation = report
        if mode == "error":
            report.raise_for_errors()
        elif report.diagnostics:
            warnings.warn(
                f"exchange pre-flight:\n{report}", stacklevel=3
            )

    def _check_resident_store(
        self, storage: "ExchangeStore | str | os.PathLike | None"
    ) -> None:
        """A resident system's store holds the only copy of the derived
        tuples, so ``storage=`` must keep resolving to that same store —
        switching (or silently adopting a fresh empty store after the
        pinned one was closed) would abandon the authoritative
        instance.  A *closed on-disk* store may be reopened by naming
        its original path; its file still holds the data."""
        from repro.exchange.sql_executor import ExchangeStore, normalize_store_path

        store = self.exchange_store
        if store is None or store.closed:
            # Reopening the same on-disk file is fine — the data lives
            # in the file, not the connection.  Anything else has no
            # source to recover the derived instance from.
            if (
                store is not None
                and storage is not None
                and not isinstance(storage, ExchangeStore)
                and normalize_store_path(storage) == store.path
                and store.path != ":memory:"
                # The file must still be there — reopening a deleted
                # path would hand back a fresh empty database.
                and os.path.exists(store.path)
            ):
                return
            raise ExchangeError(
                "the resident store is closed and it held the only "
                "copy of the derived instance; reopen it by passing "
                "its original on-disk path as storage=, or build a "
                "fresh CDSS"
            )
        if storage is None:
            return
        same = (
            storage is store
            if isinstance(storage, ExchangeStore)
            else normalize_store_path(storage) == store.path
        )
        if not same:
            raise ExchangeError(
                "store-resident exchange is pinned to its store "
                f"({store.path!r}): it holds the only copy of the "
                "derived instance, so storage= cannot name a different "
                "store; build a fresh CDSS to start over"
            )

    def _resolve_store(
        self, storage: "ExchangeStore | str | os.PathLike | None"
    ) -> "ExchangeStore":
        """The ``storage=`` hook: an explicit store, a path, or the
        CDSS-owned default (kept for incremental reuse).

        Stores this CDSS created itself are closed when a different
        store replaces them; caller-provided stores are never closed
        here (the caller owns their lifecycle).
        """
        from repro.exchange.sql_executor import ExchangeStore, normalize_store_path

        def adopt(store: "ExchangeStore", owned: bool) -> "ExchangeStore":
            if (
                self._owns_store
                and self.exchange_store is not None
                and self.exchange_store is not store
            ):
                self.exchange_store.close()
            self.exchange_store = store
            self._owns_store = owned
            return store

        if isinstance(storage, ExchangeStore):
            return adopt(storage, owned=False)
        if storage is not None:
            path = normalize_store_path(storage)
            if (
                self.exchange_store is not None
                and not self.exchange_store.closed
                and self.exchange_store.path == path
            ):
                return self.exchange_store
            return adopt(ExchangeStore(path), owned=True)
        if self.exchange_store is None or self.exchange_store.closed:
            return adopt(ExchangeStore(), owned=True)
        return self.exchange_store

    # -- deletion propagation (Q5) --------------------------------------------

    def delete_local(self, relation: str, row: Sequence[object]) -> bool:
        """Delete a local contribution (no propagation until
        :meth:`propagate_deletions`).

        In store-resident mode the victim is additionally marked in
        SQL: the row is removed from the authoritative store's
        local-contribution table (with the sync high-water mark
        fast-forwarded when possible, so the deletion does not force a
        full reload of the relation on the next exchange).  When the
        maintained reachability index is current, the store-side
        victim marking also removes the victim's incident firings from
        the index in the same transaction, keeping it *current* — see
        ``docs/graph-index.md``.

        Float NaNs in *row* are canonicalized exactly as in
        :meth:`insert_local`, so a NaN-carrying row deletes the row it
        inserted.
        """
        # Local import: repro.storage's package init imports CDSS back.
        from repro.storage.encoding import canonical_row

        if relation not in self.catalog:
            raise SchemaError(f"unknown relation {relation}")
        target = relation if is_local_name(relation) else local_name(relation)
        row = canonical_row(row)
        if self._resident:
            return self._resident_delete(target, row)
        self._pending.get(target, set()).discard(row)
        return self.instance.delete(target, row)

    def _resident_delete(self, target: str, row: Row) -> bool:
        """Victim marking in the authoritative store: mirror the local
        deletion into the on-disk ``R_l`` table."""
        store = self._open_resident_store("local deletion")
        in_sync = store.relation_in_sync(self.instance, target)
        self._pending.get(target, set()).discard(row)
        present = self.instance.delete(target, row)
        if present and store.has_table(target):
            store.delete_relation_row(self.catalog[target], row)
            if in_sync:
                # Both sides saw the same mutation; without this the
                # deletion epoch would trigger a full reload of the
                # whole relation on the next sync.
                store.fast_forward_mark(self.instance, target)
        return present

    def delete_local_many(
        self, relation: str, rows: Iterable[Sequence[object]]
    ) -> int:
        """Delete a batch of local contributions (see
        :meth:`delete_local`; in store-resident mode each victim is
        marked in SQL, and the call raises if the resident store is
        closed)."""
        return sum(self.delete_local(relation, row) for row in rows)

    def propagate_deletions(self) -> int:
        """Garbage-collect underivable tuples after local deletions.

        Runs the DERIVABILITY test (the paper's Q5: "provenance can
        speed up this test"): a leaf is derivable iff its local tuple
        still exists, and a derived tuple survives only while some
        firing with all-derivable antecedents still produces it.  The
        two engines share this semantics
        (:func:`~repro.provenance.annotate.derivability_partition`)
        over different substrates.  The memory engine annotates the
        in-memory provenance graph.  In store-resident mode the test
        runs on the store's reachability index: the victims' deletions
        recorded the heads of their firings as suspects, and one
        transaction runs the index's integer liveness kernel inside the
        suspects' downward cone only (a least fixpoint, so cyclic
        self-support dies), deletes the dead rows by rowid, and prunes
        the dead firings — cost proportional to the cone, not the
        instance, with nothing materialized in Python.  When a delete
        landed while the index was stale or renumbered, the same kernel
        runs over every stored derived row instead; when the dead cone
        is a large fraction of the index, the index is marked stale
        (``index.invalidate`` span) and the next graph query rebuilds
        it.  See ``docs/graph-index.md``.  Dead ``P_m`` rows are
        garbage-collected on both paths (for a non-resident system with
        a SQLite mirror too), so the stored firing history tracks the
        surviving derivations.

        Returns the number of removed tuples; the full statistics
        (``rows_deleted``, ``pm_rows_collected``, ``iterations``,
        ``engine``) land in :attr:`last_deletion`.  With a tracer
        installed the call emits a ``deletion`` span (annotate children
        on the graph path, cone/kill children on the store path).
        """
        started = time.perf_counter()
        with self.tracer.span("deletion") as span:
            if self._resident:
                result = self._propagate_deletions_resident()
            else:
                result = self._propagate_deletions_graph()
            span.set("engine", result.engine).set(
                "rows_deleted", result.rows_deleted
            )
        result.wall_seconds = time.perf_counter() - started
        self._record_result("deletion", result)
        self.last_deletion = result
        return result.rows_deleted

    def _propagate_deletions_graph(self) -> EvaluationResult:
        """Graph-path propagation (non-resident systems)."""
        with self.tracer.span("deletion.annotate"):
            dead_tuples, dead_derivations = derivability_partition(
                self.graph,
                leaf_assignment=lambda node: self.instance.contains(
                    node.relation, node.values
                ),
            )
        result = EvaluationResult(self.instance, self.graph, engine="memory")
        if not dead_tuples:
            return result
        collected = self._collected_provenance_rows(dead_derivations)
        for node in dead_tuples:
            if self.instance.delete(node.relation, node.values):
                result.rows_deleted += 1
        self.graph.remove_nodes(dead_tuples, dead_derivations)
        result.pm_rows_collected = sum(
            len(rows) for rows in collected.values()
        )
        store = self.exchange_store
        if store is not None and not store.closed:
            # Keep a non-resident mirror's firing history honest too:
            # drop the P_m rows whose every supporting firing died.
            for name, rows in collected.items():
                store.delete_provenance_rows(self.mappings[name], rows)
        return result

    def _collected_provenance_rows(
        self, dead_derivations: "set"
    ) -> dict[str, set[tuple]]:
        """P_m rows to garbage-collect, per mapping: the projections of
        dead derivations not kept alive by a surviving firing (distinct
        firings may share a P_m row when they agree on every key
        variable)."""
        from repro.storage.provrel import binding_of

        dead_by_mapping: dict[str, list] = {}
        for deriv in dead_derivations:
            dead_by_mapping.setdefault(deriv.mapping, []).append(deriv)
        tracked = {
            name: mapping
            for name in dead_by_mapping
            if (mapping := self.mappings.get(name)) is not None
            and not mapping.is_superfluous
            and mapping.provenance_columns
        }
        dead_keys = {
            name: {
                mapping.derivation_key(binding_of(mapping, d))
                for d in dead_by_mapping[name]
            }
            for name, mapping in tracked.items()
        }
        # One pass over the graph retracts every key a surviving firing
        # still supports (distinct firings share a key when they agree
        # on all key variables).
        for deriv in self.graph.derivations:
            mapping = tracked.get(deriv.mapping)
            if mapping is None or deriv in dead_derivations:
                continue
            keys = dead_keys[deriv.mapping]
            if keys:
                keys.discard(
                    mapping.derivation_key(binding_of(mapping, deriv))
                )
        return {name: keys for name, keys in dead_keys.items() if keys}

    def _propagate_deletions_resident(self) -> EvaluationResult:
        """Store-path propagation over the reachability index."""
        from repro.exchange.sql_executor import SQLiteExchangeEngine

        store = self._open_resident_store("deletion propagation")
        program = self._fetch_program()
        return SQLiteExchangeEngine(
            store, tracer=self.tracer
        ).propagate_deletions(
            program, self.catalog, self.mappings, self.instance
        )

    def _open_resident_store(self, operation: str) -> "ExchangeStore":
        """The pinned resident store, required open: it holds the only
        copy of the derived instance this operation must consult."""
        store = self.exchange_store
        if store is None or store.closed:
            raise ExchangeError(
                f"{operation} needs the resident store (it holds the "
                "only copy of the derived relations), but the store is "
                "closed; reopen it via exchange(storage=<path>, "
                "resident=True)"
            )
        return store

    # -- queries over the graph ---------------------------------------------------

    def _store_graph_queries(self, operation: str) -> "StoreGraphQueries":
        """The relational query engine over the pinned resident store
        (every graph query dispatches here under ``resident=True``)."""
        from repro.exchange.graph_queries import StoreGraphQueries

        store = self._open_resident_store(operation)
        program = self._fetch_program()
        return StoreGraphQueries(
            store, program, self.catalog, self.mappings, tracer=self.tracer
        )

    def _run_graph_query(
        self,
        query: str,
        operation: str,
        resident_call: "Callable[[StoreGraphQueries], tuple[object, EvaluationResult]]",
        memory_call: "Callable[[], object]",
    ) -> object:
        """One graph query, either substrate — the shared tail of
        :meth:`derivability`/:meth:`lineage`/:meth:`trusted`.

        Dispatches to the resident store engine or the in-memory graph,
        wraps the call in a ``graph_query`` span, stamps the per-call
        duration on the stats, records them into :attr:`metrics`, and
        publishes :attr:`last_graph_query`.
        """
        started = time.perf_counter()
        with self.tracer.span("graph_query") as span:
            span.set("query", query)
            if self._resident:
                value, stats = resident_call(
                    self._store_graph_queries(operation)
                )
            else:
                stats = EvaluationResult(
                    self.instance, self.graph, engine="memory"
                )
                # Published before the call so a raising query (e.g.
                # lineage of an underived node) still reports its
                # engine, as the pre-helper code did.
                self.last_graph_query = stats
                value = memory_call()
            span.set("engine", stats.engine)
        stats.wall_seconds = time.perf_counter() - started
        self._record_result("graph_query", stats)
        self.last_graph_query = stats
        return value

    def derivability(self) -> dict[TupleNode, bool]:
        """Derivability annotation of every tuple (Q5).

        **Resident mode**: answered relationally — the store's
        maintained reachability index is annotated by its integer
        liveness fixpoint (the kernel :meth:`propagate_deletions` runs
        inside the dead cone), with every stored tuple's verdict read
        off its membership in the live set; no :class:`ProvenanceGraph`
        is materialized.  Repeat calls answer from a cached verdict
        (``index_hit == 1`` on the stats); a stale index is rebuilt
        once at query time (``index_miss == 1``), after which it stays
        current until the next mutation.  A program with a mapping
        into a local-contribution relation raises
        :class:`~repro.errors.ExchangeError` here.  Non-resident systems
        annotate the in-memory graph.  Both engines answer over the
        state of the last exchange/propagation.
        """
        return self._run_graph_query(  # type: ignore[return-value]
            "derivability",
            "derivability annotation",
            lambda queries: queries.derivability(),
            lambda: annotate(self.graph, get_semiring("DERIVABILITY")),
        )

    def lineage(self, node: TupleNode) -> frozenset:
        """Set of local base tuples *node* derives from (Q6).

        **Resident mode**: answered relationally — an ancestor-closure
        probe over the store's maintained reachability index
        (:meth:`repro.exchange.graph_queries.StoreGraphQueries.lineage`):
        an interval containment test when the DAG is tree-shaped, one
        recursive CTE otherwise; no :class:`ProvenanceGraph` is
        materialized.  A current index answers with ``index_hit == 1``
        on the stats; a stale index is rebuilt once at query time
        first (``index_miss == 1``).  Non-resident
        systems annotate *node*'s ancestor closure of the in-memory
        graph in the LINEAGE semiring.  Both raise :class:`KeyError`
        for a node the last exchange never derived.
        """
        from repro.provenance.annotate import lineage_of

        return self._run_graph_query(  # type: ignore[return-value]
            "lineage",
            "lineage",
            lambda queries: queries.lineage(node),
            lambda: lineage_of(self.graph, node),
        )

    def _validate_trust_policy(self, policy: TrustPolicy) -> None:
        """Reference check shared with the static analyzer's trust
        lint: a policy naming an unknown relation or mapping would be
        silently ignored at annotation time — fail loudly instead, with
        the same :class:`SchemaError` message shape as
        :meth:`insert_local`/:meth:`add_mapping`."""
        for relation in policy.leaf_conditions:
            if relation not in self.catalog:
                raise SchemaError(
                    f"trust policy: unknown relation {relation}"
                )
        known = set(self.mappings) | {r.name for r in self.local_rules()}
        for mapping in policy.distrusted_mappings:
            if mapping not in known:
                raise SchemaError(f"trust policy: unknown mapping {mapping}")

    def trusted(self, policy: TrustPolicy) -> dict[TupleNode, bool]:
        """Trust annotation of every tuple under *policy* (Q7).

        **Resident mode**: answered relationally — the policy is
        pushed into the liveness fixpoint semiring-style (leaf
        conditions select which local rows seed the live set,
        distrusted mappings are excluded from the firing joins), so
        trust never materializes a :class:`ProvenanceGraph` either.
        With a current maintained reachability index the fixpoint runs
        over the index tables, and repeat calls under the same policy
        answer from a cached verdict (``index_hit == 1`` on the
        stats); a stale index is rebuilt once at query time
        (``index_miss == 1``).  Non-resident systems annotate the
        in-memory graph in the TRUST semiring.
        """
        if isinstance(policy, TrustPolicy):
            self._validate_trust_policy(policy)
        return self._run_graph_query(  # type: ignore[return-value]
            "trusted",
            "trust annotation",
            lambda queries: queries.trusted(policy),
            lambda: annotate(
                self.graph,
                get_semiring("TRUST"),
                leaf_assignment=policy.leaf_assignment(),
                mapping_functions=policy.mapping_functions(),
            ),
        )

    # -- concurrent serving ------------------------------------------------

    def _serving_path(self, operation: str) -> str:
        """The on-disk path read-only serving connections attach to."""
        if not self._resident:
            raise ExchangeError(
                f"{operation} needs a store-resident system "
                "(exchange(resident=True) on an on-disk path); a "
                "mirrored store may be rebuilt mid-query and is not "
                "safe to serve from"
            )
        store = self.exchange_store
        if store is None or store.path == ":memory:":
            raise ExchangeError(
                f"{operation} needs an on-disk resident store; an "
                "in-memory store is private to the writer's connection"
            )
        return store.path

    def serving_session(self) -> "ReaderSession":
        """A read-only query session over the resident store's file.

        The session opens its own ``mode=ro`` WAL connection to the
        store path and answers :meth:`lineage` / :meth:`derivability` /
        :meth:`trusted` from the persisted reachability index at the
        epoch its snapshot observes — concurrently with this system's
        writer connection, which keeps exchanging and propagating
        deletions undisturbed (see docs/serving.md).  The session
        shares this system's :attr:`metrics` registry and tracer; for
        many concurrent clients use :meth:`serve`, which hands out one
        session per worker instead.  Requires a completed
        ``exchange(resident=True)`` on an on-disk path; close the
        session when done (it is a context manager).
        """
        from repro.serve import ReaderSession

        path = self._serving_path("serving_session")
        return ReaderSession(
            path, self.catalog, metrics=self.metrics, tracer=self.tracer
        )

    def serve(self, readers: int = 4) -> "StoreServer":
        """A started :class:`~repro.serve.StoreServer` over this store.

        Builds a :class:`~repro.serve.ReaderPool` of *readers*
        read-only sessions against the resident store's path and
        returns the server handle, already started: submit queries
        from any thread and receive futures; the single writer (this
        system) keeps running exchanges concurrently.  The caller owns
        the handle — close it (or use it as a context manager) to
        drain in-flight queries and release the connections.  Pool
        counters land in this system's :attr:`metrics` registry
        (approximate under concurrency; see ``serve.*`` in
        docs/serving.md).
        """
        from repro.serve import ReaderPool, StoreServer

        path = self._serving_path("serve")
        pool = ReaderPool(
            path, self.catalog, size=readers, metrics=self.metrics
        )
        server = StoreServer(pool)
        server.start()
        return server

    # -- ProQL ------------------------------------------------------------

    @property
    def unfold_cache(self) -> "UnfoldCache":
        """Memoized unfolded ProQL programs (created on first use).

        Shared by every :class:`~repro.proql.sql_engine.SQLEngine` over
        this system, keyed per (query fingerprint, order-normalized
        mapping fingerprint, data-bearing relations) the same way
        :attr:`plan_cache` keys compiled exchange plans; invalidated
        whenever the mapping program can change.  Hit/miss totals also
        land in :attr:`metrics` as ``unfold.cache_hits`` /
        ``unfold.cache_misses``.
        """
        cache = self._unfold_cache
        if cache is None:
            from repro.proql.pruning import UnfoldCache

            cache = self._unfold_cache = UnfoldCache()
        return cache

    def query(
        self,
        query: str,
        engine: str = "memory",
        storage: "object | None" = None,
        validate: str = "off",
    ) -> "ProQLResult":
        """Run one ProQL query over the exchanged instance.

        ``engine="memory"`` evaluates against the in-memory provenance
        graph; ``engine="sqlite"`` runs the SQL pipeline (unfold +
        joins) over *storage* — an already-loaded
        :class:`~repro.storage.sqlite_backend.SQLiteStorage` — or over
        a temporary one mirrored from this system when omitted.

        ``validate`` pre-flights the query through the static analyzer
        (:func:`repro.analysis.analyze_query`): ``"warn"`` reports
        RA5xx findings as a warning, ``"error"`` raises
        :class:`~repro.errors.AnalysisError` on errors (e.g. RA502
        unsatisfiable condition); the report lands in
        :attr:`last_validation` either way.  Store-resident systems
        must query through the resident graph-query API instead.
        """
        if validate != "off":
            if validate not in ("warn", "error"):
                raise ExchangeError(
                    f"unknown validate mode {validate!r}; "
                    'expected "off", "warn", or "error"'
                )
            from repro.analysis import analyze_query

            report = analyze_query(self, query)
            self.last_validation = report
            if validate == "error":
                report.raise_for_errors()
            elif report.diagnostics:
                warnings.warn(
                    f"query pre-flight:\n{report}", stacklevel=2
                )
        if self._resident:
            raise ExchangeError(
                "ProQL queries need the materialized instance/graph, "
                "which a store-resident system does not keep in "
                "Python; use the resident graph-query API "
                "(lineage/derivability/trusted) instead"
            )
        if engine == "memory":
            from repro.proql.graph_engine import GraphEngine

            return GraphEngine(self.graph, self.catalog).run(query)
        if engine != "sqlite":
            raise ExchangeError(
                f"unknown query engine {engine!r}; "
                'expected "memory" or "sqlite"'
            )
        from repro.proql.sql_engine import SQLEngine
        from repro.storage.sqlite_backend import SQLiteStorage

        owned = storage is None
        if owned:
            storage = SQLiteStorage(self)
            storage.load()
        assert isinstance(storage, SQLiteStorage)
        try:
            return SQLEngine(storage).run(query)
        finally:
            if owned:
                storage.close()

    # -- stats ------------------------------------------------------------

    def instance_size(self, public_only: bool = True) -> int:
        """Total number of materialized tuples.

        In store-resident mode derived relations live only in the
        exchange store, so their rows are counted there — from the
        store's maintained count cache, never a COUNT(*) rescan —
        while local contributions still count from the Python
        instance, which may run ahead of the store by the pending
        batch.  With the resident store closed there is nothing
        truthful to report (the Python side is deliberately empty), so
        the call fails loudly rather than answering ~0.
        """
        store = self.exchange_store
        if self._resident and (store is None or store.closed):
            raise ExchangeError(
                "instance_size needs the resident store (it holds the "
                "only copy of the derived relations), but the store is "
                "closed; reopen it via exchange(storage=<path>, "
                "resident=True)"
            )
        count_from_store = self._resident
        total = 0
        for relation in self.catalog.names():
            if public_only and is_local_name(relation):
                continue
            if (
                count_from_store
                and not is_local_name(relation)
                and store.has_table(relation)
            ):
                total += store.cached_count(relation)
            else:
                total += self.instance.size(relation)
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        try:
            size: object = self.instance_size()
        except ExchangeError:
            # Resident store closed: a diagnostic aid must not raise.
            size = "?"
        return (
            f"<CDSS peers={len(self.peers)} mappings={len(self.mappings)} "
            f"tuples={size}>"
        )
