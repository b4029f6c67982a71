"""Store-side provenance-graph queries over the reachability index.

The paper's central storage claim (Section 4.1) is that the provenance
graph need not exist as a graph at all: the ``P_m`` firing history *is*
the graph, stored relationally, and the graph-shaped use cases can be
answered by recursive SQL over it.  This module answers the three
:class:`~repro.cdss.system.CDSS` graph queries of a resident store in
SQL — no :class:`~repro.provenance.graph.ProvenanceGraph` is ever
materialized — over the store's maintained reachability index
(:mod:`repro.exchange.reach_index`), the integer copy of the firing
hypergraph that the index lowering derives from the stored relations:

* **derivability** (Q5) — the index's integer liveness kernel
  (:func:`run_liveness_fixpoint`): every stored local-contribution row
  seeds the live set and each round promotes the fires whose body ids
  are all live.  It is the least fixpoint of the DERIVABILITY
  semiring, so cyclically self-supporting derivations annotate
  ``False`` exactly as under the graph engine's Kleene iteration;
* **trust** (Q7) — the same kernel with the trust policy pushed
  *into* it, semiring-style: leaf conditions filter which
  local-contribution rows seed the live set (the TRUST semiring's leaf
  assignment), and distrusted mappings' fires never promote (the
  paper's ``Dm`` function annotates every firing of the mapping
  ``false``);
* **lineage** (Q6) — the ancestor closure of the query row over the
  integer edge set (an interval predicate when the provenance DAG is a
  forest, one recursive CTE otherwise); the answer is the closure's
  intersection with the local-contribution relations, i.e. the leaf
  set of the LINEAGE semiring annotation.

This is the Gottlob–Orsi–Pieris move of rewriting a graph query into
plain SQL over one schema: the index lowering re-enumerates the stored
firings through the rule bodies once, and every query after that is an
integer join.  A stale or absent index is rebuilt from the stored rows
before it answers.

**Consistency window.**  The store answers as of the last
``exchange``/``propagate_deletions``: local insertions not yet
exchanged are invisible (exactly like the graph engine, whose graph
also only grows at exchange time).  Local *deletions* differ during
the in-between state: resident ``delete_local`` removes the victim row
from the store immediately, so queries issued before
``propagate_deletions`` already exclude it, while the graph engine
keeps the leaf node until propagation runs.  After propagation the two
engines agree node-for-node again (property-tested).  Inside such an
open window the test oracle is :func:`rebuilt_index_queries` — the
same queries over a copy of the store whose index is rebuilt from the
stored rows — and the memory engine everywhere else.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Mapping as TMapping

from repro.cdss.mapping import SchemaMapping
from repro.datalog.evaluation import EvaluationResult
from repro.errors import ExchangeError
from repro.exchange.cache import CompiledExchangeProgram
from repro.exchange.sql_plans import lower_program
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.provenance.graph import ProvenanceGraph, TupleNode
from repro.relational.instance import Catalog, Instance
from repro.storage.encoding import quote_identifier as _q

#: seed spec: this relation contributes no seed rows at all (e.g. its
#: leaves default to distrusted).
SEED_NOTHING = object()

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cdss.trust import TrustPolicy
    from repro.exchange.reach_index import ReachabilityIndex, ReachSQL
    from repro.exchange.sql_executor import ExchangeStore


def run_liveness_fixpoint(
    index: "ReachabilityIndex",
    rsql: "ReachSQL",
    catalog: Catalog,
    seeds: dict[str, object],
    distrusted: "frozenset[str]",
    max_iterations: int | None = None,
) -> tuple[int, int, dict[TupleNode, bool]]:
    """The derivability/trust kernel: the index's integer liveness
    fixpoint, seeded from the leaf relations, with every stored row's
    verdict read through the per-epoch node cache.

    ``seeds`` maps a leaf relation to its seed spec: absent seeds the
    full stored extension in SQL, :data:`SEED_NOTHING` seeds none, and
    a callable is a predicate over *decoded* rows.  ``distrusted``
    names the rules whose fires never promote.

    Returns ``(iterations, live_fires, verdicts)``.
    """
    store = index.store
    conn = store.connection

    def seed_relation(relation: str, base: int) -> int:
        spec = seeds.get(relation)
        if spec is SEED_NOTHING:
            return 0
        if spec is None:
            for table in ("__rq_live", "__rq_delta"):
                conn.execute(
                    f'INSERT INTO "{table}" '
                    f"SELECT rowid + ? FROM {_q(relation)}",
                    (base,),
                )
            return store.cached_count(relation)
        ids = [
            (node_id,)
            for node_id, node in index.nodes_with_ids(relation, catalog)
            if spec(node.values)  # type: ignore[operator]
        ]
        for table in ("__rq_live", "__rq_delta"):
            conn.executemany(
                f'INSERT OR IGNORE INTO "{table}" VALUES (?)', ids
            )
        return len(ids)

    def seed() -> int:
        return sum(
            seed_relation(relation, base)
            for relation in rsql.edb_relations
            if (base := index.id_base(relation)) is not None
        )

    try:
        iterations, scanned = index.annotate_fixpoint(
            seed, distrusted, max_iterations
        )
        values: dict[TupleNode, bool] = {}
        for relation in rsql.relations:
            live = index.live_ids(relation)
            for node_id, node in index.nodes_with_ids(relation, catalog):
                values[node] = node_id in live
    finally:
        index.reset_temp_state()
    return iterations, scanned, values


class StoreGraphQueries:
    """Answers the CDSS graph queries over a (resident) exchange store.

    One instance is built per query from the compiled program cache
    entry; the lowered SQL (``program.sql`` / ``program.reach``) is
    attached to that entry, so repeated queries over an unchanged
    program lower nothing.

    Queries answer from the store's maintained reachability index: a
    current index is used directly (``index_hit``), a stale or absent
    one is rebuilt first under an ``index.rebuild`` span
    (``index_miss``).
    """

    def __init__(
        self,
        store: "ExchangeStore",
        program: CompiledExchangeProgram,
        catalog: Catalog,
        mappings: TMapping[str, SchemaMapping],
        tracer: "Tracer | NullTracer" = NULL_TRACER,
    ):
        if store.closed:
            raise ExchangeError("exchange store is closed")
        self.store = store
        self.program = program
        self.catalog = catalog
        self.mappings = mappings
        #: lifecycle tracer (:mod:`repro.obs`): an index rebuild emits
        #: its ``index.rebuild`` span through it.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if program.sql is None:
            program.sql = lower_program(
                program.compiled, catalog, mappings, store.codec
            )
        # Peers/mappings may have been added since the last exchange;
        # their (empty) tables must exist before the index joins them —
        # the same idempotent guarantee propagate_deletions relies on.
        store.ensure_schema(catalog, mappings, program.sql, program.fingerprint)

    # -- shared plumbing ----------------------------------------------------

    def _result(
        self, iterations: int, scanned: int, hit: int = 0, miss: int = 0
    ) -> EvaluationResult:
        result = EvaluationResult(
            Instance(self.catalog), ProvenanceGraph(), engine="sqlite"
        )
        result.iterations = iterations
        result.pm_rows_scanned = scanned
        result.index_hit = hit
        result.index_miss = miss
        return result

    def _ready_index(self):
        """The (index, lowering, miss-flag) triple of a query,
        rebuilding a stale/absent index first."""
        from repro.exchange.reach_index import lower_reach_program

        program = self.program
        if program.reach is None:
            program.reach = lower_reach_program(
                program.compiled, self.catalog, self.store.codec,
                self.mappings,
            )
        rsql = program.reach
        rsql.check_local_leaves()
        index = self.store.reach_index
        index.ensure_schema(rsql)
        miss = 0
        if not index.current:
            index.rebuild(rsql, self.tracer)
            miss = 1
        return index, rsql, miss

    # -- the three queries --------------------------------------------------

    def derivability(
        self, max_iterations: int | None = None
    ) -> tuple[dict[TupleNode, bool], EvaluationResult]:
        """Derivability annotation of every stored tuple (Q5).

        Leaves follow the graph engine's default assignment (every
        stored local-contribution row is derivable), so the answer is
        the DERIVABILITY-semiring annotation of the firing history as
        it stands — on a consistent store every tuple annotates
        ``True``, and after un-propagated deletions the verdicts
        reflect the already-shrunk leaf tables.
        """
        index, rsql, miss = self._ready_index()
        key = ("derivability",)
        cached = index.cached_result(key)
        if cached is not None:
            values, iterations, scanned = cached
            return dict(values), self._result(iterations, scanned, hit=1)
        iterations, scanned, values = run_liveness_fixpoint(
            index, rsql, self.catalog, {}, frozenset(), max_iterations
        )
        index.cache_result(key, values, iterations, scanned)
        return dict(values), self._result(
            iterations, scanned, hit=0 if miss else 1, miss=miss
        )

    def trusted(
        self, policy: "TrustPolicy", max_iterations: int | None = None
    ) -> tuple[dict[TupleNode, bool], EvaluationResult]:
        """Trust annotation of every stored tuple under *policy* (Q7).

        The policy is pushed into the fixpoint rather than applied to
        an annotated graph: leaf conditions select the seed rows
        (decoding only the relations that actually carry a condition)
        and distrusted mappings' fires never promote.
        """
        index, rsql, miss = self._ready_index()
        seeds: dict[str, object] = {}
        conditions = []
        for relation in rsql.edb_relations:
            condition = policy.condition_for(relation)
            if condition is None:
                if not policy.default_trust:
                    seeds[relation] = SEED_NOTHING
                continue
            seeds[relation] = condition
            conditions.append((relation, condition))
        distrusted = frozenset(policy.distrusted_mappings)
        # Conditions key by object identity, and the cache entry holds
        # strong references to them (below) so a collected callable's
        # id cannot alias a new one.  Conditions are assumed pure — a
        # closure over mutated state must not be reused across calls
        # anyway.
        key = (
            "trusted",
            policy.default_trust,
            distrusted,
            tuple(sorted((rel, id(cond)) for rel, cond in conditions)),
        )
        cached = index.cached_result(key)
        if cached is not None:
            values, iterations, scanned, _refs = cached
            return dict(values), self._result(iterations, scanned, hit=1)
        iterations, scanned, values = run_liveness_fixpoint(
            index, rsql, self.catalog, seeds, distrusted, max_iterations
        )
        index.cache_result(
            key, values, iterations, scanned,
            tuple(cond for _rel, cond in conditions),
        )
        return dict(values), self._result(
            iterations, scanned, hit=0 if miss else 1, miss=miss
        )

    def lineage(
        self, node: TupleNode
    ) -> tuple[frozenset[TupleNode], EvaluationResult]:
        """Set of local base tuples *node* derives from (Q6).

        Resolves the query row to its node id, fills the ancestor
        closure (interval predicate or one recursive CTE), and decodes
        the leaf-relation slice of the closure.  Raises :class:`KeyError`
        when *node* is not a stored tuple, matching the graph engine's
        behavior on a node absent from the graph.
        """
        if node.relation not in self.catalog:
            raise KeyError(node)
        index, rsql, miss = self._ready_index()
        if node.relation not in rsql.relations:
            raise KeyError(node)
        store = self.store
        schema = self.catalog[node.relation]
        encoded = store.codec.encode_row(tuple(node.values))
        condition = " AND ".join(
            f"{_q(c)} IS ?" for c in schema.attribute_names
        )
        found = store.connection.execute(
            store.prepared(
                ("rowid", node.relation),
                lambda: (
                    f"SELECT rowid FROM {_q(node.relation)} "
                    f"WHERE {condition}"
                ),
            ),
            encoded,
        ).fetchone()
        if found is None:
            raise KeyError(node)
        key = ("lineage", node.relation, tuple(node.values))
        cached = index.cached_result(key)
        if cached is not None:
            leaves, iterations, scanned = cached
            return leaves, self._result(iterations, scanned, hit=1)
        qid = index.id_base(node.relation) + int(found[0])
        try:
            index.fill_ancestors(qid)
            scanned = index.closure_scanned()
            leaves = frozenset(
                TupleNode(relation, row)
                for relation in rsql.edb_relations
                for row in index.closure_leaf_rows(relation, self.catalog)
            )
        finally:
            index.reset_temp_state()
        index.cache_result(key, leaves, 1, scanned)
        return leaves, self._result(
            1, scanned, hit=0 if miss else 1, miss=miss
        )


@contextmanager
def rebuilt_index_queries(
    store: "ExchangeStore",
    program: CompiledExchangeProgram,
    catalog: Catalog,
    mappings: TMapping[str, SchemaMapping],
) -> Iterator[StoreGraphQueries]:
    """:class:`StoreGraphQueries` over a throwaway copy of *store*
    whose reachability index is rebuilt from the stored rows.

    The copy (``sqlite3.Connection.backup`` into a temporary file)
    shares nothing with *store*'s maintained index, so its answers are
    the oracle for the maintained index's answers at any point of a
    lifecycle — in particular inside the windows where the memory
    engine legitimately differs (un-propagated deletes, un-exchanged
    inserts).  *store* is only read.
    """
    from repro.exchange.sql_executor import ExchangeStore

    with tempfile.TemporaryDirectory(prefix="repro-oracle-") as tmp:
        copy = ExchangeStore(os.path.join(tmp, "store.db"))
        try:
            store.connection.backup(copy.connection)
            copy.reach_index.mark_stale()
            yield StoreGraphQueries(copy, program, catalog, mappings)
        finally:
            copy.close()
