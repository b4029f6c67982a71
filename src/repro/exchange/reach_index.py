"""The maintained reachability index over the stored provenance graph.

Every store-side graph query (:mod:`repro.exchange.graph_queries`)
and resident deletion propagation runs over this index: a compact,
integer-keyed copy of the firing hypergraph that is kept current
across ``exchange``/``propagate_deletions`` and answered from
directly, instead of re-joining wide slot rows through the rule
bodies on every call.

Design (documented in full in ``docs/graph-index.md``):

* every stored tuple gets a stable integer **node id**
  ``relno * REL_SHIFT + rowid`` (``relno`` is a small per-relation
  number persisted in ``__ridx_rel``; ``rowid`` is the row's SQLite
  rowid in its relation table);
* every recorded firing becomes one ``__ridx_fire`` row
  ``(fid, rule, head)`` plus one ``__ridx_body`` row per distinct body
  tuple — the hypergraph edge set, one integer row per endpoint
  instead of one wide slot-row join per traversal step;
* **maintenance** is incremental: after a resident exchange the fresh
  ``__fired_*`` log rows are translated into new fire/body rows
  (:meth:`ReachabilityIndex.extend_from_log`); a targeted deletion
  removes exactly the incident fires and records their heads as
  *suspects* (``__ridx_suspect``);
* **deletion propagation** runs here too: the liveness kernel runs
  only inside the suspects' downward *cone*, the dead rows and their
  ``P_m`` bindings are killed by id, and the dead fires are pruned —
  falling back to a stale-mark (and a later rebuild) when the cone
  exceeds :data:`PRUNE_FALLBACK_RATIO` of the index;
* the index **epoch** and state live in the store's ``__meta`` table,
  so a store reopened by path knows whether its index is current;
* a per-epoch **interval encoding** (``__ridx_info``: pre/post-order
  windows + topological layer, XPath-accelerator style) turns the
  ancestor test into a range predicate whenever the provenance DAG is
  a forest (every tuple derived by at most one single-body firing);
  general DAGs use a recursive-CTE closure over the integer edge
  set.

Queries over the index run as integer fixpoints/lookups in
:class:`ReachabilityIndex` and are wired into
:class:`~repro.exchange.graph_queries.StoreGraphQueries`.  A stale or
absent index is rebuilt from the stored rows before it answers; a
rebuild over a copy of the store is also the open-window test oracle
(:func:`~repro.exchange.graph_queries.rebuilt_index_queries`).
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from repro.cdss.mapping import SchemaMapping, provenance_relation_name
from repro.datalog.planner import K_SLOT, CompiledRule, _assign_slots, _compile_term
from repro.errors import EvaluationError, ExchangeError
from repro.exchange.sql_plans import (
    _ParamAllocator,
    _extractor_sql,
    _plan_firing_sql,
    _slot_types,
    Statement,
    fired_table,
)
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.relational.instance import Catalog
from repro.relational.schema import is_local_name
from repro.storage.encoding import ValueCodec, quote_identifier as _q

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exchange.sql_executor import ExchangeStore

#: node-id stride between relations: id = relno * REL_SHIFT + rowid.
#: 2^40 rowids per relation — far beyond any resident working set —
#: while products stay well inside SQLite's signed 64-bit integers.
REL_SHIFT = 1 << 40

#: deletion-propagation fallback: when more than 1/PRUNE_FALLBACK_RATIO
#: of all stored tuples died, targeted pruning would touch most of the
#: index anyway — mark it stale and let the next query rebuild.
PRUNE_FALLBACK_RATIO = 4

#: interval encodings are skipped above this edge count (the DFS is
#: a Python-side pass; the CTE path stays available regardless).
ENCODING_CAP = 2_000_000

#: per-relation cap on the decoded-node cache (ids + TupleNodes).
NODE_CACHE_CAP = 200_000

#: entries kept in the per-epoch query-result cache (FIFO).
RESULT_CACHE_CAP = 64

#: permanent index tables.
REL_TABLE = "__ridx_rel"
FIRE_TABLE = "__ridx_fire"
BODY_TABLE = "__ridx_body"
INFO_TABLE = "__ridx_info"
#: heads (and rules) of the fires removed by victim deletions since the
#: last propagation — persisted, so the set survives a crash.
SUSPECT_TABLE = "__ridx_suspect"

#: the permanent tables and their indexes.
_SCHEMA_DDL = (
    f"CREATE TABLE IF NOT EXISTS {_q(REL_TABLE)} "
    "(name TEXT PRIMARY KEY, relno INTEGER NOT NULL)",
    f"CREATE TABLE IF NOT EXISTS {_q(FIRE_TABLE)} "
    "(fid INTEGER PRIMARY KEY, rule TEXT NOT NULL, head INTEGER NOT NULL)",
    f"CREATE INDEX IF NOT EXISTS {_q('__ix_' + FIRE_TABLE + '_head')} "
    f"ON {_q(FIRE_TABLE)} (head)",
    f"CREATE TABLE IF NOT EXISTS {_q(BODY_TABLE)} (fid INTEGER NOT NULL, "
    "body INTEGER NOT NULL, PRIMARY KEY (fid, body)) WITHOUT ROWID",
    f"CREATE INDEX IF NOT EXISTS {_q('__ix_' + BODY_TABLE + '_body')} "
    f"ON {_q(BODY_TABLE)} (body)",
    f"CREATE TABLE IF NOT EXISTS {_q(INFO_TABLE)} (id INTEGER PRIMARY KEY, "
    "layer INTEGER NOT NULL, tin INTEGER NOT NULL, tout INTEGER NOT NULL)",
    f"CREATE INDEX IF NOT EXISTS {_q('__ix_' + INFO_TABLE + '_tin')} "
    f"ON {_q(INFO_TABLE)} (tin)",
    f"CREATE TABLE IF NOT EXISTS {_q(SUSPECT_TABLE)} (id INTEGER NOT NULL, "
    "rule TEXT NOT NULL, PRIMARY KEY (id, rule)) WITHOUT ROWID",
)

#: TEMP work tables (connection-local, cleared between uses).
_ID_TEMPS = (
    "__rq_live", "__rq_delta", "__rq_new", "__rq_anc", "__rq_dead",
    "__rq_cone",
)


# -- read-path substrate -----------------------------------------------------
#
# Pure-SELECT shapes over the permanent index tables, shared between the
# writer-side :class:`ReachabilityIndex` and the read-only sessions in
# :mod:`repro.serve`.  Read-only (``mode=ro``) connections cannot create
# the TEMP work tables above, so everything here must run as plain
# SELECTs on an arbitrary connection.

#: ancestor-or-self closure of one node as a recursive CTE.
ANCESTOR_CTE_SQL = (
    "WITH RECURSIVE anc(id) AS (VALUES(?) UNION "
    f"SELECT b.body FROM {_q(FIRE_TABLE)} AS f "
    f"JOIN {_q(BODY_TABLE)} AS b ON b.fid = f.fid "
    "JOIN anc AS a ON f.head = a.id) "
    "SELECT id FROM anc"
)

#: ``tin`` probe for one node in the interval encoding.
INTERVAL_PROBE_SQL = f"SELECT tin FROM {_q(INFO_TABLE)} WHERE id = ?"

#: the rule of any stored fire whose head lies in a node-id range.
HEAD_RANGE_PROBE_SQL = (
    f"SELECT rule FROM {_q(FIRE_TABLE)} WHERE head >= ? AND head < ? LIMIT 1"
)

#: ancestor-or-self window of a probe time in a tree-exact encoding.
INTERVAL_WINDOW_SQL = (
    f"SELECT id FROM {_q(INFO_TABLE)} WHERE tin <= ? AND tout >= ?"
)


def load_relnos(connection: sqlite3.Connection) -> dict[str, int]:
    """Relation-name -> relno map from ``__ridx_rel`` on any connection."""
    return {
        str(name): int(relno)
        for name, relno in connection.execute(
            f"SELECT name, relno FROM {_q(REL_TABLE)}"
        )
    }


def load_edges(
    connection: sqlite3.Connection,
) -> tuple[dict[int, tuple[str, int]], dict[int, tuple[int, ...]]]:
    """The full integer edge set from any connection.

    Returns ``(fires, bodies)`` where ``fires[fid] = (rule, head_id)``
    and ``bodies[fid]`` is the tuple of body node ids.  This is the
    read-only counterpart of the TEMP-table fixpoint machinery: small
    enough to hold in Python for resident working sets, and usable on
    ``mode=ro`` connections that cannot write TEMP tables.
    """
    fires: dict[int, tuple[str, int]] = {}
    for fid, rule, head in connection.execute(
        f"SELECT fid, rule, head FROM {_q(FIRE_TABLE)}"
    ):
        fires[int(fid)] = (str(rule), int(head))
    grouped: dict[int, list[int]] = {}
    for fid, body in connection.execute(
        f"SELECT fid, body FROM {_q(BODY_TABLE)}"
    ):
        grouped.setdefault(int(fid), []).append(int(body))
    bodies = {fid: tuple(ids) for fid, ids in grouped.items()}
    return fires, bodies


def liveness_over_edges(
    fires: dict[int, tuple[str, int]],
    bodies: dict[int, tuple[int, ...]],
    seed_ids: Iterable[int],
    distrusted: Iterable[str] = (),
) -> set[int]:
    """Least liveness fixpoint over an in-memory edge set.

    A node is live iff it is a seed or some fire (whose rule is not
    distrusted) has it as head with every body node live — the same
    semantics as :meth:`ReachabilityIndex.annotate_fixpoint`, computed
    in Python so read-only sessions can run it without TEMP tables.
    """
    skip = set(distrusted)
    incident: dict[int, list[int]] = {}
    need: dict[int, int] = {}
    live = set(seed_ids)
    queue = list(live)
    for fid, (rule, head) in fires.items():
        if rule in skip:
            continue
        body = bodies.get(fid, ())
        if not body:
            # A fire with no recorded body is vacuously supported.
            if head not in live:
                live.add(head)
                queue.append(head)
            continue
        need[fid] = len(body)
        for node in body:
            incident.setdefault(node, []).append(fid)
    while queue:
        node = queue.pop()
        for fid in incident.get(node, ()):
            need[fid] -= 1
            if need[fid] == 0:
                head = fires[fid][1]
                if head not in live:
                    live.add(head)
                    queue.append(head)
    return live


# -- lowering ----------------------------------------------------------------


@dataclass(frozen=True)
class ReachHeadSQL:
    """Index maintenance for one (rule, head atom) pair."""

    relation: str
    #: fresh ``__fired_*`` rows -> ``__ridx_fire`` (runtime: wm, base,
    #: hbase — the head relation's id base).
    fire_insert: Statement
    #: per body atom: (relation, fresh fires -> ``__ridx_body``;
    #: runtime: wm, base, bbase).
    body_inserts: tuple[tuple[str, Statement], ...]


@dataclass(frozen=True)
class ReachRuleSQL:
    """Index maintenance for one rule of the program."""

    rule_name: str
    firing_table: str
    #: re-enumerates the rule's *entire* firing history into its firing
    #: table (index rebuild; seeds from the full stored relation).
    enumerate_all: Statement
    heads: tuple[ReachHeadSQL, ...]


@dataclass(frozen=True)
class PmCollectSQL:
    """Deletion-propagation garbage collection of one mapping's ``P_m``:
    delete the rows no surviving firing projects onto, testing survival
    by joining the rule body over the stored rows outside ``__rq_dead``.
    ``dead`` tests only the bindings of the fires in ``__rq_deadfid``,
    ``whole`` every row.  Runtime ``b0, b1, ...``: the id bases of
    :attr:`relations` (the body atoms' relations, in atom order)."""

    rule_name: str
    relations: tuple[str, ...]
    dead: Statement
    whole: Statement


@dataclass(frozen=True)
class ConeStats:
    """What :meth:`ReachabilityIndex.begin_prune` staged; ``whole``
    says the cone was every stored derived row."""

    whole: bool
    suspects: int
    cone: int
    dead: int
    rounds: int
    #: fires whose head lies in the cone — all the kernel can visit.
    fires_visited: int


@dataclass(frozen=True)
class ReachSQL:
    """SQL lowering of the whole program's index maintenance."""

    rules: tuple[ReachRuleSQL, ...]
    #: every relation whose rows get node ids.
    relations: tuple[str, ...]
    #: the leaf (local-contribution) relations — lineage answers are
    #: the closure's intersection with these.
    edb_relations: tuple[str, ...]
    #: one collector per mapping with a materialized ``P_m``.
    pm_collect: tuple[PmCollectSQL, ...]

    @property
    def derived_relations(self) -> tuple[str, ...]:
        """Head relations: the only ones deletion propagation kills in."""
        return tuple(r for r in self.relations if r not in self.edb_relations)

    def check_local_leaves(self) -> None:
        """Raise :class:`ExchangeError` if a rule derives into a
        local-contribution relation.

        The index seeds liveness from the relations no rule derives
        into, so the stored rows of a derived ``R_l`` would never be
        seeded and every answer built on them would be silently
        wrong.  Resident graph queries, deletion propagation and the
        RA402 lint all reject the program here instead.
        """
        for rule in self.rules:
            for head in rule.heads:
                if is_local_name(head.relation):
                    raise local_head_error(rule.rule_name, head.relation)


def local_head_error(rule: str, relation: str) -> ExchangeError:
    """The refusal for *rule* deriving into the local-contribution
    relation *relation*, shared by :meth:`ReachSQL.check_local_leaves`
    and the serving tier's stored-fire check."""
    return ExchangeError(
        f"rule {rule} derives into the local-contribution relation "
        f"{relation}; resident graph queries and deletion propagation "
        "treat local relations as EDB leaves — rewrite the mapping to "
        "target the public relation"
    )


def _endpoint_insert(
    crule: CompiledRule,
    target: str,
    id_column: str,
    base_param: str,
    relation: str,
    extractors: Sequence[tuple[int, object]],
    slot_types: Sequence[str],
    catalog: Catalog,
    codec: ValueCodec,
    rule_param: str | None = None,
    or_ignore: bool = False,
) -> Statement:
    """Fresh firings -> one endpoint row per firing.

    Joins the firing log against *relation* on the atom's extractor
    expressions (Skolems rebuilt in SQL, so equal labeled nulls match)
    to resolve each firing's endpoint tuple to its rowid, then shifts
    it into the relation's id range.  ``rule_param`` additionally emits
    the fire row's rule-name column (head endpoints only).
    """
    alloc = _ParamAllocator(codec)
    exprs = _extractor_sql(extractors, alloc, slot_types)
    cols = catalog[relation].attribute_names
    on = " AND ".join(
        f'r.{_q(c)} IS {e}' for c, e in zip(cols, exprs)
    ) or "1"
    select = [":base + f.rowid"]
    columns = ["fid"]
    if rule_param is not None:
        select.append(alloc.bind(rule_param))
        columns.append("rule")
    select.append(f"r.rowid + :{base_param}")
    columns.append(id_column)
    verb = "INSERT OR IGNORE" if or_ignore else "INSERT"
    sql = (
        f"{verb} INTO {_q(target)} ({', '.join(columns)})\n"
        f"SELECT {', '.join(select)}\n"
        f"FROM {_q(fired_table(crule.rule.name))} AS f\n"
        f"JOIN {_q(relation)} AS r ON {on}\n"
        f"WHERE f.rowid > :wm"
    )
    return Statement(sql, alloc.params, runtime=("wm", "base", base_param))


def _lower_pm_collect(
    crule: CompiledRule,
    mapping: SchemaMapping,
    catalog: Catalog,
    codec: ValueCodec,
) -> PmCollectSQL:
    """Lower :class:`PmCollectSQL` for one mapping's rule.

    Body atoms join as ``t0, t1, ...``: a slot binds at its first
    occurrence, later occurrences and constants become ``IS``
    conditions (SQL-compilable bodies carry no Skolem terms).  A dead
    fire's bindings re-join each atom to the fire's body ids; a body
    set admitting several atom assignments yields every firing with
    that body — and all of them die together.
    """
    rule = crule.rule
    slot_of = _assign_slots(rule)
    alloc = _ParamAllocator(codec)
    relations = tuple(atom.relation for atom in rule.body)
    slot_src: dict[int, str] = {}
    conditions = [f"f.rule = {alloc.bind(rule.name)}"]
    for index, atom in enumerate(rule.body):
        cols = catalog[atom.relation].attribute_names
        for col, term in zip(cols, atom.terms):
            ref = f"t{index}.{_q(col)}"
            kind, payload = _compile_term(term, slot_of)
            if kind != K_SLOT:
                conditions.append(f"{ref} IS {alloc.bind(payload)}")
            elif payload in slot_src:
                conditions.append(f"{ref} IS {slot_src[payload]}")
            else:
                slot_src[payload] = ref
    keys = [
        (_q(column.name), slot_src[slot_of[column.variable]])
        for column in mapping.provenance_columns
    ]
    table = _q(provenance_relation_name(mapping.name))
    tables = ", ".join(f"{_q(rel)} AS t{i}" for i, rel in enumerate(relations))
    survivor = " AND ".join(
        conditions[1:]
        + [f"{expr} IS {table}.{col}" for col, expr in keys]
        + [
            f't{i}.rowid + :b{i} NOT IN (SELECT id FROM "__rq_dead")'
            for i in range(len(relations))
        ]
    )
    survives = f"EXISTS (SELECT 1 FROM {tables} WHERE {survivor})"
    # CROSS JOIN pins the order: start from the dead fires, never from
    # a scan of the whole body index.
    joins = "".join(
        f"\nCROSS JOIN {_q(BODY_TABLE)} AS b{i} ON b{i}.fid = d.fid"
        f"\nCROSS JOIN {_q(rel)} AS t{i} ON t{i}.rowid = b{i}.body - :b{i}"
        for i, rel in enumerate(relations)
    )
    bindings = (
        "SELECT DISTINCT "
        + ", ".join(f"{expr} AS k{n}" for n, (_c, expr) in enumerate(keys))
        + '\nFROM "__rq_deadfid" AS d\n'
        f"CROSS JOIN {_q(FIRE_TABLE)} AS f ON f.fid = d.fid{joins}\n"
        f"WHERE {' AND '.join(conditions)}"
    )
    match = " AND ".join(
        f"p.{col} IS c.k{n}" for n, (col, _e) in enumerate(keys)
    )
    runtime = tuple(f"b{i}" for i in range(len(relations)))
    dead = (
        f"DELETE FROM {table} WHERE rowid IN (SELECT p.rowid FROM {table} "
        f"AS p JOIN ({bindings}) AS c ON {match})\nAND NOT {survives}"
    )
    whole = f"DELETE FROM {table} WHERE NOT {survives}"
    return PmCollectSQL(
        rule.name,
        relations,
        Statement(dead, alloc.params, runtime),
        Statement(whole, alloc.params, runtime),
    )


def lower_reach_program(
    compiled: Sequence[CompiledRule],
    catalog: Catalog,
    codec: ValueCodec,
    mappings: Mapping[str, SchemaMapping],
) -> ReachSQL:
    """Lower every rule's index-maintenance statements, plus the
    deletion-propagation ``P_m`` collectors.

    Only reachable after :func:`~repro.exchange.sql_plans.lower_program`
    succeeded for the same program, so every rule has at least one plan.
    """
    relations: dict[str, None] = {}
    heads: set[str] = set()
    for crule in compiled:
        for rel in crule.body_relations:
            relations.setdefault(rel, None)
        for rel, _extractors in crule.head:
            relations.setdefault(rel, None)
            heads.add(rel)
    rules = []
    for crule in compiled:
        name = crule.rule.name
        slot_types = _slot_types(crule, catalog)
        slot_of = _assign_slots(crule.rule)
        body_atoms = tuple(
            (
                atom.relation,
                tuple(_compile_term(term, slot_of) for term in atom.terms),
            )
            for atom in crule.rule.body
        )
        head_sqls = []
        for relation, extractors in crule.head:
            fire = _endpoint_insert(
                crule, FIRE_TABLE, "head", "hbase", relation,
                tuple(extractors), slot_types, catalog, codec,
                rule_param=name,
            )
            body_inserts = tuple(
                (
                    body_rel,
                    # OR IGNORE: two body atoms of one rule may match
                    # the same stored row — one hyperedge endpoint.
                    _endpoint_insert(
                        crule, BODY_TABLE, "body", "bbase", body_rel,
                        body_extractors, slot_types, catalog, codec,
                        or_ignore=True,
                    ),
                )
                for body_rel, body_extractors in body_atoms
            )
            head_sqls.append(ReachHeadSQL(relation, fire, body_inserts))
        # Any one plan gives a valid join order for re-enumerating the
        # complete firing history: seeded from the full stored seed
        # relation with no guards, the joins recover every recorded
        # firing (the store holds an exchange fixpoint).
        plan = crule.plans[0]
        alloc = _ParamAllocator(codec)
        enum_sql = _plan_firing_sql(
            crule,
            plan,
            catalog,
            alloc,
            seed_from=plan.seed.relation,
            guards=False,
        )
        rules.append(
            ReachRuleSQL(
                name,
                fired_table(name),
                Statement(enum_sql, alloc.params),
                tuple(head_sqls),
            )
        )
    pm_collect = tuple(
        _lower_pm_collect(crule, mapping, catalog, codec)
        for crule in compiled
        if (mapping := mappings.get(crule.rule.name)) is not None
        and not mapping.is_superfluous
        and mapping.provenance_columns
    )
    return ReachSQL(
        tuple(rules),
        tuple(relations),
        tuple(r for r in relations if r not in heads),
        pm_collect,
    )


# -- the index ---------------------------------------------------------------


class ReachabilityIndex:
    """Maintains and answers the integer reachability index of a store.

    One instance per :class:`~repro.exchange.sql_executor.ExchangeStore`
    (``store.reach_index``).  All persistent state — the fire/body
    tables, relation-number registry, interval encoding, epoch, and
    current/stale flag — lives in the store file, so a store reopened
    by path resumes with a usable (or correctly stale-marked) index.
    """

    def __init__(self, store: "ExchangeStore"):
        self.store = store
        self._relnos: dict[str, int] = {}
        self._schema_ready = False
        self._temps_ready = False
        #: set when the store renumbered rowids under the index (full
        #: relation reload): node ids are invalid even though the run
        #: itself would otherwise have been incremental.
        self._renumbered = False
        #: per-relation decoded nodes [(id, TupleNode)], valid for
        #: :attr:`_node_cache_epoch` only.
        self._node_cache: dict[str, list] = {}
        self._node_cache_epoch = -1
        #: FIFO query-result cache: key -> (epoch, payload...).
        self._result_cache: dict[object, tuple] = {}

    # -- persistent state ----------------------------------------------------

    @property
    def state(self) -> str | None:
        """``'current'``, ``'stale'``, or ``None`` (never built)."""
        value = self.store.meta_get("index_state")
        return str(value) if value is not None else None

    @property
    def epoch(self) -> int:
        """Monotone content version; bumped by every maintenance event
        that may change the index (caches key on it)."""
        value = self.store.meta_get("index_epoch")
        return int(value) if value is not None else 0

    @property
    def current(self) -> bool:
        return self.state == "current" and not self._renumbered

    def mark_stale(self) -> None:
        """Persist that the index no longer matches the store."""
        if self.store.meta_get("index_state") != "stale":
            self.store.meta_set("index_state", "stale")

    def note_content_shipped(self) -> None:
        """Rows were mirrored into the store outside a maintained run
        (e.g. the sync inside a deletion propagation).  New base rows
        carry no firings, so the index structure stays valid — but the
        epoch must bump so cached query results (which enumerate
        stored rows) go cold."""
        if self.state is not None:
            self._bump_epoch()

    def note_renumbered(self, dropped: bool) -> None:
        """A relation table was reloaded in full (rowids renumbered):
        every node id may now point at a different tuple.  Marks the
        index stale; the flag also defeats the incremental path of the
        surrounding run's :meth:`on_run_complete`.  *dropped*: the
        reload replaced stored rows, so rows may have gone without
        recording suspects."""
        if self.state is not None:
            self._renumbered = True
            self.mark_stale()
            if dropped:
                self.note_unmaintained_delete()

    def _bump_epoch(self) -> int:
        epoch = self.epoch + 1
        self.store.meta_set("index_epoch", epoch)
        return epoch

    # -- schema --------------------------------------------------------------

    def ensure_schema(self, rsql: ReachSQL) -> None:
        """Create (idempotently) the permanent index tables and
        register a relation number for every relation of *rsql*."""
        conn = self.store.connection
        self.ensure_tables()
        missing = [r for r in rsql.relations if r not in self._relnos]
        if missing:
            self._load_relnos()
            missing = [r for r in rsql.relations if r not in self._relnos]
        if missing:
            with conn:
                next_no = (
                    max(self._relnos.values()) + 1 if self._relnos else 0
                )
                for name in missing:
                    conn.execute(
                        f"INSERT INTO {_q(REL_TABLE)} (name, relno) "
                        "VALUES (?, ?)",
                        (name, next_no),
                    )
                    self._relnos[name] = next_no
                    next_no += 1

    def ensure_tables(self) -> None:
        """Create (idempotently) the permanent index tables and the
        connection's TEMP work tables — DDL only, no rows written."""
        self._ensure_temps()
        if not self._schema_ready:
            for ddl in _SCHEMA_DDL:
                self.store.connection.execute(ddl)
            self.store.connection.commit()
            self._schema_ready = True

    def _load_relnos(self) -> None:
        self._relnos.update(load_relnos(self.store.connection))

    def _ensure_temps(self) -> None:
        if self._temps_ready:
            return
        conn = self.store.connection
        for name in _ID_TEMPS:
            conn.execute(
                f"CREATE TEMP TABLE IF NOT EXISTS {_q(name)} "
                "(id INTEGER PRIMARY KEY)"
            )
        conn.execute(
            'CREATE TEMP TABLE IF NOT EXISTS "__rq_distrust" '
            "(rule TEXT PRIMARY KEY)"
        )
        conn.execute(
            'CREATE TEMP TABLE IF NOT EXISTS "__rq_deadfid" '
            "(fid INTEGER PRIMARY KEY)"
        )
        self._temps_ready = True

    def relno(self, relation: str) -> int | None:
        """The relation's persistent number, or None if unregistered."""
        if relation not in self._relnos:
            self._load_relnos()
        return self._relnos.get(relation)

    def id_base(self, relation: str) -> int | None:
        relno = self.relno(relation)
        return None if relno is None else relno * REL_SHIFT

    def maintains(self, relation: str) -> bool:
        """True iff the index is current and covers *relation* — i.e.
        a targeted mutation of that relation must (and can) keep the
        index in lockstep."""
        return (
            self.current
            and self.store.has_table(FIRE_TABLE)
            and self.relno(relation) is not None
        )

    # -- maintenance ---------------------------------------------------------

    def on_run_complete(
        self,
        rsql: ReachSQL,
        full_log: bool,
        was_current: bool,
        tracer: "Tracer | NullTracer" = NULL_TRACER,
    ) -> None:
        """Bring the index up to date after a successful resident run.

        *full_log* says the run was seeded from the whole store (its
        ``__fired_*`` logs are the complete firing history — the run
        re-enumerated everything); *was_current* says the index matched
        the store when the run started (so the incremental logs are
        exactly the genuinely new firings).  Chooses, in order: replace
        content from the full log / extend from the incremental log /
        rebuild by re-enumerating the history.  Always bumps the epoch
        and finishes ``'current'``.
        """
        if self._renumbered:
            was_current = False
        with tracer.span("index.maintain") as span:
            if full_log:
                mode = "replace"
                with self.store.connection:
                    self._clear_content()
                    fires = self._extend_from_log(rsql)
            elif was_current:
                mode = "extend"
                with self.store.connection:
                    fires = self._extend_from_log(rsql)
            else:
                mode = "rebuild"
                fires = self.rebuild_from_store(rsql)
            self._finalize_epoch()
            span.set("mode", mode).set("fires", fires)

    def _finalize_epoch(self) -> None:
        self._bump_epoch()
        self.store.meta_set("index_state", "current")
        self._renumbered = False

    def _clear_content(self) -> None:
        conn = self.store.connection
        conn.execute(f"DELETE FROM {_q(FIRE_TABLE)}")
        conn.execute(f"DELETE FROM {_q(BODY_TABLE)}")

    def _extend_from_log(self, rsql: ReachSQL) -> int:
        """Translate every ``__fired_*`` log row into fire/body rows.

        Caller supplies the transaction.  Allocates one fid block per
        (rule, head atom): fid = block base + firing rowid, so the fire
        insert and every body insert of the pair correlate without any
        join-back.  Returns the number of fire rows added.
        """
        conn = self.store.connection
        next_fid = int(self.store.meta_get("index_next_fid") or 0)
        added = 0
        for rule in rsql.rules:
            top = self.store.max_rowid(rule.firing_table)
            if top <= 0:
                continue
            for head in rule.heads:
                hbase = self.id_base(head.relation)
                runtime = {"wm": 0, "base": next_fid, "hbase": hbase}
                cursor = conn.execute(
                    head.fire_insert.sql,
                    {**head.fire_insert.params, **runtime},
                )
                added += max(cursor.rowcount, 0)
                for body_rel, statement in head.body_inserts:
                    runtime = {
                        "wm": 0,
                        "base": next_fid,
                        "bbase": self.id_base(body_rel),
                    }
                    conn.execute(
                        statement.sql, {**statement.params, **runtime}
                    )
                next_fid += top
        self.store.meta_set("index_next_fid", next_fid)
        return added

    def rebuild_from_store(self, rsql: ReachSQL) -> int:
        """Rebuild the whole index by re-enumerating the firing history
        from the stored relations (one transaction).  The ``__fired_*``
        logs are borrowed as scratch and left empty."""
        conn = self.store.connection
        with conn:
            for rule in rsql.rules:
                conn.execute(f"DELETE FROM {_q(rule.firing_table)}")
                conn.execute(
                    rule.enumerate_all.sql, dict(rule.enumerate_all.params)
                )
            self._clear_content()
            fires = self._extend_from_log(rsql)
            for rule in rsql.rules:
                conn.execute(f"DELETE FROM {_q(rule.firing_table)}")
        return fires

    def rebuild(
        self, rsql: ReachSQL, tracer: "Tracer | NullTracer" = NULL_TRACER
    ) -> int:
        """Query-time recovery: rebuild a stale/absent index from the
        stored firing history and mark it current (the ``index.rebuild``
        span brackets the work).  Queries answer over the store as it
        stands, so this is always safe, even over a dirty (aborted-run)
        store."""
        with tracer.span("index.rebuild") as span:
            fires = self.rebuild_from_store(rsql)
            self._finalize_epoch()
            span.set("fires", fires)
        return fires

    def reset_temp_state(self) -> None:
        """Clear the TEMP work tables after a query's verdict read."""
        if self._temps_ready:
            self._clear_ids(*_ID_TEMPS, "__rq_distrust", "__rq_deadfid")

    def on_row_deleted(self, relation: str, rowid: int) -> None:
        """Targeted maintenance for one deleted stored row (caller
        supplies the transaction and has checked :meth:`maintains`).
        Removes the fires incident to the node — they reference a tuple
        that no longer exists, so a rebuild from the stored rows would
        not enumerate them either — records their heads (and rules) as
        deletion suspects, and bumps the epoch."""
        self.ensure_tables()
        conn = self.store.connection
        node = self.id_base(relation) + rowid
        conn.execute('DELETE FROM "__rq_deadfid"')
        for column, table in (("head", FIRE_TABLE), ("body", BODY_TABLE)):
            conn.execute(
                'INSERT OR IGNORE INTO "__rq_deadfid" '
                f"SELECT fid FROM {_q(table)} WHERE {column} = ?",
                (node,),
            )
        conn.execute(
            f"INSERT OR IGNORE INTO {_q(SUSPECT_TABLE)} SELECT head, rule "
            f'FROM {_q(FIRE_TABLE)} WHERE fid IN (SELECT fid FROM "__rq_deadfid")'
        )
        self._delete_dead_fires()
        self._bump_epoch()

    def note_unmaintained_delete(self) -> None:
        """A stored row went away without :meth:`on_row_deleted` (the
        index was not maintaining it): the suspect set may miss heads."""
        self.store.meta_set("suspects_incomplete", 1)

    def _delete_dead_fires(self) -> None:
        conn = self.store.connection
        for table in (FIRE_TABLE, BODY_TABLE):
            conn.execute(
                f"DELETE FROM {_q(table)} "
                'WHERE fid IN (SELECT fid FROM "__rq_deadfid")'
            )
        conn.execute('DELETE FROM "__rq_deadfid"')

    # -- deletion propagation ------------------------------------------------

    def begin_prune(
        self,
        rsql: ReachSQL,
        max_iterations: int | None = None,
        tracer: "Tracer | NullTracer" = NULL_TRACER,
    ) -> ConeStats:
        """Stage the dead cone of the pending deletions into
        ``__rq_dead`` and the fires touching it into ``__rq_deadfid``
        (inside the caller's kill transaction).

        The cone is the downward closure of the suspects over
        ``__ridx_body`` -> ``__ridx_fire``.  No derivation of a node
        outside it passes through it, and every stored row was live
        before the deletes, so only cone nodes can die: the liveness
        kernel (:meth:`annotate_fixpoint`) runs inside the cone only,
        seeded with the cone fires' body nodes outside it.  It is a
        least fixpoint, so cyclic self-support inside the cone dies.
        An incomplete suspect set or a stale index (rebuilt first)
        takes the same kernel with every stored derived row as cone.
        """
        conn = self.store.connection
        whole = not self.current or bool(
            self.store.meta_get("suspects_incomplete")
        )
        if not self.current:
            self.rebuild(rsql, tracer)
        self._clear_ids(*_ID_TEMPS, "__rq_deadfid")
        if whole:
            for relation in rsql.derived_relations:
                conn.execute(
                    'INSERT INTO "__rq_cone" '
                    f"SELECT rowid + ? FROM {_q(relation)}",
                    (self.id_base(relation),),
                )
        else:
            conn.execute(
                'INSERT INTO "__rq_cone" WITH RECURSIVE cone(id) AS ('
                f"SELECT id FROM {_q(SUSPECT_TABLE)} UNION "
                f"SELECT f.head FROM cone AS c "
                f"JOIN {_q(BODY_TABLE)} AS b ON b.body = c.id "
                f"JOIN {_q(FIRE_TABLE)} AS f ON f.fid = b.fid) "
                "SELECT id FROM cone"
            )

        def seed() -> int:
            for table in ("__rq_live", "__rq_delta"):
                conn.execute(
                    f'INSERT OR IGNORE INTO "{table}" SELECT b.body '
                    f"FROM {_q(FIRE_TABLE)} AS f "
                    f"JOIN {_q(BODY_TABLE)} AS b ON b.fid = f.fid "
                    'WHERE f.head IN (SELECT id FROM "__rq_cone") '
                    'AND b.body NOT IN (SELECT id FROM "__rq_cone")'
                )
            return self.store.count("__rq_delta")

        rounds, _ = self.annotate_fixpoint(
            seed, max_iterations=max_iterations, within_cone=True
        )
        conn.execute(
            'INSERT INTO "__rq_dead" SELECT id FROM "__rq_cone" '
            'WHERE id NOT IN (SELECT id FROM "__rq_live")'
        )
        for column, table in (("body", BODY_TABLE), ("head", FIRE_TABLE)):
            conn.execute(
                f'INSERT OR IGNORE INTO "__rq_deadfid" SELECT fid FROM '
                f'{_q(table)} WHERE {column} IN (SELECT id FROM "__rq_dead")'
            )
        (suspects,) = conn.execute(
            f"SELECT COUNT(DISTINCT id) FROM {_q(SUSPECT_TABLE)}"
        ).fetchone()
        (visited,) = conn.execute(
            f"SELECT COUNT(*) FROM {_q(FIRE_TABLE)} "
            'WHERE head IN (SELECT id FROM "__rq_cone")'
        ).fetchone()
        return ConeStats(
            whole, suspects, self.store.count("__rq_cone"),
            self.store.count("__rq_dead"), rounds, visited,
        )

    def finish_prune(
        self,
        rsql: ReachSQL,
        whole: bool,
        tracer: "Tracer | NullTracer" = NULL_TRACER,
    ) -> tuple[dict[str, int], int]:
        """Kill what :meth:`begin_prune` staged (same transaction):
        collect the dead ``P_m`` rows, delete the dead rows by rowid,
        prune the dead fires and retire the suspect set.  Returns
        ``(rows removed per relation, P_m rows collected)``.

        Only dead fires' bindings are tested for ``P_m`` collection,
        except in *whole* runs and for mappings whose own fires a
        victim deletion removed (their bindings are gone): those test
        every row.  Pruning is exact — the kernel computed the full
        live set, so every fire not touching a dead node is live — but
        falls back to a stale-mark when the cone is a large fraction
        of the index (:data:`PRUNE_FALLBACK_RATIO`).
        """
        conn = self.store.connection
        removed_rules = {
            rule
            for (rule,) in conn.execute(
                f"SELECT DISTINCT rule FROM {_q(SUSPECT_TABLE)}"
            )
        }
        collected = 0
        for pm in rsql.pm_collect:
            full = whole or pm.rule_name in removed_rules
            statement = pm.whole if full else pm.dead
            bases = {f"b{i}": self.id_base(r) for i, r in enumerate(pm.relations)}
            cursor = conn.execute(statement.sql, {**statement.params, **bases})
            collected += max(cursor.rowcount, 0)
        removed: dict[str, int] = {}
        for relation in rsql.derived_relations:
            base = self.id_base(relation)
            cursor = conn.execute(
                f"DELETE FROM {_q(relation)} WHERE rowid IN "
                '(SELECT id - :base FROM "__rq_dead" '
                "WHERE id >= :base AND id < :top)",
                {"base": base, "top": base + REL_SHIFT},
            )
            if cursor.rowcount > 0:
                removed[relation] = cursor.rowcount
        conn.execute(f"DELETE FROM {_q(SUSPECT_TABLE)}")
        self.store.meta_set("suspects_incomplete", 0)
        dead = self.store.count("__rq_dead")
        fires = self.store.count(FIRE_TABLE)
        if dead * PRUNE_FALLBACK_RATIO > fires:
            with tracer.span("index.invalidate") as span:
                span.set("dead", dead).set("fires", fires)
                self.mark_stale()
        elif dead:
            self._delete_dead_fires()
            self._bump_epoch()
        return removed, collected

    # -- interval encoding ---------------------------------------------------

    def ensure_encoding(self) -> bool:
        """(Re)build the interval table if the epoch moved; returns
        whether the current encoding is tree-exact (ancestor tests may
        use the range predicate).  Lazy: only the first query of an
        epoch pays, and non-forest graphs fail the cheap probes fast
        and fall back to the recursive-CTE path."""
        conn = self.store.connection
        epoch = self.epoch
        if int(self.store.meta_get("index_enc_epoch") or -1) == epoch:
            return bool(int(self.store.meta_get("index_tree_exact") or 0))
        tree_exact = self._try_encode()
        self.store.meta_set("index_enc_epoch", epoch)
        self.store.meta_set("index_tree_exact", 1 if tree_exact else 0)
        if not tree_exact:
            with conn:
                conn.execute(f"DELETE FROM {_q(INFO_TABLE)}")
        return tree_exact

    def _try_encode(self) -> bool:
        """Attempt the forest interval encoding.  Tree-exact iff every
        fire has exactly one body (a multi-body rule makes the
        derivation a true hyperedge) and every tuple is the head of at
        most one fire (multiple derivations merge cones)."""
        conn = self.store.connection
        # Body probe first: it fails immediately on any multi-body
        # rule, so e.g. join-shaped programs pay two cheap probes and
        # nothing else.
        multi_body = conn.execute(
            f"SELECT 1 FROM {_q(BODY_TABLE)} GROUP BY fid "
            "HAVING COUNT(*) > 1 LIMIT 1"
        ).fetchone()
        if multi_body:
            return False
        multi_head = conn.execute(
            f"SELECT 1 FROM {_q(FIRE_TABLE)} GROUP BY head "
            "HAVING COUNT(*) > 1 LIMIT 1"
        ).fetchone()
        if multi_head:
            return False
        (edges,) = conn.execute(
            f"SELECT COUNT(*) FROM {_q(FIRE_TABLE)}"
        ).fetchone()
        if edges > ENCODING_CAP:
            return False
        # parent(head) = body: each derived tuple hangs under its one
        # supporting tuple; roots are the EDB leaves.  An iterative
        # DFS assigns pre/post-order windows — n is an ancestor-or-self
        # of q iff tin[n] <= tin[q] <= tout[n].
        parent: dict[int, int] = {}
        children: dict[int, list[int]] = {}
        nodes: set[int] = set()
        for head, body in conn.execute(
            f"SELECT f.head, b.body FROM {_q(FIRE_TABLE)} AS f "
            f"JOIN {_q(BODY_TABLE)} AS b ON b.fid = f.fid"
        ):
            parent[head] = body
            children.setdefault(body, []).append(head)
            nodes.add(head)
            nodes.add(body)
        roots = sorted(n for n in nodes if n not in parent)
        info: list[tuple[int, int, int, int]] = []
        clock = 0
        for root in roots:
            # (node, layer, child cursor) — iterative to survive long
            # derivation chains.
            stack: list[list[int]] = [[root, 0, 0]]
            tin: dict[int, int] = {}
            while stack:
                frame = stack[-1]
                node, layer, cursor = frame
                if cursor == 0:
                    clock += 1
                    tin[node] = clock
                kids = children.get(node, ())
                if cursor < len(kids):
                    frame[2] += 1
                    stack.append([kids[cursor], layer + 1, 0])
                else:
                    info.append((node, layer, tin[node], clock))
                    stack.pop()
        # Nodes reached by no root (cycles) get no info row; queries on
        # them fall back to the CTE per-query.  That is only possible
        # with cyclic programs, which the forest probes usually reject
        # earlier anyway.
        with conn:
            conn.execute(f"DELETE FROM {_q(INFO_TABLE)}")
            conn.executemany(
                f"INSERT INTO {_q(INFO_TABLE)} (id, layer, tin, tout) "
                "VALUES (?, ?, ?, ?)",
                info,
            )
        return True

    # -- query substrate -----------------------------------------------------

    def _clear_ids(self, *tables: str) -> None:
        conn = self.store.connection
        for table in tables:
            conn.execute(f"DELETE FROM {_q(table)}")

    def fill_ancestors(self, qid: int) -> None:
        """Fill ``__rq_anc`` with the ancestor-or-self closure of the
        node *qid* — via the interval predicate when the encoding is
        tree-exact and covers the node, else one recursive CTE over
        the integer edge set."""
        self._ensure_temps()
        conn = self.store.connection
        self._clear_ids("__rq_anc")
        if self.ensure_encoding():
            row = conn.execute(INTERVAL_PROBE_SQL, (qid,)).fetchone()
            if row is not None:
                (t,) = row
                conn.execute(
                    'INSERT INTO "__rq_anc" ' + INTERVAL_WINDOW_SQL,
                    (t, t),
                )
                return
            # A stored node with no info row has no edges at all: its
            # closure is itself.
            conn.execute('INSERT INTO "__rq_anc" VALUES (?)', (qid,))
            return
        conn.execute('INSERT INTO "__rq_anc" ' + ANCESTOR_CTE_SQL, (qid,))

    def annotate_fixpoint(
        self,
        seed: Callable[[], int],
        distrusted: Iterable[str] = (),
        max_iterations: int | None = None,
        within_cone: bool = False,
    ) -> tuple[int, int]:
        """Integer liveness fixpoint over the index — the one kernel
        behind the derivability/trust queries and deletion propagation.

        *seed* stages the seed ids into ``__rq_live``/``__rq_delta``
        (after they were cleared) and returns the count.  Each round
        promotes every fire whose rule is trusted, whose body touches
        the delta, and whose body ids are all live; ``within_cone``
        additionally restricts promotion to heads in ``__rq_cone``.
        Returns ``(iterations, live_fires)`` — a query's
        ``(iterations, pm_rows_scanned)``; deletion propagation, which
        counts its own visited fires, skips the live-fire count
        (``live_fires`` is then 0).
        """
        self._ensure_temps()
        conn = self.store.connection
        self._clear_ids("__rq_live", "__rq_delta", "__rq_new", "__rq_distrust")
        seeded = seed()
        conn.executemany(
            'INSERT OR IGNORE INTO "__rq_distrust" VALUES (?)',
            [(name,) for name in distrusted],
        )
        round_sql = (
            'INSERT OR IGNORE INTO "__rq_new" '
            f"SELECT f.head FROM {_q(FIRE_TABLE)} AS f "
            f"WHERE f.fid IN (SELECT b.fid FROM {_q(BODY_TABLE)} AS b "
            '  JOIN "__rq_delta" AS d ON b.body = d.id) '
            + (
                'AND f.head IN (SELECT id FROM "__rq_cone") '
                if within_cone
                else ""
            )
            + 'AND f.rule NOT IN (SELECT rule FROM "__rq_distrust") '
            'AND NOT EXISTS (SELECT 1 FROM "__rq_live" AS l '
            "  WHERE l.id = f.head) "
            f'AND NOT EXISTS (SELECT 1 FROM {_q(BODY_TABLE)} AS b2 '
            "  WHERE b2.fid = f.fid AND NOT EXISTS ("
            '    SELECT 1 FROM "__rq_live" AS l2 WHERE l2.id = b2.body))'
        )
        iterations = 0
        delta = seeded
        while delta:
            iterations += 1
            if max_iterations is not None and iterations > max_iterations:
                raise EvaluationError(
                    f"derivability fixpoint did not converge within "
                    f"{max_iterations} iterations"
                )
            conn.execute(round_sql)
            conn.execute(
                'INSERT OR IGNORE INTO "__rq_live" '
                'SELECT id FROM "__rq_new"'
            )
            self._clear_ids("__rq_delta")
            conn.execute(
                'INSERT INTO "__rq_delta" SELECT id FROM "__rq_new"'
            )
            (delta,) = conn.execute(
                'SELECT COUNT(*) FROM "__rq_new"'
            ).fetchone()
            self._clear_ids("__rq_new")
        if within_cone:
            return iterations, 0
        (live_fires,) = conn.execute(
            f"SELECT COUNT(*) FROM {_q(FIRE_TABLE)} AS f "
            'WHERE f.rule NOT IN (SELECT rule FROM "__rq_distrust") '
            f"AND NOT EXISTS (SELECT 1 FROM {_q(BODY_TABLE)} AS b "
            "  WHERE b.fid = f.fid AND NOT EXISTS ("
            '    SELECT 1 FROM "__rq_live" AS l WHERE l.id = b.body))'
        ).fetchone()
        return iterations, int(live_fires)

    def live_ids(self, relation: str) -> set[int]:
        """The ``__rq_live`` ids in *relation*'s id range (PK range
        scan on the temp table)."""
        base = self.id_base(relation)
        if base is None:
            return set()
        return {
            int(i)
            for (i,) in self.store.connection.execute(
                'SELECT id FROM "__rq_live" WHERE id >= ? AND id < ?',
                (base, base + REL_SHIFT),
            )
        }

    def closure_scanned(self) -> int:
        """Fires whose head is in the filled ancestor closure — the
        lineage query's ``pm_rows_scanned``."""
        (scanned,) = self.store.connection.execute(
            f"SELECT COUNT(*) FROM {_q(FIRE_TABLE)} "
            'WHERE head IN (SELECT id FROM "__rq_anc")'
        ).fetchone()
        return int(scanned)

    def closure_leaf_rows(
        self, relation: str, catalog: Catalog
    ) -> list:
        """Decoded rows of *relation* in the ancestor closure."""
        base = self.id_base(relation)
        if base is None:
            return []
        schema = catalog[relation]
        codec = self.store.codec
        cursor = self.store.connection.execute(
            f"SELECT r.* FROM {_q(relation)} AS r "
            'JOIN "__rq_anc" AS a ON a.id = r.rowid + ?',
            (base,),
        )
        return [codec.decode_row(raw, schema) for raw in cursor]

    # -- caches --------------------------------------------------------------

    def nodes_with_ids(self, relation: str, catalog: Catalog) -> list:
        """``[(id, TupleNode), ...]`` for every stored row of
        *relation*, cached per epoch (the decode is the dominant cost
        of whole-instance annotation queries; relations above
        :data:`NODE_CACHE_CAP` rows are streamed uncached)."""
        from repro.provenance.graph import TupleNode

        epoch = self.epoch
        if self._node_cache_epoch != epoch:
            self._node_cache.clear()
            self._node_cache_epoch = epoch
        cached = self._node_cache.get(relation)
        if cached is not None:
            return cached
        base = self.id_base(relation)
        schema = catalog[relation]
        codec = self.store.codec
        rows = [
            (base + rowid, TupleNode(relation, codec.decode_row(raw, schema)))
            for rowid, *raw in self.store.connection.execute(
                f"SELECT rowid, * FROM {_q(relation)}"
            )
        ]
        if len(rows) <= NODE_CACHE_CAP:
            self._node_cache[relation] = rows
        return rows

    def cached_result(self, key: object) -> tuple | None:
        """The cached payload for *key* if it was stored under the
        current epoch, else None."""
        entry = self._result_cache.get(key)
        if entry is not None and entry[0] == self.epoch:
            return entry[1:]
        return None

    def cache_result(self, key: object, *payload: object) -> None:
        if len(self._result_cache) >= RESULT_CACHE_CAP:
            self._result_cache.pop(next(iter(self._result_cache)))
        self._result_cache[key] = (self.epoch, *payload)
