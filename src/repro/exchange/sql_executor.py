"""Set-oriented semi-naive update exchange inside SQLite.

This is the out-of-core counterpart of
:func:`repro.datalog.evaluation.evaluate`: every semi-naive round runs
*whole delta batches* as one SQL statement per compiled plan, instead
of enumerating candidate rows in Python.  The round structure mirrors
the in-memory engine exactly, so both engines produce identical
instances and provenance graphs:

1. every plan whose seed relation has a non-empty delta fires as one
   ``INSERT INTO __fired_<rule> SELECT DISTINCT ...`` join over the
   frozen relation mirror and the ``__delta_*`` tables;
2. the round's fresh firings drive the head inserts (into per-relation
   candidate tables) and the ``P_m`` provenance-relation maintenance
   (Section 4.1) — all inside one transaction per round;
3. at round end, distinct candidates not already stored become the next
   delta and are published to the relation mirror — insertions never
   join within the round that produced them (snapshot semantics).

The provenance graph is written back *lazily*: firings accumulate in
relational form during the fixpoint and are converted to
:class:`~repro.provenance.graph.DerivationNode` objects (and the head
tuples inserted into the Python instance) in a single batched pass
after convergence.

:class:`ExchangeStore` owns the SQLite database (``:memory:`` or an
on-disk path for out-of-core workloads), keeps one
:class:`~repro.storage.encoding.ValueCodec` so labeled nulls intern
consistently, and registers the ``repro_skolem`` SQL function that
builds Skolem values inside queries.
"""

from __future__ import annotations

import os
import sqlite3
from typing import Callable, Iterable, Mapping as TMapping

from repro.cdss.mapping import SchemaMapping
from repro.datalog.evaluation import EvaluationResult
from repro.datalog.planner import ground_extractors
from repro.datalog.terms import SkolemValue
from repro.errors import EvaluationError, ExchangeError
from repro.exchange.cache import CompiledExchangeProgram
# Re-exported: layer tracers wrap it by this module path as well.
from repro.exchange.graph_queries import run_liveness_fixpoint  # noqa: F401
from repro.exchange.reach_index import ReachabilityIndex, lower_reach_program
from repro.exchange.sql_plans import (
    ProgramSQL,
    cand_table,
    delta_table,
    lower_program,
    new_table,
    slot_column,
    stage_new_sql,
)
from repro.obs.sqlite_hook import StatementTrace, statement_fingerprint
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.provenance.graph import DerivationNode, ProvenanceGraph, TupleNode
from repro.relational.instance import Catalog, ChangeMark, Instance, Row
from repro.relational.schema import RelationSchema, is_local_name
from repro.storage.encoding import ValueCodec, quote_identifier as _q


#: writer-side SQLITE_BUSY grace period for durable (WAL) stores, in
#: milliseconds.  Readers in repro.serve never hold write locks, so the
#: timeout only matters for rare shm/recovery contention; bounded
#: exponential-backoff retries on top of it live in repro.serve.retry.
BUSY_TIMEOUT_MS = 5_000


def normalize_store_path(path: "str | os.PathLike[str]") -> str:
    """Canonical identity of a store file.

    Two spellings of the same file (relative vs. absolute, ``..``
    segments) must compare equal wherever a store is pinned or reopened
    by path — and a relative spelling must not silently start naming a
    *different* file after an ``os.chdir``.  ``":memory:"`` is its own
    identity.
    """
    path = os.fspath(path)
    return path if path == ":memory:" else os.path.abspath(path)


def _skolem_function(codec: ValueCodec):
    """The ``repro_skolem(name, types_csv, *args)`` SQL function.

    Decodes each argument by its declared type tag, builds the
    :class:`SkolemValue`, and returns its interned string encoding so
    equal labeled nulls compare equal inside SQL joins.
    """

    def repro_skolem(function: str, types_csv: str, *args: object) -> object:
        types = types_csv.split(",") if types_csv else []
        values = tuple(
            codec.decode(value, type_) for value, type_ in zip(args, types)
        )
        return codec.encode(SkolemValue(function, values))

    return repro_skolem


class ExchangeStore:
    """SQLite database mirroring a CDSS instance for SQL exchange.

    ``path=":memory:"`` keeps everything in RAM; any other path puts
    the working set on disk, which is the out-of-core mode (instances
    larger than memory join fine — SQLite pages them).  The store is
    reusable across incremental :meth:`CDSS.exchange` calls and is a
    context manager.

    The mirror is maintained *incrementally*: :meth:`sync_instance`
    reads each relation's change journal and ships only what moved
    since this store's high-water mark (see the method docstring), so
    a repeat exchange over unchanged relations transfers zero rows.
    In store-resident exchange the mirror is not a mirror at all but
    the authoritative instance — only local-contribution relations
    are ever synced *into* it.

    Dedicate a store to one CDSS for its lifetime: ``P_m`` provenance
    rows accumulate across incremental calls (they mirror the growing
    provenance graph), so pointing a second system at the same store
    would leave the first system's rows behind.  ``P_m`` is the
    *firing history*; deletion propagation keeps it honest: resident
    propagation (:meth:`SQLiteExchangeEngine.propagate_deletions`)
    garbage-collects the rows no surviving firing projects onto, and the
    graph-path propagation of a non-resident system reconciles the
    store's ``P_m`` via :meth:`delete_provenance_rows` — so the firing
    history no longer retains derivations the graph collected.
    """

    def __init__(self, path: str = ":memory:"):
        self.path = normalize_store_path(path)
        self.codec = ValueCodec()
        # A large statement cache: the maintained-index query paths
        # re-execute a small set of SQL strings on every call, and
        # sqlite3 skips re-preparing a statement whose exact text is
        # cached — the "prepared statement reuse" half of the index's
        # warm-query latency (see :meth:`prepared`).
        self.connection = sqlite3.connect(self.path, cached_statements=512)
        self.connection.execute("PRAGMA synchronous = OFF")
        self.connection.execute("PRAGMA journal_mode = MEMORY")
        self.connection.create_function(
            "repro_skolem", -1, _skolem_function(self.codec), deterministic=True
        )
        self.closed = False
        self._durable = False
        self._known_tables: set[str] = set()
        #: per-relation journal high-water marks of the mirrored
        #: instance (see :meth:`sync_instance`).
        self._marks: dict[str, ChangeMark] = {}
        #: the instance the marks describe; syncing a different object
        #: resets them (marks are only comparable within one instance).
        self._mirrored: Instance | None = None
        #: per-relation row counts, maintained by sync/publish so
        #: resident-mode exchanges never rescan whole tables with
        #: COUNT(*) (see :meth:`cached_count`).
        self._row_counts: dict[str, int] = {}
        #: program fingerprints whose :meth:`ensure_schema` DDL already
        #: ran on this connection (tables are never dropped, so one
        #: pass per program suffices — repeated graph queries skip the
        #: whole CREATE TABLE IF NOT EXISTS sweep).
        self._schema_ready: set[str] = set()
        #: built-SQL cache backing :meth:`prepared`, plus its counters.
        self._prepared: dict[object, str] = {}
        self.prepared_hits = 0
        self.prepared_misses = 0
        self._reach_index: ReachabilityIndex | None = None
        #: local rows victim marking removed (:meth:`delete_relation_row`)
        #: since the last deletion propagation, per relation; a pending
        #: re-insert of one is shipped back ahead of the propagation's
        #: cone (:meth:`ship_reinserted_victims`).
        self._victims: dict[str, set[Row]] = {}
        #: victims shipped back ahead of the change journal: the next
        #: :meth:`sync_instance` of their relation must not append them
        #: again.
        self._reshipped: dict[str, set[Row]] = {}
        # The dirty-run flag lives in the database file, not on this
        # object: an aborted resident run must still trigger recovery
        # after the store is reopened by path (or in a new process).
        self.connection.execute(
            'CREATE TABLE IF NOT EXISTS "__meta" (key TEXT PRIMARY KEY, value)'
        )
        self.connection.commit()
        row = self.connection.execute(
            "SELECT value FROM \"__meta\" WHERE key = 'dirty_run'"
        ).fetchone()
        self._dirty_run = bool(row and row[0])

    def ensure_durable(self) -> None:
        """Trade write speed for crash safety before a resident run.

        A mirror keeps the fast defaults (``synchronous = OFF``,
        in-memory rollback journal): a crash can only cost a rebuild
        from the Python instance.  A *resident* store is the only copy
        of the derived data, so an on-disk one is switched to WAL with
        ``synchronous = NORMAL`` — a killed process can then never
        corrupt the file, and WAL's append ordering guarantees the
        dirty-run flag (committed before any fixpoint round) reaches
        disk no later than the rounds it covers.  In-memory stores die
        with the process regardless; they keep the fast settings.
        """
        if self._durable or self.path == ":memory:":
            return
        self.connection.execute("PRAGMA journal_mode = WAL")
        self.connection.execute("PRAGMA synchronous = NORMAL")
        # Read-only serving sessions (repro.serve) may share the file;
        # give writer statements a grace period instead of failing the
        # first SQLITE_BUSY (bounded retries on top live in repro.serve).
        self.connection.execute(f"PRAGMA busy_timeout = {BUSY_TIMEOUT_MS}")
        self._durable = True

    def checkpoint(self, mode: str = "PASSIVE") -> tuple[int, int, int]:
        """Run ``PRAGMA wal_checkpoint`` and report SQLite's result.

        Returns ``(busy, wal_pages, moved_pages)``: ``busy`` is 1 when a
        concurrent reader's pinned snapshot prevented the checkpoint
        from completing (SQLite reports this in the result row rather
        than raising).  Writers serving concurrent readers should
        checkpoint ``PASSIVE`` during traffic and reserve blocking modes
        (``TRUNCATE``/``RESTART``) for quiescent points, retrying with
        backoff while ``busy`` is set — see docs/serving.md.
        """
        if mode not in ("PASSIVE", "FULL", "RESTART", "TRUNCATE"):
            raise ExchangeError(f"unknown checkpoint mode: {mode!r}")
        if self.connection.in_transaction:
            # Graph queries populate TEMP work tables, which opens an
            # implicit transaction the dbapi never closes; a checkpoint
            # on a connection with an open transaction raises instead
            # of reporting busy.  All real mutations commit at their
            # own boundaries, so ending the dangling transaction here
            # is safe — and required for the discipline to work.
            self.connection.commit()
        row = self.connection.execute(
            f"PRAGMA wal_checkpoint({mode})"
        ).fetchone()
        return (int(row[0]), int(row[1]), int(row[2]))

    @property
    def dirty_run(self) -> bool:
        """True while an engine run is in flight (persisted in the
        store file).  A run that aborts leaves it set, telling the next
        resident run to re-seed from the full store extension —
        committed partial rounds cannot be rolled back, only
        completed — even across a close/reopen of an on-disk store."""
        return self._dirty_run

    @dirty_run.setter
    def dirty_run(self, value: bool) -> None:
        self._dirty_run = bool(value)
        self.meta_set("dirty_run", 1 if value else 0)

    def meta_get(self, key: str) -> object:
        """One value from the store's persisted ``__meta`` table (None
        when absent).  This is durable, per-store-file state: a store
        reopened by path (resident mode's recovery story) reads the
        same values, which is how the reachability index's epoch and
        current/stale flag survive a process restart."""
        row = self.connection.execute(
            'SELECT value FROM "__meta" WHERE key = ?', (key,)
        ).fetchone()
        return row[0] if row else None

    def meta_set(self, key: str, value: object) -> None:
        """Persist one ``__meta`` value.  Transaction-aware: inside an
        open transaction the write rides it (so e.g. an index-epoch
        bump commits or rolls back atomically with the maintenance that
        caused it); outside one it commits immediately."""
        sql = 'INSERT OR REPLACE INTO "__meta" (key, value) VALUES (?, ?)'
        if self.connection.in_transaction:
            self.connection.execute(sql, (key, value))
        else:
            with self.connection:
                self.connection.execute(sql, (key, value))

    @property
    def reach_index(self) -> ReachabilityIndex:
        """The store's maintained reachability index handle
        (:mod:`repro.exchange.reach_index`), created lazily.  Creating
        the handle touches nothing: all index state lives in the store
        file, so on a reopened store the handle simply adopts whatever
        epoch/state the file recorded (``docs/graph-index.md``)."""
        if self._reach_index is None:
            self._reach_index = ReachabilityIndex(self)
        return self._reach_index

    def prepared(self, key: object, builder: "Callable[[], str]") -> str:
        """The SQL string built by *builder*, cached under *key*.

        Reusing the identical string object lets sqlite3's
        statement cache (sized in ``__init__``) skip re-preparing it —
        the per-call overhead that dominates sub-millisecond indexed
        graph queries.  Keys follow the lowering caches' convention:
        a tuple of (purpose, relation/rule, ...) identifying the shape.
        """
        sql = self._prepared.get(key)
        if sql is None:
            sql = self._prepared[key] = builder()
            self.prepared_misses += 1
        else:
            self.prepared_hits += 1
        return sql

    # -- schema ------------------------------------------------------------

    def _create_table(self, name: str, columns: tuple[str, ...]) -> None:
        # Columns are intentionally typeless (BLOB affinity): the store
        # must preserve encoded values exactly as bound, with no column
        # affinity coercion (e.g. TEXT affinity turning ints into text).
        cols = ", ".join(_q(c) for c in columns)
        self.connection.execute(
            f"CREATE TABLE IF NOT EXISTS {_q(name)} ({cols})"
        )
        self._known_tables.add(name)

    def _create_index(self, table: str, columns: tuple[str, ...]) -> None:
        cols = ", ".join(_q(c) for c in columns)
        self.connection.execute(
            f"CREATE INDEX IF NOT EXISTS {_q('__ix_' + table)} "
            f"ON {_q(table)} ({cols})"
        )

    def ensure_schema(
        self,
        catalog: Catalog,
        mappings: TMapping[str, SchemaMapping],
        sql: ProgramSQL,
        token: str | None = None,
    ) -> None:
        """Create (idempotently) every table and index the program needs.

        *token* (the compiled program's fingerprint, which covers the
        catalog via the per-relation local rules) memoizes the sweep:
        once it has run on this connection for a given program, later
        calls return immediately — this keeps warm graph queries from
        re-issuing a few hundred ``CREATE TABLE IF NOT EXISTS``
        statements per call."""
        if token is not None and token in self._schema_ready:
            return
        for schema in catalog:
            for name in (
                schema.name,
                delta_table(schema.name),
                new_table(schema.name),
                cand_table(schema.name),
            ):
                self._create_table(name, schema.attribute_names)
            self._create_index(
                delta_table(schema.name), schema.attribute_names
            )
        for rule in sql.rules:
            self._create_table(
                rule.firing_table,
                tuple(slot_column(s) for s in range(rule.num_slots)),
            )
        for mapping in mappings.values():
            if mapping.is_superfluous or not mapping.provenance_columns:
                continue
            schema = mapping.provenance_schema()
            self._create_table(schema.name, schema.attribute_names)
            # Indexed on every column (as in the paper's storage layer):
            # the per-round dedup probe and path traversals may enter a
            # provenance relation from either side.
            for attribute in schema.attribute_names:
                self.connection.execute(
                    f"CREATE INDEX IF NOT EXISTS "
                    f"{_q(f'__ix_{schema.name}__{attribute}')} "
                    f"ON {_q(schema.name)} ({_q(attribute)})"
                )
        for relation, positions in sql.index_requirements:
            if relation not in catalog:
                continue
            names = catalog[relation].attribute_names
            cols = ", ".join(_q(names[p]) for p in positions)
            suffix = "_".join(str(p) for p in positions)
            self.connection.execute(
                f"CREATE INDEX IF NOT EXISTS "
                f"{_q(f'__ix_{relation}__{suffix}')} "
                f"ON {_q(relation)} ({cols})"
            )
        self.connection.commit()
        if token is not None:
            self._schema_ready.add(token)

    def promote_round(
        self, stage_sql: TMapping[str, str], relations: Iterable[str]
    ) -> dict[str, int]:
        """Round end of a semi-naive exchange: empty every relation's
        delta, stage each *stage_sql* relation's fresh candidates, and
        publish them into the relation and its next delta.  Returns the
        per-relation sizes of the next delta."""
        conn = self.connection
        for relation in relations:
            conn.execute(f"DELETE FROM {_q(delta_table(relation))}")
        counts: dict[str, int] = {}
        for relation, sql in stage_sql.items():
            conn.execute(sql)
            new = new_table(relation)
            fresh = self.count(new)
            if fresh:
                for table in (relation, delta_table(relation)):
                    conn.execute(
                        f"INSERT INTO {_q(table)} SELECT * FROM {_q(new)}"
                    )
                conn.execute(f"DELETE FROM {_q(new)}")
                counts[relation] = fresh
            conn.execute(f"DELETE FROM {_q(cand_table(relation))}")
        return counts

    # -- per-run state ------------------------------------------------------

    def reset_run(self, catalog: Catalog, sql: ProgramSQL) -> None:
        """Clear firing logs and working tables for a fresh run."""
        with self.connection:
            for rule in sql.rules:
                self.connection.execute(f"DELETE FROM {_q(rule.firing_table)}")
            for schema in catalog:
                for name in (
                    delta_table(schema.name),
                    new_table(schema.name),
                    cand_table(schema.name),
                ):
                    self.connection.execute(f"DELETE FROM {_q(name)}")

    def sync_instance(
        self, instance: Instance, resident: bool = False
    ) -> tuple[int, int]:
        """Incrementally mirror the Python instance into the store.

        Consults each relation's change journal
        (:meth:`~repro.relational.instance.Instance.change_mark`)
        against this store's high-water marks and ships only what
        moved: appended rows go over as batched INSERTs; a relation
        that saw a deletion (epoch change) — or was never synced — is
        reloaded in full.  Unchanged relations cost one mark
        comparison and zero SQL.

        With ``resident=True`` only local-contribution relations are
        mirrored from the instance: the store itself is the
        authoritative home of every derived relation, so the mirror
        must never be overwritten from the (empty) Python side.

        Returns ``(rows_mirrored, relations_synced)``.
        """
        if self._mirrored is not instance:
            self._marks.clear()
            self._mirrored = instance
        rows_mirrored = 0
        relations_synced = 0
        # High-water marks and row counts advance only after the
        # transaction commits: a failure mid-sync rolls back every
        # shipped row, so both must keep describing the pre-sync store.
        new_marks: dict[str, ChangeMark] = {}
        new_counts: dict[str, int] = {}
        with self.connection:
            for schema in instance.catalog:
                name = schema.name
                if resident and not is_local_name(name):
                    continue
                current = instance.change_mark(name)
                if self._marks.get(name) == current:
                    continue
                appended = instance.changes_since(name, self._marks.get(name))
                reshipped = self._reshipped.get(name)
                if appended is not None and reshipped:
                    appended = [r for r in appended if r not in reshipped]
                if appended is None:
                    dropped = self.connection.execute(
                        f"DELETE FROM {_q(name)}"
                    ).rowcount
                    appended = sorted(instance[name], key=repr)
                    new_counts[name] = len(appended)
                    # The full reload renumbers the relation's rowids,
                    # invalidating every node id the reachability index
                    # may hold for it.
                    self.reach_index.note_renumbered(dropped=dropped > 0)
                elif name in self._row_counts:
                    new_counts[name] = self._row_counts[name] + len(appended)
                if appended:
                    placeholders = ", ".join("?" for _ in range(schema.arity))
                    self.connection.executemany(
                        f"INSERT INTO {_q(name)} VALUES ({placeholders})",
                        [self.codec.encode_row(row) for row in appended],
                    )
                rows_mirrored += len(appended)
                relations_synced += 1
                new_marks[name] = current
            if rows_mirrored:
                # Stored content changed: epoch-keyed query caches
                # over the reachability index must go cold, even when
                # the index structure itself is untouched (appended
                # base rows have no firings yet).
                self.reach_index.note_content_shipped()
        self._marks.update(new_marks)
        self._row_counts.update(new_counts)
        for name in new_marks:
            self._reshipped.pop(name, None)
            if name in self._victims:
                # The synced table equals the instance's relation: a
                # re-inserted victim is stored again.
                self._victims[name] = {
                    row
                    for row in self._victims[name]
                    if not instance.contains(name, row)
                }
        return rows_mirrored, relations_synced

    def mark_synced(self, instance: Instance) -> None:
        """Fast-forward every high-water mark to *instance*'s current
        journal position without shipping rows — called by the engine
        after write-back, when the mirror already holds exactly the
        rows it just inserted into the instance."""
        if self._mirrored is not instance:  # pragma: no cover - defensive
            return
        for schema in instance.catalog:
            self._marks[schema.name] = instance.change_mark(schema.name)

    def invalidate_sync(self) -> None:
        """Forget all high-water marks (and cached row counts): the
        next sync reloads every relation in full.  Called when a run
        aborts mid-flight and the mirror may have drifted from the
        instance."""
        self._marks.clear()
        self._mirrored = None
        self._row_counts.clear()

    def cached_count(self, relation: str) -> int:
        """Rows in *relation*, from the count cache kept current by
        :meth:`sync_instance` and :meth:`note_rows_added` — one
        COUNT(*) scan per relation per store lifetime, after which
        incremental exchanges never rescan (resident mode's tables may
        hold working sets far larger than memory)."""
        count = self._row_counts.get(relation)
        if count is None:
            count = self._row_counts[relation] = self.count(relation)
        return count

    def note_rows_added(self, relation: str, added: int) -> None:
        """Advance the count cache for rows the engine just published
        into *relation* (no-op for relations never counted)."""
        if relation in self._row_counts:
            self._row_counts[relation] += added

    def note_rows_removed(self, relation: str, removed: int) -> None:
        """Rewind the count cache for rows deletion propagation just
        killed in *relation* (no-op for relations never counted)."""
        if relation in self._row_counts:
            self._row_counts[relation] = max(
                0, self._row_counts[relation] - removed
            )

    def relation_in_sync(self, instance: Instance, relation: str) -> bool:
        """True iff *relation*'s store table provably matches the
        instance (the high-water mark is current), so a mutation
        applied to both sides keeps them in lockstep."""
        return (
            self._mirrored is instance
            and self._marks.get(relation) == instance.change_mark(relation)
        )

    def fast_forward_mark(self, instance: Instance, relation: str) -> None:
        """Advance one relation's high-water mark to the instance's
        current journal position — called after the same mutation was
        applied to both sides, so the next sync ships nothing instead
        of epoch-reloading the whole relation."""
        if self._mirrored is instance:
            self._marks[relation] = instance.change_mark(relation)

    def delete_relation_row(self, schema: RelationSchema, row: Row) -> bool:
        """Delete one row from *schema*'s table (deletion-victim
        marking), keeping the count cache current.

        When the maintained reachability index is current and covers
        the relation, the victim's incident fires are removed in the
        same transaction (``docs/graph-index.md``), so the index stays
        *current* across targeted resident deletions — queries issued
        before ``propagate_deletions`` answer from it without a
        rebuild, over exactly the store a rebuild would see.  The row
        is also recorded as a victim until the next propagation
        (:meth:`ship_reinserted_victims`).
        """
        condition = " AND ".join(
            f"{_q(c)} IS ?" for c in schema.attribute_names
        )
        encoded = self.codec.encode_row(row)
        with self.connection:
            rowid = None
            index = self.reach_index
            if index.maintains(schema.name):
                found = self.connection.execute(
                    f"SELECT rowid FROM {_q(schema.name)} WHERE {condition}",
                    encoded,
                ).fetchone()
                if found is not None:
                    rowid = int(found[0])
            cursor = self.connection.execute(
                f"DELETE FROM {_q(schema.name)} WHERE {condition}",
                encoded,
            )
            if cursor.rowcount > 0:
                if rowid is not None:
                    index.on_row_deleted(schema.name, rowid)
                else:
                    index.note_unmaintained_delete()
        removed = max(cursor.rowcount, 0)
        if removed:
            self.note_rows_removed(schema.name, removed)
            self._victims.setdefault(schema.name, set()).add(row)
        return bool(removed)

    def ship_reinserted_victims(self, instance: Instance) -> int:
        """Store again every victim a pending local insert re-inserted
        (the graph engine never dropped its leaf node, so its recorded
        firings still count at propagation).  The rows go ahead of the
        change journal — the next :meth:`sync_instance` skips them.
        Their fires left the index with the delete, so the same
        transaction marks the index stale and the suspect set
        incomplete: no committed state shows the rows stored again
        under a current index (``docs/serving.md``), and the caller's
        propagation rebuilds the index and runs the kernel whole.
        Returns the number of rows shipped."""
        back = {
            name: rows
            for name, victims in self._victims.items()
            if (rows := {r for r in victims if instance.contains(name, r)})
        }
        if not back:
            return 0
        with self.connection:
            for name, rows in back.items():
                arity = instance.catalog[name].arity
                placeholders = ", ".join("?" for _ in range(arity))
                self.connection.executemany(
                    f"INSERT INTO {_q(name)} VALUES ({placeholders})",
                    [self.codec.encode_row(row) for row in rows],
                )
            # The INSERTs opened the transaction: both marks ride it.
            self.reach_index.mark_stale()
            self.reach_index.note_unmaintained_delete()
        for name, rows in back.items():
            self._victims[name] -= rows
            self._reshipped.setdefault(name, set()).update(rows)
            self.note_rows_added(name, len(rows))
        return sum(len(rows) for rows in back.values())

    def retire_victims(self) -> None:
        """A deletion propagation committed: its victims are settled."""
        self._victims.clear()

    def delete_provenance_rows(
        self, mapping: SchemaMapping, rows: Iterable[Row]
    ) -> None:
        """Garbage-collect specific ``P_m`` rows (the graph-path
        propagation reconciling a non-resident mirror)."""
        schema = mapping.provenance_schema()
        if not self.has_table(schema.name):
            return
        condition = " AND ".join(
            f"{_q(c)} IS ?" for c in schema.attribute_names
        )
        with self.connection:
            self.connection.executemany(
                f"DELETE FROM {_q(schema.name)} WHERE {condition}",
                [self.codec.encode_row(row) for row in rows],
            )

    def relation_rows(self, schema: RelationSchema) -> set[Row]:
        """Decode the mirror's extension of one relation (tests and
        resident-mode readers).  Works on a store reopened by path:
        labeled nulls are rebuilt from their self-describing
        encodings."""
        cursor = self.connection.execute(f"SELECT * FROM {_q(schema.name)}")
        return {self.codec.decode_row(row, schema) for row in cursor}

    def has_table(self, name: str) -> bool:
        if name in self._known_tables:
            return True
        # A store reopened by path holds tables this connection never
        # created; consult the catalog so e.g. P_m garbage collection
        # still finds them.
        row = self.connection.execute(
            "SELECT 1 FROM sqlite_master WHERE type = 'table' AND name = ?",
            (name,),
        ).fetchone()
        if row:
            self._known_tables.add(name)
        return row is not None

    # -- small helpers ------------------------------------------------------

    def max_rowid(self, table: str) -> int:
        (value,) = self.connection.execute(
            f"SELECT COALESCE(MAX(rowid), 0) FROM {_q(table)}"
        ).fetchone()
        return int(value)

    def count(self, table: str) -> int:
        (value,) = self.connection.execute(
            f"SELECT COUNT(*) FROM {_q(table)}"
        ).fetchone()
        return int(value)

    def close(self) -> None:
        if not self.closed:
            self.connection.close()
            self.closed = True

    def __enter__(self) -> "ExchangeStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else "open"
        return f"<ExchangeStore path={self.path!r} {state}>"


class SQLiteExchangeEngine:
    """Runs compiled exchange programs set-at-a-time over a store."""

    def __init__(
        self,
        store: ExchangeStore,
        tracer: "Tracer | NullTracer" = NULL_TRACER,
    ):
        if store.closed:
            raise ExchangeError("exchange store is closed")
        self.store = store
        #: lifecycle tracer (:mod:`repro.obs`); the default no-op
        #: tracer keeps every round statement-hook-free.
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def run(
        self,
        program: CompiledExchangeProgram,
        catalog: Catalog,
        mappings: TMapping[str, SchemaMapping],
        instance: Instance,
        graph: ProvenanceGraph | None = None,
        initial_delta: TMapping[str, set[Row]] | None = None,
        max_iterations: int | None = None,
        resident: bool = False,
    ) -> EvaluationResult:
        """Semi-naive SQL fixpoint; mutates *instance* and *graph*.

        Semantics match :func:`repro.datalog.evaluation.evaluate` with
        the same ``initial_delta`` contract: ``None`` seeds a full
        exchange from the whole instance, a mapping of per-relation row
        sets seeds an incremental one (rows must already be inserted).

        With ``resident=True`` the store is the authoritative home of
        every derived relation: the run still converges inside SQLite,
        but skips the write-back entirely — neither derived tuples nor
        provenance derivations are materialized in Python (firings and
        ``P_m`` rows stay relational), so the working set never has to
        fit in memory.
        """
        if graph is None:
            graph = ProvenanceGraph()
        if program.sql is None:
            program.sql = lower_program(
                program.compiled, catalog, mappings, self.store.codec
            )
        sql = program.sql
        if resident:
            self.store.ensure_durable()
        self.store.ensure_schema(catalog, mappings, sql, program.fingerprint)
        self.store.reset_run(catalog, sql)
        if resident and self.store.dirty_run:
            # A previous resident run aborted after committing some
            # rounds.  Those orphan rows are sound (each committed
            # round derives only valid tuples) but their downstream
            # consequences may be missing, and an incremental delta
            # would dedup them away before re-deriving anything — so
            # re-seed from the full store extension, which converges to
            # the complete fixpoint regardless of what partially
            # committed.  (Non-resident runs heal differently: the full
            # mirror reload after invalidate_sync deletes the orphans.)
            initial_delta = None
        was_current = False
        if resident:
            # Only resident runs consume the flag (non-resident aborts
            # heal via the full mirror reload), so only they pay the
            # two persisted writes.
            self.store.dirty_run = True
            # Resident runs maintain the reachability index: note
            # whether it matched the store *before* this run mutates
            # anything, then persist the stale mark — a crash anywhere
            # below leaves the index correctly marked for a query-time
            # rebuild.
            if program.reach is None:
                program.reach = lower_reach_program(
                    program.compiled, catalog, self.store.codec, mappings
                )
            index = self.store.reach_index
            index.ensure_schema(program.reach)
            was_current = index.current
            index.mark_stale()
        elif self.store.meta_get("index_state") is not None:
            # A non-resident run mutates relations without maintaining
            # the index (mirror stores normally have none; this guards
            # a store that once ran resident).
            self.store.reach_index.mark_stale()
        try:
            with StatementTrace(
                self.store.connection, self.tracer
            ) as stmt_trace:
                result = self._run_synced(
                    program, catalog, sql, instance, graph,
                    initial_delta, max_iterations, resident, stmt_trace,
                )
        except BaseException:
            # The mirror may hold rows the aborted run never wrote back
            # to the instance; force a full reload on the next sync.
            # dirty_run stays set for the resident-mode recovery above.
            self.store.invalidate_sync()
            raise
        if resident:
            self.store.reach_index.on_run_complete(
                program.reach,
                full_log=initial_delta is None,
                was_current=was_current,
                tracer=self.tracer,
            )
            self.store.dirty_run = False
        return result

    def _run_synced(
        self,
        program: CompiledExchangeProgram,
        catalog: Catalog,
        sql: ProgramSQL,
        instance: Instance,
        graph: ProvenanceGraph,
        initial_delta: TMapping[str, set[Row]] | None,
        max_iterations: int | None,
        resident: bool,
        stmt_trace: StatementTrace,
    ) -> EvaluationResult:
        conn = self.store.connection
        tracer = self.tracer
        result = EvaluationResult(instance, graph, engine="sqlite")
        with tracer.span("exchange.mirror") as mspan:
            result.rows_mirrored, result.relations_synced = (
                self.store.sync_instance(instance, resident=resident)
            )
            mspan.set("rows", result.rows_mirrored).set(
                "relations", result.relations_synced
            )
        # After the sync the mirror equals the instance, so sizes come
        # from the Python side for free; only in resident mode — where
        # derived relations live in the store alone — must they come
        # from the store (its count cache, not a rescan).
        if resident:
            rel_counts = {
                relation: self.store.cached_count(relation)
                for relation in sql.relations
            }
        else:
            rel_counts = {
                relation: instance.size(relation)
                for relation in sql.relations
            }

        delta_counts = self._seed_deltas(instance, sql, initial_delta, rel_counts)
        stage_sql = {
            relation: stage_new_sql(catalog, relation)
            for relation in sql.relations
        }
        published = 0

        iteration = 0
        while self._any_runnable(sql, delta_counts):
            iteration += 1
            if max_iterations is not None and iteration > max_iterations:
                raise EvaluationError(
                    f"fixpoint did not converge within {max_iterations} "
                    "iterations"
                )
            with tracer.span("exchange.round") as round_span, conn:
                watermarks = {
                    rule.rule_name: self.store.max_rowid(rule.firing_table)
                    for rule in sql.rules
                }
                for rule in sql.rules:
                    for plan in rule.plans:
                        if not delta_counts.get(plan.seed_relation):
                            continue
                        if self._blocked(plan, delta_counts, rel_counts):
                            continue
                        with tracer.span("exchange.statement") as sspan:
                            cursor = conn.execute(
                                plan.statement.sql, dict(plan.statement.params)
                            )
                            if tracer.enabled:
                                stmt_trace.add_rows(max(cursor.rowcount, 0))
                                sspan.set("rule", rule.rule_name).set(
                                    "phase", "firing"
                                ).set(
                                    "fingerprint",
                                    statement_fingerprint(plan.statement.sql),
                                )
                with tracer.span("exchange.publish") as pspan:
                    for rule in sql.rules:
                        watermark = watermarks[rule.rule_name]
                        fired = (
                            self.store.max_rowid(rule.firing_table) - watermark
                        )
                        if fired <= 0:
                            continue
                        result.firings += fired
                        runtime = {"wm": watermark}
                        for statement in rule.head_inserts:
                            conn.execute(
                                statement.sql, {**statement.params, **runtime}
                            )
                        if rule.provenance_insert is not None:
                            conn.execute(
                                rule.provenance_insert.sql,
                                {**rule.provenance_insert.params, **runtime},
                            )
                    new_counts = self.store.promote_round(
                        stage_sql, sql.relations
                    )
                    for relation, fresh in new_counts.items():
                        rel_counts[relation] = (
                            rel_counts.get(relation, 0) + fresh
                        )
                        self.store.note_rows_added(relation, fresh)
                        published += fresh
                    pspan.set(
                        "inserted", sum(new_counts.values())
                    )
                round_span.set("round", iteration)
                delta_counts = new_counts
        result.iterations = iteration
        if resident:
            # The store already holds every derived row; nothing is
            # materialized back into Python.
            result.inserted = published
        else:
            with tracer.span("exchange.writeback") as wspan:
                result.inserted = self._write_back(
                    program, sql, instance, graph
                )
                wspan.set("inserted", result.inserted)
            # Write-back journaled the derived rows as appends, but the
            # mirror already has them — fast-forward instead of
            # reshipping on the next sync.
            self.store.mark_synced(instance)
        return result

    def propagate_deletions(
        self,
        program: CompiledExchangeProgram,
        catalog: Catalog,
        mappings: TMapping[str, SchemaMapping],
        instance: Instance,
        max_iterations: int | None = None,
    ) -> EvaluationResult:
        """Resident deletion propagation (Q5) over the reachability
        index, after victims left the ``R_l`` tables
        (:meth:`ExchangeStore.delete_relation_row` recorded the heads
        of their fires as suspects).  One transaction stages the dead
        cone (:meth:`ReachabilityIndex.begin_prune`) and kills it
        (:meth:`ReachabilityIndex.finish_prune`): work proportional to
        the cone, not the instance — see ``docs/graph-index.md``.
        A victim that a pending local insert re-inserted is stored
        again first (:meth:`ExchangeStore.ship_reinserted_victims`),
        which sends the run down the incomplete-suspects path: the
        index is rebuilt and the kernel runs over every derived row.

        Returns an :class:`EvaluationResult` with ``rows_deleted``,
        ``pm_rows_collected``, ``iterations`` (kernel rounds) and
        ``pm_rows_scanned`` (fires visited) filled in.
        """
        if program.sql is None:
            program.sql = lower_program(
                program.compiled, catalog, mappings, self.store.codec
            )
        if program.reach is None:
            program.reach = lower_reach_program(
                program.compiled, catalog, self.store.codec, mappings
            )
        rsql = program.reach
        rsql.check_local_leaves()
        self.store.ensure_schema(
            catalog, mappings, program.sql, program.fingerprint
        )
        index = self.store.reach_index
        index.ensure_schema(rsql)
        reshipped = self.store.ship_reinserted_victims(instance)
        tracer = self.tracer
        conn = self.store.connection
        result = EvaluationResult(instance, ProvenanceGraph(), engine="sqlite")
        try:
            with conn:
                with tracer.span("deletion.cone") as cspan:
                    cone = index.begin_prune(rsql, max_iterations, tracer)
                    cspan.set("suspects", cone.suspects).set(
                        "cone", cone.cone
                    ).set("dead", cone.dead).set("rounds", cone.rounds)
                with tracer.span("deletion.kill") as kspan:
                    removed_counts, pm_collected = index.finish_prune(
                        rsql, cone.whole, tracer
                    )
                    kspan.set(
                        "rows_deleted", sum(removed_counts.values())
                    ).set("pm_rows_collected", pm_collected)
        finally:
            index.reset_temp_state()
        # The count cache moves only after the kill transaction commits
        # (a rollback must leave it describing the uncut tables).
        for relation, removed in removed_counts.items():
            self.store.note_rows_removed(relation, removed)
        self.store.retire_victims()
        # Only now ship the other unexchanged local rows: like the
        # graph engine's unrecorded firings, they support nothing in
        # this propagation (victim marking already shrank both sides).
        with tracer.span("exchange.mirror") as mspan:
            mirrored, result.relations_synced = self.store.sync_instance(
                instance, resident=True
            )
            result.rows_mirrored = mirrored + reshipped
            mspan.set("rows", result.rows_mirrored).set(
                "relations", result.relations_synced
            )
        result.iterations = cone.rounds
        result.pm_rows_scanned = cone.fires_visited
        result.rows_deleted = sum(removed_counts.values())
        result.pm_rows_collected = pm_collected
        return result

    # -- internals ---------------------------------------------------------

    def _seed_deltas(
        self,
        instance: Instance,
        sql: ProgramSQL,
        initial_delta: TMapping[str, set[Row]] | None,
        rel_counts: dict[str, int],
    ) -> dict[str, int]:
        conn = self.store.connection
        counts: dict[str, int] = {}
        with conn:
            if initial_delta is None:
                for relation in sql.relations:
                    conn.execute(
                        f"INSERT INTO {_q(delta_table(relation))} "
                        f"SELECT * FROM {_q(relation)}"
                    )
                    # The delta was seeded from the mirror table, whose
                    # size is already known — no COUNT(*) rescan.
                    counts[relation] = rel_counts.get(relation, 0)
                return counts
            for relation, rows in initial_delta.items():
                rows = {tuple(row) for row in rows}
                if not rows:
                    continue
                missing = [
                    row for row in rows if not instance.contains(relation, row)
                ]
                if missing:
                    raise EvaluationError(
                        f"initial_delta rows not in the instance for "
                        f"{relation}: {missing[:3]}; insert them before "
                        "evaluating"
                    )
                if relation not in sql.relations:
                    continue
                arity = len(next(iter(rows)))
                placeholders = ", ".join("?" for _ in range(arity))
                conn.executemany(
                    f"INSERT INTO {_q(delta_table(relation))} "
                    f"VALUES ({placeholders})",
                    [self.store.codec.encode_row(row) for row in sorted(rows, key=repr)],
                )
                counts[relation] = len(rows)
        return counts

    @staticmethod
    def _any_runnable(
        sql: ProgramSQL, delta_counts: dict[str, int]
    ) -> bool:
        for rule in sql.rules:
            for plan in rule.plans:
                if delta_counts.get(plan.seed_relation):
                    return True
        return False

    @staticmethod
    def _blocked(
        plan, delta_counts: dict[str, int], rel_counts: dict[str, int]
    ) -> bool:
        # Mirrors the memory engine: when every stored row of a guarded
        # relation is in the delta, the guard rejects every candidate.
        for relation in plan.guarded_relations:
            count = delta_counts.get(relation)
            if count and count == rel_counts.get(relation, 0):
                return True
        return False

    def _write_back(
        self,
        program: CompiledExchangeProgram,
        sql: ProgramSQL,
        instance: Instance,
        graph: ProvenanceGraph,
    ) -> int:
        """Batched conversion of this run's firings into instance rows
        and provenance derivations (the lazy graph view)."""
        conn = self.store.connection
        codec = self.store.codec
        inserted = 0
        for rule, crule in zip(sql.rules, program.compiled):
            select = ", ".join(
                _q(slot_column(s)) for s in range(rule.num_slots)
            )
            cursor = conn.execute(
                f"SELECT {select or 'rowid'} FROM {_q(rule.firing_table)} "
                "ORDER BY rowid"
            )
            for raw in cursor:
                slots = [
                    codec.decode(value, type_)
                    for value, type_ in zip(raw, rule.slot_types)
                ]
                sources = tuple(
                    TupleNode(relation, ground_extractors(extractors, slots))
                    for relation, extractors in rule.body_extractors
                )
                targets = []
                for relation, extractors in crule.head:
                    row = ground_extractors(extractors, slots)
                    if instance.insert(relation, row):
                        inserted += 1
                    targets.append(TupleNode(relation, row))
                graph.add_derivation(
                    DerivationNode(rule.rule_name, sources, tuple(targets))
                )
        return inserted
