"""Read-only serving sessions over a resident store file.

A :class:`ReaderSession` opens its *own* SQLite connection to the store
path with ``mode=ro`` + ``PRAGMA query_only`` — it shares nothing with
the writer but the WAL file — and answers ``lineage`` /
``derivability`` / ``trusted`` from the persisted reachability index
(PR 9's ``__ridx_*`` tables) at the epoch its snapshot observes.

The consistency protocol (docs/serving.md spells out why it is sound):

1. ``BEGIN`` — the first read pins a WAL snapshot for the whole query.
2. Read ``index_state`` / ``index_epoch`` / ``dirty_run`` from
   ``__meta`` *inside* the snapshot.  Every writer commit that mutates
   relation content either bumps the epoch in the same transaction or
   happens while the state is ``stale``/dirty, so a snapshot showing
   ``current`` + clean is index-consistent at its epoch.
3. Not servable → release, back off, retry (bounded); the session
   *never* extrapolates — a reader answer is always exactly right for
   the epoch it reports.
4. Epoch drift → drop the per-epoch caches and rebuild them under the
   new snapshot.
5. Answer, then ``ROLLBACK`` so the snapshot never outlives the query
   (a held snapshot is what makes writer checkpoints report busy).

Read-only connections cannot create TEMP tables, so the queries here
are pure SELECTs (shapes shared with the writer via
:mod:`repro.exchange.reach_index`) plus Python-side fixpoints.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Sequence
from urllib.parse import quote

from repro.errors import (
    ServeError,
    ServeUnavailable,
    StaleSnapshotError,
)
from repro.exchange.reach_index import (
    ANCESTOR_CTE_SQL,
    HEAD_RANGE_PROBE_SQL,
    INTERVAL_PROBE_SQL,
    INTERVAL_WINDOW_SQL,
    REL_SHIFT,
    RESULT_CACHE_CAP,
    liveness_over_edges,
    load_edges,
    load_relnos,
    local_head_error,
)
from repro.exchange.sql_executor import normalize_store_path
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.provenance.graph import TupleNode
from repro.relational.instance import Catalog
from repro.relational.schema import is_local_name
from repro.serve.retry import BackoffPolicy, is_busy_error, run_with_retry
from repro.storage.encoding import ValueCodec, quote_identifier as _q

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cdss.trust import TrustPolicy

__all__ = [
    "ReadStats",
    "ReaderPool",
    "ReaderSession",
    "SnapshotState",
]

#: default retry budget for pinning a servable snapshot: ~40 attempts
#: with a 50 ms cap totals about two seconds of sleep — enough to ride
#: out an index rebuild on soak-sized stores.
DEFAULT_RETRY = BackoffPolicy(
    attempts=40, base_delay=0.001, multiplier=2.0, max_delay=0.05
)

#: rows fetched per chunked ``rowid IN (...)`` leaf lookup.
_LEAF_CHUNK = 256

#: sentinel cached for lineage probes on unknown/unstored nodes, so a
#: repeated miss is a cache hit that re-raises ``KeyError``.
_KEY_ERROR = object()

_META_SQL = (
    'SELECT key, value FROM "__meta" WHERE key IN '
    "('index_state', 'index_epoch', 'dirty_run', "
    "'index_enc_epoch', 'index_tree_exact')"
)


@dataclass(frozen=True)
class SnapshotState:
    """The ``__meta`` fields a pinned snapshot observed."""

    state: str
    epoch: int
    dirty: bool
    enc_epoch: int
    tree_exact: bool

    @property
    def servable(self) -> bool:
        """True iff the index is consistent at :attr:`epoch`."""
        return self.state == "current" and not self.dirty

    @property
    def interval_ready(self) -> bool:
        """True iff the interval encoding covers this epoch."""
        return self.tree_exact and self.enc_epoch == self.epoch


@dataclass(frozen=True)
class ReadStats:
    """Bookkeeping for the last query a session answered."""

    kind: str
    epoch: int
    cache_hit: bool
    retries: int
    wall_seconds: float
    #: ``"cache"``, ``"interval"``, ``"cte"``, ``"fixpoint"`` or
    #: ``"miss"`` (a lineage probe on an unknown/unstored node).
    path: str


class _EpochCache:
    """Everything a session memoizes for one observed epoch."""

    __slots__ = ("epoch", "results", "nodes", "edges", "refs", "checked")

    def __init__(self, epoch: int) -> None:
        self.epoch = epoch
        #: query key -> answer (FIFO-capped like the writer's cache).
        self.results: dict[object, object] = {}
        #: relation -> [(node id, TupleNode), ...]
        self.nodes: dict[str, list[tuple[int, TupleNode]]] = {}
        #: (fires, bodies) from the index edge tables, or None.
        self.edges: (
            tuple[dict[int, tuple[str, int]], dict[int, tuple[int, ...]]]
            | None
        ) = None
        #: strong refs keeping id()-keyed trust conditions alive.
        self.refs: list[object] = []
        #: :meth:`ReaderSession._check_local_heads` passed at this epoch.
        self.checked = False


class ReaderSession:
    """One read-only connection serving index queries at its snapshot
    epoch.

    Sessions are cheap (the connection opens lazily) and single-user:
    share a store between threads with one session per thread or a
    :class:`ReaderPool`, never one session across threads concurrently.
    """

    def __init__(
        self,
        path: str,
        catalog: Catalog,
        *,
        retry: BackoffPolicy | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: "Tracer | NullTracer" = NULL_TRACER,
        on_pinned: Callable[[SnapshotState], None] | None = None,
    ) -> None:
        self.path = normalize_store_path(path)
        if self.path == ":memory:":
            raise ServeError(
                "reader sessions need an on-disk store path; an in-memory "
                "store is private to the writer's connection"
            )
        self.catalog = catalog
        self.retry = retry if retry is not None else DEFAULT_RETRY
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer
        #: test hook: called with the observed state while the snapshot
        #: is still pinned (the deterministic harness parks readers
        #: here to schedule writer steps against a held snapshot).
        self.on_pinned = on_pinned
        self.last_read: ReadStats | None = None
        self.closed = False
        self._conn: sqlite3.Connection | None = None
        self._codec = ValueCodec()
        self._relnos: dict[str, int] = {}
        self._cache: _EpochCache | None = None
        self._prepared: dict[object, str] = {}
        self.prepared_hits = 0
        self.prepared_misses = 0

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "ReaderSession":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:
        """Release the connection; the session cannot be reused."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None
        self.closed = True

    # -- connection / snapshot plumbing --------------------------------------

    def _open(self) -> sqlite3.Connection:
        uri = f"file:{quote(self.path, safe='/')}?mode=ro"
        conn = sqlite3.connect(
            uri,
            uri=True,
            timeout=0.5,
            isolation_level=None,
            check_same_thread=False,
            cached_statements=512,
        )
        conn.execute("PRAGMA query_only = ON")
        return conn

    def _connect(self) -> sqlite3.Connection:
        if self.closed:
            raise ServeError("reader session is closed")
        conn = self._conn
        if conn is None:

            def on_retry(attempt: int, error: BaseException) -> None:
                self.metrics.add("serve.busy_retries")

            conn = run_with_retry(
                self._open,
                self.retry,
                retryable=lambda e: isinstance(e, sqlite3.OperationalError),
                on_retry=on_retry,
            )
            self._conn = conn
        return conn

    @contextmanager
    def _pin(self) -> Iterator[sqlite3.Connection]:
        conn = self._connect()
        conn.execute("BEGIN")
        try:
            yield conn
        finally:
            conn.execute("ROLLBACK")

    def _read_state(self, conn: sqlite3.Connection) -> SnapshotState:
        try:
            meta = dict(conn.execute(_META_SQL))
        except sqlite3.OperationalError as error:
            if "no such table" in str(error):
                raise ServeError(
                    f"{self.path} is not a resident exchange store "
                    "(missing __meta table)"
                ) from error
            raise
        return SnapshotState(
            state=str(meta.get("index_state") or ""),
            epoch=int(meta.get("index_epoch") or 0),
            dirty=bool(int(meta.get("dirty_run") or 0)),
            enc_epoch=int(meta.get("index_enc_epoch") or -1),
            tree_exact=bool(int(meta.get("index_tree_exact") or 0)),
        )

    def _epoch_cache(self, state: SnapshotState) -> _EpochCache:
        cache = self._cache
        if cache is None or cache.epoch != state.epoch:
            if cache is not None:
                self.metrics.add("serve.snapshot_refreshes")
            cache = _EpochCache(state.epoch)
            self._cache = cache
            # New relations may have been registered since the last
            # epoch; re-read the relno map under the fresh snapshot.
            self._relnos = {}
        return cache

    def _prepared_sql(self, key: object, build: Callable[[], str]) -> str:
        sql = self._prepared.get(key)
        if sql is None:
            self.prepared_misses += 1
            sql = build()
            self._prepared[key] = sql
        else:
            self.prepared_hits += 1
        return sql

    # -- query driver --------------------------------------------------------

    def _answer(
        self,
        kind: str,
        key: object,
        compute: Callable[
            [sqlite3.Connection, SnapshotState, _EpochCache],
            tuple[object, str],
        ],
    ) -> object:
        """Pin a servable snapshot (with retry), serve *key* from the
        epoch cache or *compute*, and record :attr:`last_read`."""
        started = time.perf_counter()
        retries = 0

        def attempt() -> tuple[object, SnapshotState, bool, str]:
            with self._pin() as conn:
                state = self._read_state(conn)
                if self.on_pinned is not None:
                    self.on_pinned(state)
                if not state.servable:
                    raise StaleSnapshotError(
                        f"index {state.state or 'absent'!r}"
                        f"{' (dirty run)' if state.dirty else ''} "
                        f"at epoch {state.epoch}"
                    )
                cache = self._epoch_cache(state)
                if not cache.checked:
                    self._check_local_heads(conn)
                    cache.checked = True
                if key in cache.results:
                    return cache.results[key], state, True, "cache"
                value, path = compute(conn, state, cache)
                if len(cache.results) >= RESULT_CACHE_CAP:
                    cache.results.pop(next(iter(cache.results)))
                cache.results[key] = value
                return value, state, False, path

        def on_retry(attempt_no: int, error: BaseException) -> None:
            nonlocal retries
            retries = attempt_no
            name = (
                "serve.busy_retries"
                if is_busy_error(error)
                else "serve.stale_retries"
            )
            self.metrics.add(name)

        try:
            value, state, hit, path = run_with_retry(
                attempt,
                self.retry,
                retryable=lambda e: (
                    isinstance(e, StaleSnapshotError) or is_busy_error(e)
                ),
                on_retry=on_retry,
            )
        except StaleSnapshotError as error:
            self.metrics.add("serve.unavailable")
            raise ServeUnavailable(
                f"no servable snapshot after {self.retry.attempts} "
                f"attempts: {error}"
            ) from error
        wall = time.perf_counter() - started
        self.metrics.add("serve.queries")
        if hit:
            self.metrics.add("serve.cache_hits")
        self.last_read = ReadStats(
            kind=kind,
            epoch=state.epoch,
            cache_hit=hit,
            retries=retries,
            wall_seconds=wall,
            path=path,
        )
        with self.tracer.span("serve.query") as span:
            span.set("kind", kind).set("epoch", state.epoch)
            span.set("cache_hit", hit).set("path", path)
        return value

    # -- shared read shapes --------------------------------------------------

    def _relno(self, conn: sqlite3.Connection, relation: str) -> int | None:
        if relation not in self._relnos:
            self._relnos = load_relnos(conn)
        return self._relnos.get(relation)

    def _covered(self, conn: sqlite3.Connection) -> list[str]:
        """Catalog relations the index numbers, in catalog order."""
        if not self._relnos:
            self._relnos = load_relnos(conn)
        return [
            name for name in self.catalog.names() if name in self._relnos
        ]

    def _check_local_heads(self, conn: sqlite3.Connection) -> None:
        """Refuse a store where a stored fire derives into a
        local-contribution relation, as the writer's queries refuse the
        program (:meth:`ReachSQL.check_local_leaves`): liveness seeds
        every stored ``R_l`` row, so a derived-only one would count as
        a base tuple.  One indexed probe per local relation per
        epoch."""
        for relation in self._covered(conn):
            if not is_local_name(relation):
                continue
            base = self._relnos[relation] * REL_SHIFT
            found = conn.execute(
                HEAD_RANGE_PROBE_SQL, (base, base + REL_SHIFT)
            ).fetchone()
            if found is not None:
                raise local_head_error(str(found[0]), relation)

    def _nodes(
        self,
        conn: sqlite3.Connection,
        cache: _EpochCache,
        relation: str,
        relno: int,
    ) -> list[tuple[int, TupleNode]]:
        nodes = cache.nodes.get(relation)
        if nodes is None:
            base = relno * REL_SHIFT
            schema = self.catalog[relation]
            codec = self._codec
            sql = self._prepared_sql(
                ("nodes", relation),
                lambda: f"SELECT rowid, * FROM {_q(relation)}",
            )
            nodes = [
                (
                    base + rowid,
                    TupleNode(relation, codec.decode_row(raw, schema)),
                )
                for rowid, *raw in conn.execute(sql)
            ]
            cache.nodes[relation] = nodes
        return nodes

    def _edges(
        self, conn: sqlite3.Connection, cache: _EpochCache
    ) -> tuple[dict[int, tuple[str, int]], dict[int, tuple[int, ...]]]:
        if cache.edges is None:
            cache.edges = load_edges(conn)
        return cache.edges

    # -- lineage -------------------------------------------------------------

    def lineage(self, node: TupleNode) -> frozenset[TupleNode]:
        """Set of local base tuples *node* derives from (Q6), at the
        session's observed epoch.

        Raises :class:`KeyError` when *node* is not a stored tuple —
        the same contract as :meth:`repro.cdss.system.CDSS.lineage`.
        """
        key = ("lineage", node.relation, tuple(node.values))
        value = self._answer(
            "lineage",
            key,
            lambda conn, state, cache: self._lineage(
                conn, state, cache, node
            ),
        )
        if value is _KEY_ERROR:
            raise KeyError(node)
        if not isinstance(value, frozenset):  # pragma: no cover - invariant
            raise ServeError("lineage cache corrupted")
        return value

    def _lineage(
        self,
        conn: sqlite3.Connection,
        state: SnapshotState,
        cache: _EpochCache,
        node: TupleNode,
    ) -> tuple[object, str]:
        if node.relation not in self.catalog:
            return _KEY_ERROR, "miss"
        relno = self._relno(conn, node.relation)
        if relno is None:
            # Registration precedes every maintained epoch; a missing
            # relno with rows present means this snapshot predates the
            # index — not servable, retry.
            if self._stored_rowid(conn, node) is None:
                return _KEY_ERROR, "miss"
            raise StaleSnapshotError(
                f"{node.relation} not registered in the index"
            )
        rowid = self._stored_rowid(conn, node)
        if rowid is None:
            return _KEY_ERROR, "miss"
        qid = relno * REL_SHIFT + rowid
        if state.interval_ready:
            closure, path = self._interval_closure(conn, qid)
        else:
            closure, path = self._cte_closure(conn, qid)
        leaves: set[TupleNode] = set()
        for relation in self._covered(conn):
            if not is_local_name(relation):
                continue
            leaf_relno = self._relnos[relation]
            base = leaf_relno * REL_SHIFT
            rowids = [
                nid - base
                for nid in closure
                if base <= nid < base + REL_SHIFT
            ]
            if rowids:
                leaves.update(
                    self._leaf_nodes(conn, cache, relation, rowids)
                )
        return frozenset(leaves), path

    def _stored_rowid(
        self, conn: sqlite3.Connection, node: TupleNode
    ) -> int | None:
        schema = self.catalog[node.relation]
        encoded = self._codec.encode_row(tuple(node.values))
        sql = self._prepared_sql(
            ("rowid", node.relation),
            lambda: (
                f"SELECT rowid FROM {_q(node.relation)} WHERE "
                + " AND ".join(
                    f"{_q(c)} IS ?" for c in schema.attribute_names
                )
            ),
        )
        try:
            found = conn.execute(sql, encoded).fetchone()
        except sqlite3.OperationalError as error:
            if "no such table" in str(error):
                return None
            raise
        return None if found is None else int(found[0])

    def _interval_closure(
        self, conn: sqlite3.Connection, qid: int
    ) -> tuple[set[int], str]:
        row = conn.execute(INTERVAL_PROBE_SQL, (qid,)).fetchone()
        if row is None:
            # No info row: the node has no edges; closure is itself.
            return {qid}, "interval"
        (t,) = row
        ids = {
            int(i) for (i,) in conn.execute(INTERVAL_WINDOW_SQL, (t, t))
        }
        return ids, "interval"

    def _cte_closure(
        self, conn: sqlite3.Connection, qid: int
    ) -> tuple[set[int], str]:
        ids = {int(i) for (i,) in conn.execute(ANCESTOR_CTE_SQL, (qid,))}
        return ids, "cte"

    def _leaf_nodes(
        self,
        conn: sqlite3.Connection,
        cache: _EpochCache,
        relation: str,
        rowids: Sequence[int],
    ) -> list[TupleNode]:
        # If the whole relation is already decoded for this epoch, slice
        # it instead of re-querying.
        cached = cache.nodes.get(relation)
        if cached is not None:
            base = self._relnos[relation] * REL_SHIFT
            wanted = {base + rowid for rowid in rowids}
            return [node for nid, node in cached if nid in wanted]
        schema = self.catalog[relation]
        codec = self._codec
        out: list[TupleNode] = []
        for start in range(0, len(rowids), _LEAF_CHUNK):
            chunk = list(rowids[start:start + _LEAF_CHUNK])
            size = len(chunk)
            sql = self._prepared_sql(
                ("leaves", relation, size),
                lambda relation=relation, size=size: (
                    f"SELECT * FROM {_q(relation)} WHERE rowid IN "
                    f"({', '.join('?' for _ in range(size))})"
                ),
            )
            out.extend(
                TupleNode(relation, codec.decode_row(raw, schema))
                for raw in conn.execute(sql, chunk)
            )
        return out

    # -- derivability / trust ------------------------------------------------

    def derivability(self) -> dict[TupleNode, bool]:
        """Derivability annotation of every stored tuple (Q5) at the
        session's observed epoch."""
        value = self._answer(
            "derivability",
            ("derivability",),
            lambda conn, state, cache: (
                self._annotate(conn, cache, None),
                "fixpoint",
            ),
        )
        if not isinstance(value, dict):  # pragma: no cover - invariant
            raise ServeError("derivability cache corrupted")
        return dict(value)

    def trusted(self, policy: "TrustPolicy") -> dict[TupleNode, bool]:
        """Trust annotation of every stored tuple under *policy* (Q7)
        at the session's observed epoch."""
        distrusted = frozenset(policy.distrusted_mappings)
        conditions: list[tuple[str, object]] = []
        for relation in self.catalog.names():
            if not is_local_name(relation):
                continue
            condition = policy.condition_for(relation)
            if condition is not None:
                conditions.append((relation, condition))
        key = (
            "trusted",
            policy.default_trust,
            distrusted,
            tuple(
                (relation, id(condition))
                for relation, condition in sorted(
                    conditions, key=lambda item: item[0]
                )
            ),
        )

        def compute(
            conn: sqlite3.Connection,
            state: SnapshotState,
            cache: _EpochCache,
        ) -> tuple[object, str]:
            # The key holds id()s of the conditions; pin the objects so
            # a collected callable's id cannot alias a new one.
            cache.refs.extend(condition for _, condition in conditions)
            return self._annotate(conn, cache, policy), "fixpoint"

        value = self._answer("trusted", key, compute)
        if not isinstance(value, dict):  # pragma: no cover - invariant
            raise ServeError("trusted cache corrupted")
        return dict(value)

    def _annotate(
        self,
        conn: sqlite3.Connection,
        cache: _EpochCache,
        policy: "TrustPolicy | None",
    ) -> dict[TupleNode, bool]:
        covered = self._covered(conn)
        seeds: set[int] = set()
        for relation in covered:
            if not is_local_name(relation):
                continue
            relno = self._relnos[relation]
            base = relno * REL_SHIFT
            condition = (
                None if policy is None else policy.condition_for(relation)
            )
            if condition is None:
                if policy is not None and not policy.default_trust:
                    continue
                sql = self._prepared_sql(
                    ("seed", relation),
                    lambda relation=relation: (
                        f"SELECT rowid FROM {_q(relation)}"
                    ),
                )
                seeds.update(base + int(r) for (r,) in conn.execute(sql))
            else:
                seeds.update(
                    nid
                    for nid, node in self._nodes(conn, cache, relation, relno)
                    if condition(node.values)
                )
        fires, bodies = self._edges(conn, cache)
        distrusted: frozenset[str] = (
            frozenset() if policy is None
            else frozenset(policy.distrusted_mappings)
        )
        live = liveness_over_edges(fires, bodies, seeds, distrusted)
        values: dict[TupleNode, bool] = {}
        for relation in covered:
            relno = self._relnos[relation]
            for nid, node in self._nodes(conn, cache, relation, relno):
                values[node] = nid in live
        return values


class ReaderPool:
    """A bounded pool of :class:`ReaderSession` instances.

    Sessions are created lazily up to *size* and handed out one per
    :meth:`session` context; a checkout blocks (up to *timeout*
    seconds) when all sessions are busy.  All sessions share one
    metrics registry, whose counters are therefore approximate under
    concurrency (increments may race); exact assertions belong on
    single-threaded sessions.
    """

    def __init__(
        self,
        path: str,
        catalog: Catalog,
        *,
        size: int = 4,
        retry: BackoffPolicy | None = None,
        metrics: MetricsRegistry | None = None,
        timeout: float = 30.0,
    ) -> None:
        if size < 1:
            raise ServeError("reader pool needs at least one session")
        self.path = normalize_store_path(path)
        self.catalog = catalog
        self.size = size
        self.retry = retry
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.timeout = timeout
        self.closed = False
        self._lock = threading.Condition()
        self._idle: list[ReaderSession] = []
        self._created = 0

    def __enter__(self) -> "ReaderPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _checkout(self) -> ReaderSession:
        with self._lock:
            deadline = time.monotonic() + self.timeout
            while True:
                if self.closed:
                    raise ServeError("reader pool is closed")
                if self._idle:
                    return self._idle.pop()
                if self._created < self.size:
                    self._created += 1
                    return ReaderSession(
                        self.path,
                        self.catalog,
                        retry=self.retry,
                        metrics=self.metrics,
                    )
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ServeUnavailable(
                        f"no reader session free within {self.timeout:g}s "
                        f"(pool size {self.size})"
                    )
                self._lock.wait(remaining)

    def _checkin(self, session: ReaderSession) -> None:
        with self._lock:
            if self.closed:
                session.close()
                self._created -= 1
            else:
                self._idle.append(session)
            self._lock.notify()

    @contextmanager
    def session(self) -> Iterator[ReaderSession]:
        """Check a session out for the duration of the ``with`` block."""
        session = self._checkout()
        try:
            yield session
        finally:
            self._checkin(session)

    def close(self) -> None:
        """Close idle sessions and refuse further checkouts.

        Sessions currently checked out are closed as they come back.
        """
        with self._lock:
            self.closed = True
            for session in self._idle:
                session.close()
                self._created -= 1
            self._idle.clear()
            self._lock.notify_all()
