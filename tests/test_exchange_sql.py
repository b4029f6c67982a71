"""Tests for the SQL-backed update-exchange engine.

The acceptance bar: ``engine="sqlite"`` must produce instances and
provenance graphs *identical* to ``engine="memory"`` — on the paper's
running example (cyclic and acyclic), with labeled nulls, across
incremental calls, and out-of-core (on-disk store).
"""

import pytest

from repro.cdss import CDSS, Peer
from repro.errors import ExchangeError
from repro.exchange.sql_executor import ExchangeStore, SQLiteExchangeEngine
from repro.relational import RelationSchema
from repro.storage import provenance_rows
from repro.storage.encoding import quote_identifier

# The running example (Example 2.1 / Figure 1), self-contained so this
# module imports identically from the repo root and from tests/.
EXAMPLE_MAPPINGS = [
    "m1: C(i, n) :- A(i, s, _), N(i, n, false)",
    "m2: N(i, n, true) :- A(i, n, _)",
    "m3: N(i, n, false) :- C(i, n)",
    "m4: O(n, h, true) :- A(i, n, h)",
    "m5: O(n, h, true) :- A(i, _, h), C(i, n)",
]


def example_peers() -> list[Peer]:
    return [
        Peer.of(
            "P1",
            [
                RelationSchema.of("A", ["id", ("sn", "str"), "len"], key=["id"]),
                RelationSchema.of("C", ["id", ("name", "str")], key=["id", "name"]),
            ],
        ),
        Peer.of(
            "P2",
            [
                RelationSchema.of(
                    "N",
                    ["id", ("name", "str"), ("canon", "bool")],
                    key=["id", "name"],
                )
            ],
        ),
        Peer.of(
            "P3",
            [
                RelationSchema.of(
                    "O", [("name", "str"), "h", ("animal", "bool")], key=["name"]
                )
            ],
        ),
    ]


def populate_example(system: CDSS) -> CDSS:
    insert_example_data(system)
    system.exchange()
    return system


def example_twins(mappings=EXAMPLE_MAPPINGS):
    """Two structurally identical CDSSs over the running example."""
    out = []
    for _ in range(2):
        system = CDSS(example_peers())
        system.add_mappings(mappings)
        out.append(system)
    return out


def insert_example_data(system: CDSS) -> None:
    """Figure 1's base data, without running an exchange."""
    system.insert_local("A", (1, "sn1", 7))
    system.insert_local("A", (2, "sn1", 5))
    system.insert_local("N", (1, "cn1", False))
    system.insert_local("C", (2, "cn2"))


def assert_same_state(memory: CDSS, sqlite: CDSS) -> None:
    assert memory.instance == sqlite.instance
    assert memory.graph.tuples == sqlite.graph.tuples
    assert memory.graph.derivations == sqlite.graph.derivations


def stored_pm_rows(store, mapping):
    """Decode a store's ``P_<mapping>`` extension into value rows (the
    shape :func:`repro.storage.provenance_rows` yields from a graph)."""
    return {
        tuple(
            store.codec.decode(value, column.type)
            for value, column in zip(row, mapping.provenance_columns)
        )
        for row in store.connection.execute(
            f"SELECT * FROM {quote_identifier(f'P_{mapping.name}')}"
        )
    }


class TestEngineEquivalence:
    def test_running_example_cyclic(self):
        memory, sql = example_twins()
        populate_example(memory)
        insert_example_data(sql)
        result = sql.exchange(engine="sqlite")
        assert result.engine == "sqlite"
        assert result.firings == memory.last_exchange.firings
        assert result.inserted == memory.last_exchange.inserted
        assert_same_state(memory, sql)

    def test_running_example_acyclic(self):
        mappings = [m for m in EXAMPLE_MAPPINGS if not m.startswith("m3")]
        memory, sql = example_twins(mappings)
        populate_example(memory)
        insert_example_data(sql)
        sql.exchange(engine="sqlite")
        assert_same_state(memory, sql)

    def test_incremental_updates(self):
        memory, sql = example_twins()
        for system, engine in ((memory, "memory"), (sql, "sqlite")):
            system.insert_local("A", (1, "sn1", 7))
            system.insert_local("N", (1, "cn1", False))
            system.exchange(engine=engine)
            system.insert_local("A", (2, "sn1", 5))
            system.insert_local("C", (2, "cn2"))
            system.exchange(engine=engine)
        assert_same_state(memory, sql)

    def test_skolem_values_join_in_sql(self):
        def build():
            system = CDSS(
                [
                    Peer.of(
                        "P",
                        [
                            RelationSchema.of("A", ["x"]),
                            RelationSchema.of("B", ["x", "y"]),
                            RelationSchema.of("D", ["x", "y"]),
                        ],
                    )
                ]
            )
            # Existential y becomes a labeled null; m2 must join on it.
            system.add_mapping("m1: B(x, y) :- A(x)", name="m1")
            system.add_mapping("m2: D(x, y) :- B(x, y), A(x)", name="m2")
            system.insert_local_many("A", [(1,), (2,)])
            return system

        memory, sql = build(), build()
        memory.exchange()
        sql.exchange(engine="sqlite")
        assert_same_state(memory, sql)
        assert memory.instance.size("D") == 2

    def test_empty_incremental_exchange(self):
        memory, sql = example_twins()
        populate_example(memory)
        insert_example_data(sql)
        sql.exchange(engine="sqlite")
        memory.exchange()  # no pending rows
        result = sql.exchange(engine="sqlite")  # no pending rows
        assert result.iterations == 0
        assert result.inserted == 0
        assert_same_state(memory, sql)


class TestProvenanceRelations:
    def test_pm_rows_match_graph_encoding(self):
        _, system = example_twins()
        insert_example_data(system)
        system.exchange(engine="sqlite")
        store = system.exchange_store
        for name, mapping in system.mappings.items():
            if mapping.is_superfluous or not mapping.provenance_columns:
                continue
            expected = set(provenance_rows(mapping, system.graph))
            assert stored_pm_rows(store, mapping) == expected, name

    def test_pm_rows_accumulate_incrementally(self):
        _, system = example_twins()
        system.insert_local("A", (1, "sn1", 7))
        system.insert_local("N", (1, "cn1", False))
        system.exchange(engine="sqlite")
        system.insert_local("A", (2, "sn1", 5))
        system.insert_local("C", (2, "cn2"))
        system.exchange(engine="sqlite")
        store = system.exchange_store
        mapping = system.mappings["m1"]
        assert stored_pm_rows(store, mapping) == set(
            provenance_rows(mapping, system.graph)
        )


class TestExchangeStore:
    def test_on_disk_store(self, tmp_path):
        path = str(tmp_path / "exchange.db")
        memory, sql = example_twins()
        populate_example(memory)
        insert_example_data(sql)
        sql.exchange(engine="sqlite", storage=path)
        assert sql.exchange_store.path == path
        # Incremental call with the same path reuses the store.
        store = sql.exchange_store
        sql.insert_local("A", (3, "sn3", 9))
        memory.insert_local("A", (3, "sn3", 9))
        sql.exchange(engine="sqlite", storage=path)
        memory.exchange()
        assert sql.exchange_store is store
        assert_same_state(memory, sql)

    def test_store_context_manager(self):
        with ExchangeStore() as store:
            assert not store.closed
        assert store.closed
        store.close()  # idempotent

    def test_engine_rejects_closed_store(self):
        store = ExchangeStore()
        store.close()
        with pytest.raises(ExchangeError):
            SQLiteExchangeEngine(store)

    def test_explicit_store_hook(self):
        _, system = example_twins()
        system.insert_local("A", (1, "sn1", 7))
        with ExchangeStore() as store:
            system.exchange(engine="sqlite", storage=store)
            assert system.exchange_store is store

    def test_replaced_owned_store_is_closed(self, tmp_path):
        _, system = example_twins()
        system.insert_local("A", (1, "sn1", 7))
        system.exchange(engine="sqlite")  # CDSS-owned default store
        owned = system.exchange_store
        system.insert_local("A", (2, "sn2", 8))
        system.exchange(engine="sqlite", storage=str(tmp_path / "a.db"))
        assert owned.closed  # no connection leak

    def test_caller_store_not_closed_on_replacement(self, tmp_path):
        _, system = example_twins()
        system.insert_local("A", (1, "sn1", 7))
        with ExchangeStore() as caller_store:
            system.exchange(engine="sqlite", storage=caller_store)
            system.insert_local("A", (2, "sn2", 8))
            system.exchange(engine="sqlite", storage=str(tmp_path / "b.db"))
            # The caller's store is theirs to close.
            assert not caller_store.closed

    def test_memory_engine_rejects_storage(self):
        _, system = example_twins()
        system.insert_local("A", (1, "sn1", 7))
        with pytest.raises(ExchangeError):
            system.exchange(engine="memory", storage="somewhere.db")


class TestLoweringLimits:
    def test_skolem_body_rule_rejected(self):
        from repro.datalog.parser import parse_rule
        from repro.datalog.rules import Rule
        from repro.datalog.terms import SkolemTerm, Variable
        from repro.datalog.atoms import Atom
        from repro.exchange.cache import compile_exchange_program
        from repro.exchange.sql_plans import lower_program
        from repro.relational.instance import Catalog
        from repro.storage.encoding import ValueCodec

        x = Variable("x")
        body_atom = Atom("R", (SkolemTerm("f", (x,)), x))
        rule = Rule("weird", (Atom("T", (x,)),), (body_atom,))
        catalog = Catalog(
            [
                RelationSchema.of("R", ["a", "b"]),
                RelationSchema.of("T", ["a"]),
            ]
        )
        from repro.datalog.planner import compile_rule

        compiled = compile_rule(rule)
        assert not compiled.plans  # planner falls back -> SQL must refuse
        with pytest.raises(ExchangeError):
            lower_program([compiled], catalog, {}, ValueCodec())


def assert_mirror_consistent(system: CDSS) -> None:
    """The store's relation mirror decodes back to exactly the
    instance's extension, relation by relation."""
    store = system.exchange_store
    for schema in system.catalog:
        assert store.relation_rows(schema) == set(
            system.instance[schema.name]
        ), schema.name


class TestIncrementalMirror:
    """The sync protocol: ship only what moved since the store's
    high-water mark, never the whole instance."""

    def test_second_exchange_over_unchanged_relations_ships_nothing(self):
        _, system = example_twins()
        insert_example_data(system)
        first = system.exchange(engine="sqlite")
        assert first.rows_mirrored > 0
        assert first.relations_synced > 0
        repeat = system.exchange(engine="sqlite")
        assert repeat.rows_mirrored == 0
        assert repeat.relations_synced == 0
        assert repeat.plans_compiled == 0
        assert_mirror_consistent(system)

    def test_incremental_exchange_ships_only_the_delta(self):
        _, system = example_twins()
        insert_example_data(system)
        system.exchange(engine="sqlite")
        baseline = system.instance.size()
        system.insert_local("A", (3, "sn3", 9))
        result = system.exchange(engine="sqlite")
        # One appended local row — nowhere near a full instance reload.
        assert result.rows_mirrored == 1
        assert result.relations_synced == 1
        assert system.instance.size() > baseline
        assert_mirror_consistent(system)

    def test_memory_engine_reports_zero_mirroring(self):
        memory, _ = example_twins()
        insert_example_data(memory)
        result = memory.exchange()
        assert result.rows_mirrored == 0
        assert result.relations_synced == 0

    def test_deletion_forces_full_reload_of_affected_relations(self):
        memory, system = example_twins()
        populate_example(memory)
        insert_example_data(system)
        system.exchange(engine="sqlite")
        for target in (memory, system):
            target.delete_local("A", (2, "sn1", 5))
            target.propagate_deletions()
            target.insert_local("C", (1, "cn9"))
        system.exchange(engine="sqlite")
        memory.exchange()
        assert_same_state(memory, system)
        assert_mirror_consistent(system)

    def test_mixed_engines_keep_the_mirror_current(self):
        # Rows inserted by a memory-engine exchange are journaled and
        # shipped by the next sqlite sync.
        memory, system = example_twins()
        populate_example(memory)
        insert_example_data(system)
        system.exchange(engine="sqlite")
        system.insert_local("A", (3, "sn3", 9))
        memory.insert_local("A", (3, "sn3", 9))
        system.exchange(engine="memory")
        memory.exchange()
        system.insert_local("A", (4, "sn4", 2))
        memory.insert_local("A", (4, "sn4", 2))
        system.exchange(engine="sqlite")
        memory.exchange()
        assert_same_state(memory, system)
        assert_mirror_consistent(system)

    def test_on_disk_incremental_sync(self, tmp_path):
        path = str(tmp_path / "incr.db")
        _, system = example_twins()
        insert_example_data(system)
        system.exchange(engine="sqlite", storage=path)
        repeat = system.exchange(engine="sqlite", storage=path)
        assert repeat.rows_mirrored == 0
        assert_mirror_consistent(system)

    def test_aborted_run_invalidates_sync_and_self_heals(self):
        from repro.errors import EvaluationError

        memory, system = example_twins()
        insert_example_data(system)
        program, _ = system.plan_cache.fetch(system.program())
        store = ExchangeStore()
        engine = SQLiteExchangeEngine(store)
        with pytest.raises(EvaluationError):
            engine.run(
                program,
                system.catalog,
                system.mappings,
                system.instance,
                graph=system.graph,
                max_iterations=1,
            )
        # The aborted run left rows in the mirror that were never
        # written back; the next run must full-reload and converge.
        system.exchange_store = store
        system._owns_store = True
        result = system.exchange(engine="sqlite")
        assert result.rows_mirrored > 0
        populate_example(memory)
        assert_same_state(memory, system)
        assert_mirror_consistent(system)


class TestResidentMode:
    """Store-resident exchange: the store is the authoritative
    instance; Python holds only local contributions."""

    def build_pair(self, tmp_path):
        resident, plain = example_twins()
        insert_example_data(resident)
        insert_example_data(plain)
        resident.exchange(
            engine="sqlite",
            storage=str(tmp_path / "resident.db"),
            resident=True,
        )
        plain.exchange(engine="sqlite")
        return resident, plain

    def test_derived_tuples_live_only_in_the_store(self, tmp_path):
        resident, plain = self.build_pair(tmp_path)
        # Python side: local contributions only.
        for schema in resident.catalog:
            if not schema.name.endswith("_l"):
                assert resident.instance.size(schema.name) == 0, schema.name
        # Store side: exactly the plain twin's materialized instance.
        store = resident.exchange_store
        for schema in resident.catalog:
            assert store.relation_rows(schema) == set(
                plain.instance[schema.name]
            ), schema.name
        assert len(resident.graph.tuples) == 0

    def test_instance_size_counts_store_rows(self, tmp_path):
        resident, plain = self.build_pair(tmp_path)
        assert resident.instance_size() == plain.instance_size()
        assert resident.instance_size(
            public_only=False
        ) == plain.instance_size(public_only=False)

    def test_incremental_resident_exchange(self, tmp_path):
        resident, plain = self.build_pair(tmp_path)
        for system in (resident, plain):
            system.insert_local("A", (3, "sn3", 9))
        r = resident.exchange(engine="sqlite", resident=True)
        plain.exchange(engine="sqlite")
        assert r.rows_mirrored == 1
        assert r.inserted == plain.last_exchange.inserted
        store = resident.exchange_store
        for schema in resident.catalog:
            assert store.relation_rows(schema) == set(
                plain.instance[schema.name]
            ), schema.name

    def test_resident_requires_sqlite_engine(self):
        _, system = example_twins()
        insert_example_data(system)
        with pytest.raises(ExchangeError):
            system.exchange(engine="memory", resident=True)

    def test_mode_is_sticky(self, tmp_path):
        resident, _ = self.build_pair(tmp_path)
        with pytest.raises(ExchangeError):
            resident.exchange(engine="sqlite")
        _, plain = example_twins()
        insert_example_data(plain)
        plain.exchange(engine="sqlite")
        with pytest.raises(ExchangeError):
            plain.exchange(engine="sqlite", resident=True)

    def test_deletions_require_an_open_store(self, tmp_path):
        # Deletions are supported in resident mode, but the victim
        # marking and the SQL derivability fixpoint both need the
        # authoritative store — with it closed they must fail loudly
        # instead of silently diverging from the on-disk instance.
        resident, _ = self.build_pair(tmp_path)
        resident.exchange_store.close()
        with pytest.raises(ExchangeError):
            resident.delete_local("A", (2, "sn1", 5))
        with pytest.raises(ExchangeError):
            resident.delete_local_many("A", [(2, "sn1", 5)])
        with pytest.raises(ExchangeError):
            resident.propagate_deletions()

    def test_graph_queries_answered_relationally(self, tmp_path):
        # The graph is deliberately never built in resident mode;
        # lineage/derivability/trusted are answered by SQL over the
        # stored firing history and must match the graph engine
        # node-for-node — while the graph stays empty.
        from repro.cdss.trust import TrustPolicy

        resident, plain = self.build_pair(tmp_path)
        assert resident.derivability() == plain.derivability()
        for node in plain.graph.tuples:
            assert resident.lineage(node) == plain.lineage(node), node
        policy = TrustPolicy()
        policy.trust_if("A", lambda values: values[2] < 6)
        policy.distrust_mapping("m4")
        assert resident.trusted(policy) == plain.trusted(policy)
        assert resident.graph.size() == (0, 0)
        stats = resident.last_graph_query
        assert stats is not None and stats.engine == "sqlite"
        assert plain.last_graph_query.engine == "memory"

    def test_graph_queries_need_an_open_store(self, tmp_path):
        # Relational queries consult the authoritative store; with it
        # closed they must fail loudly, not answer from nothing.
        resident, _ = self.build_pair(tmp_path)
        resident.exchange_store.close()
        with pytest.raises(ExchangeError):
            resident.derivability()
        with pytest.raises(ExchangeError):
            resident.lineage(None)
        with pytest.raises(ExchangeError):
            resident.trusted(None)

    def test_storage_switch_rejected(self, tmp_path):
        # The resident store holds the only copy of the derived
        # instance; pointing a later exchange at a different store
        # would silently abandon it.
        resident, _ = self.build_pair(tmp_path)
        with pytest.raises(ExchangeError):
            resident.exchange(
                engine="sqlite",
                storage=str(tmp_path / "other.db"),
                resident=True,
            )
        with pytest.raises(ExchangeError):
            resident.exchange(
                engine="sqlite", storage=ExchangeStore(), resident=True
            )
        # Re-naming the same store (by path or by object) stays legal.
        r = resident.exchange(
            engine="sqlite",
            storage=str(tmp_path / "resident.db"),
            resident=True,
        )
        assert r.rows_mirrored == 0
        resident.exchange(
            engine="sqlite", storage=resident.exchange_store, resident=True
        )

    def test_closed_store_rejected_but_reopenable_by_path(self, tmp_path):
        # Once the pinned store is closed, a resident exchange must not
        # silently adopt a fresh empty store (that would abandon the
        # only copy of the derived instance) — but the on-disk file
        # still holds the data, so reopening by path continues the
        # incremental run.
        path = str(tmp_path / "resident.db")
        resident, plain = self.build_pair(tmp_path)
        size_before = resident.instance_size()
        resident.exchange_store.close()
        with pytest.raises(ExchangeError):
            resident.exchange(engine="sqlite", resident=True)
        for system in (resident, plain):
            system.insert_local("A", (3, "sn3", 9))
        r = resident.exchange(engine="sqlite", storage=path, resident=True)
        plain.exchange(engine="sqlite")
        assert r.inserted == plain.last_exchange.inserted
        assert resident.instance_size() > size_before
        assert resident.instance_size() == plain.instance_size()

    def test_resident_requires_on_disk_store(self):
        # An in-memory store would be the only copy of the derived
        # instance with neither durability nor out-of-core capacity —
        # the dead end is rejected up front.
        resident, _ = example_twins()
        insert_example_data(resident)
        with pytest.raises(ExchangeError):
            resident.exchange(engine="sqlite", resident=True)
        with pytest.raises(ExchangeError):
            resident.exchange(engine="sqlite", storage=":memory:", resident=True)

    def test_aborted_resident_run_recovers_by_full_reseed(self, tmp_path):
        # A resident run that aborts mid-fixpoint leaves its committed
        # rounds in the store (they cannot be rolled back across round
        # transactions).  Those orphan rows are sound but incomplete —
        # and an incremental retry would dedup them out of the delta,
        # never deriving their consequences.  The dirty-run flag makes
        # the retry re-seed from the full store extension instead, so
        # it converges to the complete fixpoint.
        from repro.errors import EvaluationError

        resident, plain = self.build_pair(tmp_path)
        for system in (resident, plain):
            system.insert_local("A", (3, "sn3", 9))
        program, _ = resident.plan_cache.fetch(resident.program())
        engine = SQLiteExchangeEngine(resident.exchange_store)
        with pytest.raises(EvaluationError):
            engine.run(
                program,
                resident.catalog,
                resident.mappings,
                resident.instance,
                graph=resident.graph,
                initial_delta={"A_l": {(3, "sn3", 9)}},
                max_iterations=1,
                resident=True,
            )
        assert resident.exchange_store.dirty_run
        resident.exchange(engine="sqlite", resident=True)
        plain.exchange(engine="sqlite")
        assert not resident.exchange_store.dirty_run
        store = resident.exchange_store
        for schema in resident.catalog:
            assert store.relation_rows(schema) == set(
                plain.instance[schema.name]
            ), schema.name
        assert resident.instance_size() == plain.instance_size()

    def test_reopen_decodes_persisted_labeled_nulls(self, tmp_path):
        # The codec caching labeled nulls dies with the store
        # connection, but the @sk: encoding is self-describing, so a
        # reopened store decodes persisted nulls on the fly — even in
        # the adversarial registration order where the Skolem-consuming
        # mapping (m2, whose z-Skolem takes m1's y-Skolem as argument)
        # runs before its producer in every round.
        path = str(tmp_path / "resident.db")

        def build():
            system = CDSS(
                [
                    Peer.of(
                        "P",
                        [
                            RelationSchema.of("A", ["a"]),
                            RelationSchema.of("E", ["a"]),
                            RelationSchema.of("B", ["a", "b"]),
                            RelationSchema.of("C", ["a", "b"]),
                        ],
                    )
                ]
            )
            system.add_mapping("m2: C(y, z) :- E(x), B(x, y)", name="m2")
            system.add_mapping("m1: B(x, y) :- A(x)", name="m1")
            system.insert_local("A", (1,))
            return system

        resident, plain = build(), build()
        resident.exchange(engine="sqlite", storage=path, resident=True)
        plain.exchange(engine="sqlite")
        resident.exchange_store.close()

        for system in (resident, plain):
            system.insert_local("E", (1,))
        resident.exchange(engine="sqlite", storage=path, resident=True)
        plain.exchange(engine="sqlite")

        # Reconstructed SkolemValues are value-equal to the originals
        # (frozen dataclass), so the reopened store's extension matches
        # the plain twin exactly, nested Skolem arguments included.
        store = resident.exchange_store
        for schema in resident.catalog:
            assert store.relation_rows(schema) == set(
                plain.instance[schema.name]
            ), schema.name

    def test_reopen_of_deleted_file_rejected(self, tmp_path):
        # Naming the right path is not enough — if the file is gone,
        # reopening would hand back a fresh empty database, silently
        # losing the authoritative instance.
        import os

        path = str(tmp_path / "resident.db")
        resident, _ = self.build_pair(tmp_path)
        resident.exchange_store.close()
        for suffix in ("", "-wal", "-shm"):
            if os.path.exists(path + suffix):
                os.remove(path + suffix)
        with pytest.raises(ExchangeError):
            resident.exchange(engine="sqlite", storage=path, resident=True)

    def test_nonresident_runs_never_persist_the_dirty_flag(self, tmp_path):
        # Only resident runs consume dirty_run; a plain mirror exchange
        # must not pay the two persisted writes per call.
        _, system = example_twins()
        insert_example_data(system)
        system.exchange(engine="sqlite", storage=str(tmp_path / "m.db"))
        row = system.exchange_store.connection.execute(
            "SELECT value FROM \"__meta\" WHERE key = 'dirty_run'"
        ).fetchone()
        assert row is None

    def test_resident_store_upgrades_durability(self, tmp_path):
        # A resident on-disk store is the only copy of the data, so it
        # trades the mirror's fast pragmas for crash-safe WAL; a plain
        # mirror keeps the fast settings (it can always be rebuilt).
        resident, plain = self.build_pair(tmp_path)
        (mode,) = resident.exchange_store.connection.execute(
            "PRAGMA journal_mode"
        ).fetchone()
        assert mode == "wal"
        mirror, _ = example_twins()
        insert_example_data(mirror)
        mirror.exchange(engine="sqlite", storage=str(tmp_path / "mirror.db"))
        (mode,) = mirror.exchange_store.connection.execute(
            "PRAGMA journal_mode"
        ).fetchone()
        assert mode == "memory"

    def test_store_pinning_is_spelling_insensitive(self, tmp_path, monkeypatch):
        # Relative and absolute spellings of the same file are the same
        # store (paths are normalized at construction and comparison).
        monkeypatch.chdir(tmp_path)
        resident, _ = example_twins()
        insert_example_data(resident)
        resident.exchange(engine="sqlite", storage="resident.db", resident=True)
        r = resident.exchange(
            engine="sqlite",
            storage=str(tmp_path / "resident.db"),
            resident=True,
        )
        assert r.rows_mirrored == 0

    def test_dirty_run_survives_store_reopen(self, tmp_path):
        # The dirty-run flag lives in the store file: an abort followed
        # by close + reopen-by-path (the cross-connection recovery
        # story) must still trigger the full re-seed.
        from repro.errors import EvaluationError

        path = str(tmp_path / "resident.db")
        resident, plain = self.build_pair(tmp_path)
        for system in (resident, plain):
            system.insert_local("A", (3, "sn3", 9))
        program, _ = resident.plan_cache.fetch(resident.program())
        engine = SQLiteExchangeEngine(resident.exchange_store)
        with pytest.raises(EvaluationError):
            engine.run(
                program,
                resident.catalog,
                resident.mappings,
                resident.instance,
                graph=resident.graph,
                initial_delta={"A_l": {(3, "sn3", 9)}},
                max_iterations=1,
                resident=True,
            )
        resident.exchange_store.close()
        resident.exchange(engine="sqlite", storage=path, resident=True)
        plain.exchange(engine="sqlite")
        store = resident.exchange_store
        assert not store.dirty_run
        for schema in resident.catalog:
            assert store.relation_rows(schema) == set(
                plain.instance[schema.name]
            ), schema.name

    def test_instance_size_rejects_closed_store(self, tmp_path):
        # The Python side is deliberately empty in resident mode, so a
        # closed store must fail loudly instead of reporting ~0.
        resident, _ = self.build_pair(tmp_path)
        resident.exchange_store.close()
        with pytest.raises(ExchangeError):
            resident.instance_size()

    def test_closed_store_rejection_names_the_operation(self, tmp_path):
        resident, _ = self.build_pair(tmp_path)
        resident.exchange_store.close()
        with pytest.raises(ExchangeError, match="lineage"):
            resident.lineage(None)

    def test_resident_exchange_never_rescans_relation_tables(
        self, tmp_path, monkeypatch
    ):
        # rel_counts come from the store's count cache (maintained by
        # sync and publish), so incremental resident exchanges must not
        # COUNT(*) over relation tables — only over the `__`-prefixed
        # staging tables, whose size is the per-round delta.
        resident, plain = self.build_pair(tmp_path)
        real_count = ExchangeStore.count

        def staging_only(store, table):
            assert table.startswith("__"), (
                f"full COUNT(*) rescan of relation table {table!r}"
            )
            return real_count(store, table)

        monkeypatch.setattr(ExchangeStore, "count", staging_only)
        for system in (resident, plain):
            system.insert_local("A", (3, "sn3", 9))
        r = resident.exchange(engine="sqlite", resident=True)
        plain.exchange(engine="sqlite")
        assert r.inserted == plain.last_exchange.inserted


def _mini_topology(kind: str, num_peers: int) -> CDSS:
    """A miniature chain/branched CDSS (2-ary SWISS-PROT-style
    partitions, the benchmark mapping shape)."""
    from repro.workloads.topologies import branched_edges, chain_edges

    edge_fn = chain_edges if kind == "chain" else branched_edges
    cdss = CDSS(
        Peer.of(
            f"P{i}",
            [
                RelationSchema.of(f"P{i}_R1", ["k", "a"]),
                RelationSchema.of(f"P{i}_R2", ["k", "b"]),
            ],
        )
        for i in range(num_peers)
    )
    for number, (src, dst) in enumerate(edge_fn(num_peers), start=1):
        cdss.add_mapping(
            f"P{dst}_R1(k, a), P{dst}_R2(k, b) :- "
            f"P{src}_R1(k, a), P{src}_R2(k, b)",
            name=f"m{number}",
        )
    return cdss


def _seed_topology(system: CDSS, num_peers: int, rows) -> None:
    for peer, k, v in rows:
        for suffix in ("R1", "R2"):
            system.insert_local(f"P{peer % num_peers}_{suffix}", (k, v))


class TestResidentDeletion:
    """Relational deletion propagation: ``delete_local`` +
    ``propagate_deletions`` under ``resident=True`` must match the
    memory engine's graph-based propagation tuple for tuple, garbage-
    collect the dead P_m firing-history rows, and leave the store ready
    for further incremental exchanges."""

    ROWS = [(4, 0, 10), (4, 1, 11), (3, 0, 12), (2, 5, 13)]
    VICTIMS = [(4, 0, 10), (3, 0, 12)]

    def build_twins(self, kind, num_peers, tmp_path):
        memory = _mini_topology(kind, num_peers)
        resident = _mini_topology(kind, num_peers)
        _seed_topology(memory, num_peers, self.ROWS)
        _seed_topology(resident, num_peers, self.ROWS)
        memory.exchange()
        resident.exchange(
            engine="sqlite",
            storage=str(tmp_path / f"{kind}.db"),
            resident=True,
        )
        return memory, resident

    def delete_victims(self, system, num_peers):
        for peer, k, v in self.VICTIMS:
            for suffix in ("R1", "R2"):
                system.delete_local(f"P{peer % num_peers}_{suffix}", (k, v))

    @pytest.mark.parametrize("kind", ["chain", "branched"])
    def test_matches_memory_engine(self, tmp_path, kind):
        num_peers = 5
        memory, resident = self.build_twins(kind, num_peers, tmp_path)
        size_before = resident.instance_size()
        self.delete_victims(memory, num_peers)
        self.delete_victims(resident, num_peers)
        removed_memory = memory.propagate_deletions()
        removed_resident = resident.propagate_deletions()
        assert removed_resident == removed_memory > 0
        stats = resident.last_deletion
        assert stats.engine == "sqlite"
        assert stats.rows_deleted == removed_resident
        assert stats.pm_rows_collected > 0
        assert (
            stats.pm_rows_collected
            == memory.last_deletion.pm_rows_collected
        )
        # Store rows shrink accordingly, relation by relation, and the
        # maintained count cache stays truthful (no COUNT(*) drift).
        store = resident.exchange_store
        for schema in resident.catalog:
            assert store.relation_rows(schema) == set(
                memory.instance[schema.name]
            ), schema.name
            assert store.cached_count(schema.name) == store.count(
                schema.name
            ), schema.name
        assert resident.instance_size() < size_before
        assert resident.instance_size() == memory.instance_size()

    @pytest.mark.parametrize("kind", ["chain", "branched"])
    def test_post_delete_incremental_exchange(self, tmp_path, kind):
        num_peers = 4
        memory, resident = self.build_twins(kind, num_peers, tmp_path)
        self.delete_victims(memory, num_peers)
        self.delete_victims(resident, num_peers)
        memory.propagate_deletions()
        resident.propagate_deletions()
        extra = [(num_peers - 1, 9, 99)]
        _seed_topology(memory, num_peers, extra)
        _seed_topology(resident, num_peers, extra)
        memory.exchange()
        result = resident.exchange(engine="sqlite", resident=True)
        # The victim marking fast-forwarded the sync marks, so the
        # incremental exchange ships only the two appended local rows —
        # deletions must not force full reloads of their relations.
        assert result.rows_mirrored == 2
        assert result.relations_synced == 2
        store = resident.exchange_store
        for schema in resident.catalog:
            assert store.relation_rows(schema) == set(
                memory.instance[schema.name]
            ), schema.name

    def test_cyclic_program_uses_least_fixpoint(self, tmp_path):
        # m1/m3 of the running example form a cycle (C -> N -> C):
        # after the local C contribution dies, the pair supports only
        # itself, and the least fixpoint (like the graph engine's
        # Kleene iteration from all-false) must kill both — a
        # greatest-fixpoint "kill only when every firing has a killed
        # antecedent" sweep would wrongly keep them alive.
        memory, resident = example_twins()
        insert_example_data(memory)
        insert_example_data(resident)
        memory.exchange()
        resident.exchange(
            engine="sqlite", storage=str(tmp_path / "cyc.db"), resident=True
        )
        for system in (memory, resident):
            assert system.delete_local("C", (2, "cn2"))
        assert resident.propagate_deletions() == memory.propagate_deletions()
        store = resident.exchange_store
        for schema in resident.catalog:
            assert store.relation_rows(schema) == set(
                memory.instance[schema.name]
            ), schema.name
        # The cyclic pair died: neither C(2,cn2) nor its m3-companion
        # N(2,cn2,false) survives on its self-support.
        assert (2, "cn2") not in store.relation_rows(resident.catalog["C"])
        assert (2, "cn2", False) not in store.relation_rows(
            resident.catalog["N"]
        )

    def test_pm_gc_matches_graph_projection(self, tmp_path):
        from repro.storage import provenance_rows

        num_peers = 4
        memory, resident = self.build_twins("chain", num_peers, tmp_path)
        self.delete_victims(memory, num_peers)
        self.delete_victims(resident, num_peers)
        memory.propagate_deletions()
        resident.propagate_deletions()
        store = resident.exchange_store
        for name, mapping in resident.mappings.items():
            if mapping.is_superfluous or not mapping.provenance_columns:
                continue
            assert stored_pm_rows(store, mapping) == set(
                provenance_rows(memory.mappings[name], memory.graph)
            ), name

    def test_propagate_without_deletions_is_a_noop(self, tmp_path):
        _, resident = self.build_twins("chain", 4, tmp_path)
        size = resident.instance_size()
        assert resident.propagate_deletions() == 0
        assert resident.last_deletion.rows_deleted == 0
        assert resident.last_deletion.pm_rows_collected == 0
        assert resident.instance_size() == size

    def test_delete_of_absent_row_returns_false(self, tmp_path):
        _, resident = self.build_twins("chain", 4, tmp_path)
        assert not resident.delete_local("P2_R1", (123, 456))


class TestDeletionStats:
    """Satellite: both engines surface deletion statistics."""

    def test_memory_engine_reports_rows_deleted(self):
        memory, _ = example_twins()
        populate_example(memory)
        assert memory.last_deletion is None
        memory.delete_local("A", (2, "sn1", 5))
        removed = memory.propagate_deletions()
        stats = memory.last_deletion
        assert stats is not None
        assert stats.engine == "memory"
        assert stats.rows_deleted == removed > 0
        assert stats.pm_rows_collected > 0

    def test_nonresident_sqlite_store_pm_is_garbage_collected(self):
        from repro.storage import provenance_rows

        memory, system = example_twins()
        populate_example(memory)
        insert_example_data(system)
        system.exchange(engine="sqlite")
        for target in (memory, system):
            target.delete_local("A", (2, "sn1", 5))
            target.propagate_deletions()
        # The graph-path propagation reconciled the mirror's firing
        # history: P_m holds exactly the surviving derivations.
        store = system.exchange_store
        for name, mapping in system.mappings.items():
            if mapping.is_superfluous or not mapping.provenance_columns:
                continue
            assert stored_pm_rows(store, mapping) == set(
                provenance_rows(mapping, system.graph)
            ), name
        assert system.last_deletion.pm_rows_collected > 0

    def test_experiment_result_threads_deletion_stats(self, tmp_path):
        from repro.workloads import chain, run_target_query
        from repro.workloads.swissprot import generate_entries

        system = chain(3, base_size=5)
        peer = 2
        victim = generate_entries(5, seed=peer, key_offset=peer * 10_000_000)[0]
        system.delete_local(f"P{peer}_R1", victim.first_row())
        system.delete_local(f"P{peer}_R2", victim.second_row())
        system.propagate_deletions()
        result = run_target_query(system)
        assert result.rows_deleted == system.last_deletion.rows_deleted > 0
        assert result.pm_rows_collected > 0
        assert result.deletion_engine == "memory"

    def test_deletion_through_labeled_nulls(self, tmp_path):
        # Derivations through Skolem heads: deleting A(2) must kill
        # B(2, sk) and D(2, sk) — the liveness fixpoint rebuilds the
        # labeled nulls inside SQL (repro_skolem) so the candidate rows
        # compare equal to the stored ones.
        def build():
            system = CDSS(
                [
                    Peer.of(
                        "P",
                        [
                            RelationSchema.of("A", ["x"]),
                            RelationSchema.of("B", ["x", "y"]),
                            RelationSchema.of("D", ["x", "y"]),
                        ],
                    )
                ]
            )
            system.add_mapping("m1: B(x, y) :- A(x)", name="m1")
            system.add_mapping("m2: D(x, y) :- B(x, y), A(x)", name="m2")
            system.insert_local_many("A", [(1,), (2,)])
            return system

        memory, resident = build(), build()
        memory.exchange()
        resident.exchange(
            engine="sqlite", storage=str(tmp_path / "sk.db"), resident=True
        )
        for system in (memory, resident):
            assert system.delete_local("A", (2,))
        assert resident.propagate_deletions() == memory.propagate_deletions()
        store = resident.exchange_store
        for schema in resident.catalog:
            assert store.relation_rows(schema) == set(
                memory.instance[schema.name]
            ), schema.name
        assert len(store.relation_rows(resident.catalog["D"])) == 1

    def test_aborted_propagate_clears_work_tables(self, tmp_path):
        # An error mid-kernel must roll the kill transaction back: the
        # cone work tables end empty, the persisted suspect set stays
        # (so a retry still knows what to test), and nothing was cut.
        from repro.errors import EvaluationError
        from repro.exchange.reach_index import SUSPECT_TABLE

        memory, resident = build_resident_deletion_pair(tmp_path)
        for system in (memory, resident):
            system.delete_local("A", (2, "sn1", 5))
        store = resident.exchange_store
        program, _ = resident.plan_cache.fetch(resident.program())
        engine = SQLiteExchangeEngine(store)
        with pytest.raises(EvaluationError):
            engine.propagate_deletions(
                program,
                resident.catalog,
                resident.mappings,
                resident.instance,
                max_iterations=0,
            )
        for table in ("__rq_cone", "__rq_live", "__rq_dead", "__rq_deadfid"):
            assert store.count(table) == 0, table
        assert store.count(SUSPECT_TABLE) > 0
        # The store is undamaged: a retry converges to the memory twin.
        assert resident.propagate_deletions() == memory.propagate_deletions()
        for schema in resident.catalog:
            assert store.relation_rows(schema) == set(
                memory.instance[schema.name]
            ), schema.name


def build_resident_deletion_pair(tmp_path):
    """Memory twin + resident twin of the running example, exchanged."""
    memory, resident = example_twins()
    insert_example_data(memory)
    insert_example_data(resident)
    memory.exchange()
    resident.exchange(
        engine="sqlite", storage=str(tmp_path / "pair.db"), resident=True
    )
    return memory, resident


class TestResidentGraphQueries:
    """Relational graph queries: ``lineage``/``derivability``/
    ``trusted`` under ``resident=True`` must match the graph engine
    node-for-node while never materializing a provenance graph."""

    def test_lineage_through_labeled_nulls(self, tmp_path):
        # The index lowering's endpoint inserts must rebuild Skolem
        # head values inside SQL (repro_skolem) so a row carrying a
        # labeled null resolves to the node the firings produced.
        def build():
            system = CDSS(
                [
                    Peer.of(
                        "P",
                        [
                            RelationSchema.of("A", ["x"]),
                            RelationSchema.of("B", ["x", "y"]),
                            RelationSchema.of("D", ["x", "y"]),
                        ],
                    )
                ]
            )
            system.add_mapping("m1: B(x, y) :- A(x)", name="m1")
            system.add_mapping("m2: D(x, y) :- B(x, y), A(x)", name="m2")
            system.insert_local_many("A", [(1,), (2,)])
            return system

        memory, resident = build(), build()
        memory.exchange()
        resident.exchange(
            engine="sqlite", storage=str(tmp_path / "sk.db"), resident=True
        )
        for node in memory.graph.tuples:
            assert resident.lineage(node) == memory.lineage(node), node

    def test_derivation_into_a_local_relation_is_rejected(self, tmp_path):
        # The index seeds liveness from the relations no rule derives
        # into, so the local rows of a derived R_l would go unseeded
        # and every verdict over them would be silently False.  The
        # memory engine runs this program; resident queries and
        # deletion propagation refuse it.
        from repro.cdss.trust import TrustPolicy
        from repro.provenance.graph import TupleNode

        def build():
            system = CDSS(
                Peer.of(
                    name,
                    [RelationSchema.of(f"{name}_R", ["k", "v"], key=["k"])],
                )
                for name in ("P0", "P1")
            )
            system.add_mapping("m1: P0_R(k, v) :- P1_R(k, v)")
            system.add_mapping("m_loc: P0_R_l(k, v) :- P1_R(k, v)")
            system.insert_local("P0_R", (5, 6))
            return system

        memory, resident = build(), build()
        memory.exchange()
        resident.exchange(
            engine="sqlite", storage=str(tmp_path / "loc.db"), resident=True
        )
        node = TupleNode("P0_R", (5, 6))
        verdicts = memory.derivability()
        assert verdicts[node] and verdicts[TupleNode("P0_R_l", (5, 6))]
        for query in (
            resident.derivability,
            lambda: resident.trusted(TrustPolicy()),
            lambda: resident.lineage(node),
        ):
            with pytest.raises(ExchangeError, match="P0_R_l"):
                query()
        assert resident.delete_local("P0_R", (5, 6))
        with pytest.raises(ExchangeError, match="P0_R_l"):
            resident.propagate_deletions()

    def test_trust_kills_cyclic_self_support(self, tmp_path):
        # m1/m3 of the running example form a cycle (C -> N -> C).
        # With the local C contribution distrusted, the cyclic pair has
        # no trusted base left and must annotate untrusted — the trust
        # fixpoint is a least fixpoint, exactly like derivability.
        from repro.cdss.trust import TrustPolicy

        memory, resident = build_resident_deletion_pair(tmp_path)
        policy = TrustPolicy()
        policy.distrust_relation("C")
        memory_verdicts = memory.trusted(policy)
        resident_verdicts = resident.trusted(policy)
        assert resident_verdicts == memory_verdicts
        from repro.provenance.graph import TupleNode

        assert not resident_verdicts[TupleNode("C", (2, "cn2"))]
        assert not resident_verdicts[TupleNode("N", (2, "cn2", False))]

    def test_distrusted_local_rule_and_default_distrust(self, tmp_path):
        from repro.cdss.trust import TrustPolicy

        memory, resident = build_resident_deletion_pair(tmp_path)
        # Distrusting a local-contribution rule unplugs that relation's
        # leaves from everything derived through them.
        policy = TrustPolicy()
        policy.distrust_mapping("L_A")
        assert resident.trusted(policy) == memory.trusted(policy)
        # default_trust=False with no conditions trusts nothing at all.
        nothing = TrustPolicy(default_trust=False)
        memory_verdicts = memory.trusted(nothing)
        resident_verdicts = resident.trusted(nothing)
        assert resident_verdicts == memory_verdicts
        assert not any(resident_verdicts.values())

    def test_queries_work_after_reopen_by_path(self, tmp_path):
        # A store reopened by its path serves queries with a fresh
        # codec: stored rows (labeled nulls included) decode back to
        # nodes equal to the graph engine's.
        path = str(tmp_path / "pair.db")
        memory, resident = build_resident_deletion_pair(tmp_path)
        resident.exchange_store.close()
        resident.exchange(engine="sqlite", storage=path, resident=True)
        assert resident.derivability() == memory.derivability()
        node = sorted(memory.graph.tuples)[0]
        assert resident.lineage(node) == memory.lineage(node)

    def test_pending_inserts_invisible_until_exchange(self, tmp_path):
        # Both engines answer over the last exchange: a queued local
        # insertion has no node yet — the graph raises KeyError and so
        # does the store path (the row is not stored).
        from repro.provenance.graph import TupleNode

        memory, resident = build_resident_deletion_pair(tmp_path)
        row = (7, "sn7", 1)
        node = TupleNode("A_l", row)
        for system in (memory, resident):
            system.insert_local("A", row)
            with pytest.raises(KeyError):
                system.lineage(node)
        for system, kwargs in (
            (memory, {}),
            (resident, {"engine": "sqlite", "resident": True}),
        ):
            system.exchange(**kwargs)
        assert resident.lineage(node) == memory.lineage(node) == frozenset(
            [node]
        )

    def test_query_stats_are_recorded(self, tmp_path):
        memory, resident = build_resident_deletion_pair(tmp_path)
        resident.derivability()
        stats = resident.last_graph_query
        assert stats.engine == "sqlite"
        assert stats.iterations > 0
        assert stats.pm_rows_scanned > 0
        node = sorted(memory.graph.tuples_in("O"))[0]
        resident.lineage(node)
        lineage_stats = resident.last_graph_query
        assert lineage_stats.iterations > 0
        assert lineage_stats.pm_rows_scanned > 0
        memory.derivability()
        assert memory.last_graph_query.engine == "memory"

    def test_queries_clear_work_tables(self, tmp_path):
        # Ancestor closures and live sets can rival the instance in
        # size; they must not linger after the answer is read.  The
        # queries work in the __rq_* temp tables.
        from repro.exchange.reach_index import _ID_TEMPS

        memory, resident = build_resident_deletion_pair(tmp_path)
        node = sorted(memory.graph.tuples_in("O"))[0]
        resident.lineage(node)
        resident.derivability()
        store = resident.exchange_store
        for table in _ID_TEMPS:
            assert store.count(table) == 0, table

    def test_lowerings_are_cached_on_the_program(self, tmp_path):
        # Repeated queries over an unchanged program lower nothing new:
        # the ProgramSQL/ReachSQL attach to the cache entry.
        memory, resident = build_resident_deletion_pair(tmp_path)
        node = sorted(memory.graph.tuples_in("O"))[0]
        resident.lineage(node)
        resident.derivability()
        program, hit = resident.plan_cache.fetch(resident.program())
        assert hit
        program_sql = program.sql
        reach_sql = program.reach
        assert program_sql is not None and reach_sql is not None
        resident.lineage(node)
        resident.derivability()
        program, _ = resident.plan_cache.fetch(resident.program())
        assert program.sql is program_sql
        assert program.reach is reach_sql

    def test_queries_survive_catalog_growth(self, tmp_path):
        # add_peer/add_mapping after a resident exchange must not break
        # queries: the new (empty) tables are created idempotently, and
        # un-exchanged additions contribute no nodes — matching the
        # graph engine, whose graph also only grows at exchange time.
        memory, resident = build_resident_deletion_pair(tmp_path)
        for system in (memory, resident):
            system.add_peer(Peer.of("P4", [RelationSchema.of("Z", ["x"])]))
            system.add_mapping("m9: Z(i) :- C(i, n)", name="m9")
        assert resident.derivability() == memory.derivability()
        node = sorted(memory.graph.tuples_in("C"))[0]
        assert resident.lineage(node) == memory.lineage(node)
        from repro.cdss.trust import TrustPolicy

        assert resident.trusted(TrustPolicy()) == memory.trusted(
            TrustPolicy()
        )

