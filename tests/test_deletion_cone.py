"""Cone-driven resident deletion propagation against the memory oracle.

Resident ``propagate_deletions`` runs the reachability index's liveness
kernel inside the dead cone of the recorded deletion suspects (or, when
the suspect set may be incomplete, over every stored derived row).
Random chain/branched lifecycles — exchanged inserts and several
deletes before each propagation — must leave the store equal to the
memory engine after every propagation: every relation,
``rows_deleted``, ``pm_rows_collected`` and every stored ``P_m`` row
set.  Deterministic regressions pin the paths a random lifecycle
rarely takes: cyclic self-support, a delete while the index is stale,
unexchanged local inserts, a victim re-inserted before propagation, and
a cone above the stale-mark threshold.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdss import CDSS, Peer
from repro.exchange import reach_index
from repro.exchange.reach_index import SUSPECT_TABLE
from repro.relational import RelationSchema
from repro.relational.schema import is_local_name
from repro.storage import provenance_rows

from test_exchange_sql import (
    _mini_topology,
    _seed_topology,
    example_twins,
    insert_example_data,
    stored_pm_rows,
)


def assert_store_matches(memory, resident):
    store = resident.exchange_store
    for schema in resident.catalog:
        assert store.relation_rows(schema) == set(
            memory.instance[schema.name]
        ), schema.name
    for name, mapping in resident.mappings.items():
        if mapping.is_superfluous or not mapping.provenance_columns:
            continue
        assert stored_pm_rows(store, mapping) == set(
            provenance_rows(memory.mappings[name], memory.graph)
        ), name


def propagate_both(memory, resident):
    """Propagate on both engines; everything must agree afterwards and
    the suspect set must be retired."""
    removed = memory.propagate_deletions()
    assert resident.propagate_deletions() == removed
    for stat in ("rows_deleted", "pm_rows_collected"):
        assert getattr(resident.last_deletion, stat) == getattr(
            memory.last_deletion, stat
        ), stat
    assert_store_matches(memory, resident)
    store = resident.exchange_store
    assert store.count(SUSPECT_TABLE) == 0
    assert not store.meta_get("suspects_incomplete")


def topology_twins(kind, num_peers, rows, path):
    memory = _mini_topology(kind, num_peers)
    resident = _mini_topology(kind, num_peers)
    for system in (memory, resident):
        _seed_topology(system, num_peers, rows)
    memory.exchange()
    resident.exchange(engine="sqlite", storage=path, resident=True)
    return memory, resident


def exchange_both(memory, resident):
    memory.exchange()
    resident.exchange(engine="sqlite", resident=True)


def local_rows(memory):
    return sorted(
        (schema.name, row)
        for schema in memory.catalog
        if is_local_name(schema.name)
        for row in memory.instance[schema.name]
    )


entries = st.tuples(st.integers(0, 4), st.integers(0, 3), st.integers(0, 3))


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["chain", "branched"]),
    num_peers=st.integers(2, 4),
    base=st.lists(entries, min_size=1, max_size=8, unique=True),
    batches=st.lists(
        st.tuples(
            st.lists(st.integers(0, 99), min_size=1, max_size=4),
            st.lists(entries, max_size=3),
            st.booleans(),
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_cone_propagation_matches_memory(kind, num_peers, base, batches):
    with tempfile.TemporaryDirectory() as tmp:
        memory, resident = topology_twins(
            kind, num_peers, base, str(Path(tmp) / "cone.db")
        )
        for picks, inserts, exchanged in batches:
            # Several deletes, then (possibly re-)inserts — exchanged
            # or still pending — before the one propagation of the
            # batch.
            for pick in picks:
                candidates = local_rows(memory)
                if not candidates:
                    break
                relation, row = candidates[pick % len(candidates)]
                for system in (memory, resident):
                    assert system.delete_local(relation, row)
            if inserts:
                for system in (memory, resident):
                    _seed_topology(system, num_peers, inserts)
                if exchanged:
                    exchange_both(memory, resident)
            propagate_both(memory, resident)
            if inserts and not exchanged:
                exchange_both(memory, resident)
                assert_store_matches(memory, resident)
            assert resident.derivability() == memory.derivability()


def test_cyclic_self_support_dies_on_the_cone_path(tmp_path):
    # m1/m3 of the running example form a cycle (C -> N -> C): once the
    # local C contribution dies, the pair supports only itself, and the
    # cone's least fixpoint must kill both.
    memory, resident = example_twins()
    for system in (memory, resident):
        insert_example_data(system)
    memory.exchange()
    resident.exchange(
        engine="sqlite", storage=str(tmp_path / "cyc.db"), resident=True
    )
    for system in (memory, resident):
        assert system.delete_local("C", (2, "cn2"))
    store = resident.exchange_store
    assert store.count(SUSPECT_TABLE) > 0
    assert not store.meta_get("suspects_incomplete")
    propagate_both(memory, resident)
    assert (2, "cn2", False) not in store.relation_rows(
        resident.catalog["N"]
    )


def test_delete_while_stale_then_exchange_then_propagate(tmp_path):
    memory, resident = topology_twins(
        "chain", 4, [(3, 0, 10), (3, 1, 11), (2, 5, 13)],
        str(tmp_path / "stale.db"),
    )
    store = resident.exchange_store
    # As after a crash mid-run: the index no longer matches the store,
    # so victim marking cannot record suspects.
    store.reach_index.mark_stale()
    for system in (memory, resident):
        system.delete_local("P3_R1", (0, 10))
        system.delete_local("P3_R2", (0, 10))
    assert store.meta_get("suspects_incomplete")
    for system in (memory, resident):
        _seed_topology(system, 4, [(3, 2, 12)])
    exchange_both(memory, resident)
    # The exchange rebuilt the index; the flag survives it and sends
    # the propagation over every stored derived row.
    assert store.meta_get("index_state") == "current"
    assert store.meta_get("suspects_incomplete")
    propagate_both(memory, resident)
    assert resident.derivability() == memory.derivability()


def test_unexchanged_local_inserts_support_nothing(tmp_path):
    memory, resident = topology_twins(
        "chain", 4, [(3, 0, 10), (3, 1, 11)], str(tmp_path / "pending.db")
    )
    # One fresh pending entry, and one whose local rows equal derived
    # P1 rows: unexchanged, it must not keep them alive when their
    # upstream source dies (the memory graph has no such firing).
    pending = [(2, 7, 17), (1, 0, 10)]
    for system in (memory, resident):
        _seed_topology(system, 4, pending)
        system.delete_local("P3_R1", (0, 10))
        system.delete_local("P3_R2", (0, 10))
    propagate_both(memory, resident)
    assert (0, 10) not in resident.exchange_store.relation_rows(
        resident.catalog["P1_R1"]
    )
    # The pending rows were shipped; the next exchange derives from them.
    exchange_both(memory, resident)
    assert_store_matches(memory, resident)
    assert resident.derivability() == memory.derivability()


def test_reinserted_victim_converges_at_the_next_exchange(tmp_path):
    # A victim re-inserted but not yet exchanged lost its fires with
    # the delete; propagation ships it back first and rebuilds the
    # index, so its consequences survive exactly as the graph engine's
    # kept leaf node does — and the next exchange ships nothing twice.
    memory, resident = topology_twins(
        "chain", 3, [(2, 0, 10), (2, 1, 11)], str(tmp_path / "again.db")
    )
    for system in (memory, resident):
        system.delete_local("P2_R1", (0, 10))
        system.insert_local("P2_R1", (0, 10))
    propagate_both(memory, resident)
    assert resident.last_deletion.rows_mirrored == 1
    assert resident.derivability() == memory.derivability()
    exchange_both(memory, resident)
    assert resident.last_exchange.rows_mirrored == 0
    assert_store_matches(memory, resident)
    assert resident.derivability() == memory.derivability()


def test_cone_above_threshold_marks_stale_and_stays_exact(
    tmp_path, monkeypatch
):
    memory, resident = topology_twins(
        "branched", 4, [(3, 0, 10), (3, 1, 11), (2, 5, 13)],
        str(tmp_path / "big.db"),
    )
    monkeypatch.setattr(reach_index, "PRUNE_FALLBACK_RATIO", 10**9)
    for system in (memory, resident):
        system.delete_local("P3_R1", (0, 10))
    propagate_both(memory, resident)
    store = resident.exchange_store
    assert store.meta_get("index_state") == "stale"
    # A delete against the stale index cannot record suspects; the
    # next propagation rebuilds and runs over every derived row.
    for system in (memory, resident):
        system.delete_local("P2_R2", (5, 13))
    assert store.meta_get("suspects_incomplete")
    propagate_both(memory, resident)
    assert resident.derivability() == memory.derivability()


def test_shared_pm_row_survives_with_its_other_firing(tmp_path):
    # m1 and m5 project onto (i, n) only: two A rows with the same id
    # give two firings per mapping sharing one P_m row, and deleting
    # one A row must keep that row alive through the other firing.
    memory, resident = example_twins()
    for system in (memory, resident):
        insert_example_data(system)
        system.insert_local("A", (2, "sn9", 3))
    memory.exchange()
    resident.exchange(
        engine="sqlite", storage=str(tmp_path / "shared.db"), resident=True
    )
    for system in (memory, resident):
        assert system.delete_local("A", (2, "sn9", 3))
    propagate_both(memory, resident)
    assert resident.last_deletion.rows_deleted > 0


@pytest.mark.parametrize("stale", [False, True])
def test_mapping_reading_a_local_relation(tmp_path, stale):
    # The victim's own fires include a P_m mapping's: their bindings go
    # with the victim row, so that mapping's P_m is tested whole.
    def build():
        system = CDSS(
            [
                Peer.of(
                    "P",
                    [RelationSchema.of(name, ["x"]) for name in "RST"],
                )
            ]
        )
        system.add_mapping("j: T(x) :- R_l(x), S(x)", name="j")
        system.insert_local_many("R", [(1,), (2,)])
        system.insert_local_many("S", [(1,), (2,)])
        return system

    memory, resident = build(), build()
    memory.exchange()
    resident.exchange(
        engine="sqlite", storage=str(tmp_path / "local.db"), resident=True
    )
    if stale:
        resident.exchange_store.reach_index.mark_stale()
    for system in (memory, resident):
        assert system.delete_local("R", (1,))
    propagate_both(memory, resident)
    assert resident.last_deletion.pm_rows_collected == 1
