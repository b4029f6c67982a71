"""Property-based cross-check of the serving tier's readers.

Random interleavings of writer operations (insert / exchange / delete /
propagate) with reader queries over chain and branched topologies: a
persistent read-only :class:`ReaderSession` must answer every
``lineage`` / ``derivability`` / ``trusted`` query exactly like a
rebuilt-index copy of the store at the epoch the reader observes — and
like a memory-engine twin whenever no divergence window (un-propagated
deletes, un-exchanged inserts) is open — across epoch drift, per-epoch
cache reuse, and index invalidation (a stale index makes the reader
*refuse*, never answer wrongly, until the writer's next indexed query
rebuilds it).
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdss import TrustPolicy
from repro.errors import ServeUnavailable
from repro.relational.schema import is_local_name
from repro.serve import BackoffPolicy, ReaderSession

from test_reach_index_properties import LENGTH, build_twins, rebuilt_oracle

FAST_RETRY = BackoffPolicy(attempts=2, base_delay=0.0, multiplier=1.0)


def stored_rows(resident, relation):
    return resident.exchange_store.relation_rows(
        resident.catalog[relation]
    )


def compare_with_oracle(resident, readers, pick, distrusted, memory=None):
    """Every reader answer equals the rebuilt-index oracle's, at the
    epoch both observe (the writer is quiescent between ops, so the
    latest epoch is the only servable one), and *memory*'s when given
    (no divergence window open)."""
    store = resident.exchange_store
    if store.meta_get("index_state") != "current":
        # Invalidation (large deletion cone): the reader must refuse
        # rather than extrapolate, until the writer's own next indexed
        # query rebuilds the index.
        with pytest.raises(ServeUnavailable):
            ReaderSession(
                store.path, resident.catalog, retry=FAST_RETRY
            ).derivability()
        resident.derivability()  # writer-side rebuild
        assert store.meta_get("index_state") == "current"
    epoch = int(store.meta_get("index_epoch") or 0)
    policy = TrustPolicy()
    policy.distrust_mapping(distrusted)
    with rebuilt_oracle(resident) as oracle:
        expected_derivability = oracle.derivability()[0]
        expected_trusted = oracle.trusted(policy)[0]
        nodes = sorted(
            node
            for node in expected_derivability
            if not is_local_name(node.relation)
        )
        probe = nodes[pick % len(nodes)] if nodes else None
        if probe is not None:
            try:
                expected_lineage = oracle.lineage(probe)[0]
            except KeyError:
                expected_lineage = KeyError
    if memory is not None:
        assert expected_derivability == memory.derivability()
        assert expected_trusted == memory.trusted(policy)
        if probe is not None:
            assert expected_lineage == memory.lineage(probe)
    unknown = f"B{LENGTH - 1}", (987_654,)
    for reader in readers:
        assert reader.derivability() == expected_derivability
        assert reader.last_read.epoch == epoch
        assert reader.trusted(policy) == expected_trusted
        if probe is not None:
            try:
                got = reader.lineage(probe)
            except KeyError:
                got = KeyError
            assert got == expected_lineage
        from repro.provenance.graph import TupleNode

        with pytest.raises(KeyError):
            reader.lineage(TupleNode(*unknown))


ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 1), st.integers(6, 11)),
        st.tuples(st.just("exchange"), st.just(0)),
        st.tuples(st.just("delete"), st.integers(0, 7)),
        st.tuples(st.just("propagate"), st.just(0)),
        st.tuples(st.just("query"), st.integers(0, 7)),
    ),
    max_size=8,
)


@settings(max_examples=12, deadline=None)
@given(
    kind=st.sampled_from(["chain", "branched"]),
    rows=st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True),
    operations=ops,
)
def test_reader_matches_oracle_under_interleavings(kind, rows, operations):
    memory, resident, data, distrusted = build_twins(kind)
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "resident.db")
        for relation in data:
            for value in rows:
                for system in (memory, resident):
                    system.insert_local(relation, (value,))
        memory.exchange()
        resident.exchange(engine="sqlite", storage=path, resident=True)
        readers = [
            ReaderSession(path, resident.catalog) for _ in range(2)
        ]
        # Divergence windows vs the memory engine, as in
        # test_reach_index_properties.
        pending_inserts = False
        pending_deletes = False
        try:
            compare_with_oracle(resident, readers, 0, distrusted, memory)
            for op, arg, *rest in (operations or []):
                if op == "insert":
                    relation = data[arg % len(data)]
                    for system in (memory, resident):
                        system.insert_local(relation, (rest[0],))
                    pending_inserts = True
                elif op == "exchange":
                    memory.exchange()
                    resident.exchange(engine="sqlite", resident=True)
                    pending_inserts = False
                elif op == "delete":
                    candidates = [
                        (relation, row)
                        for relation in data
                        for row in sorted(
                            stored_rows(resident, f"{relation}_l")
                        )
                    ]
                    if not candidates:
                        continue
                    relation, row = candidates[arg % len(candidates)]
                    for system in (memory, resident):
                        system.delete_local(relation, row)
                    pending_deletes = True
                elif op == "propagate":
                    assert (
                        memory.propagate_deletions()
                        == resident.propagate_deletions()
                    )
                    pending_deletes = False
                else:
                    window_open = pending_inserts or pending_deletes
                    compare_with_oracle(
                        resident, readers, arg, distrusted,
                        None if window_open else memory,
                    )
            compare_with_oracle(
                resident, readers, 1, distrusted,
                None if pending_inserts or pending_deletes else memory,
            )
        finally:
            for reader in readers:
                reader.close()
