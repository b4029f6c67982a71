"""Property-based cross-check of the maintained reachability index.

Random chain/branched mapping topologies under random interleavings of
insert / exchange / delete / propagate / query: the maintained index's
answers must equal a rebuilt-index copy of the store on every query,
and the memory engine whenever no divergence window is open
(un-propagated deletes: resident victim marking removes rows
immediately while the graph keeps leaves until propagation;
un-exchanged inserts: a propagation may sync them into the store
before the graph learns of them).  After the lifecycle, a store
reopened by path must still know its index epoch and state and answer
queries without a rebuild."""

import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cdss import CDSS, Peer, TrustPolicy
from repro.exchange.graph_queries import (
    StoreGraphQueries,
    rebuilt_index_queries,
)
from repro.exchange.sql_executor import ExchangeStore
from repro.relational import RelationSchema
from repro.relational.schema import is_local_name

LENGTH = 4


def build_twins(kind):
    """Memory twin + (to-be) resident twin over a small topology."""
    if kind == "chain":
        mappings = [f"c{i}: B{i}(x) :- B{i - 1}(x)" for i in range(1, LENGTH)]
        data = ["B0"]
    else:  # branched: B0 and B1 join into B2, then a chain tail
        mappings = ["j2: B2(x) :- B0(x), B1(x)", "c3: B3(x) :- B2(x)"]
        data = ["B0", "B1"]
    out = []
    for _ in range(2):
        system = CDSS(
            [
                Peer.of(f"P{i}", [RelationSchema.of(f"B{i}", ["x"])])
                for i in range(LENGTH)
            ]
        )
        system.add_mappings(mappings)
        out.append(system)
    return out[0], out[1], data, mappings[0].split(":")[0]


def rebuilt_oracle(resident):
    program, _ = resident.plan_cache.fetch(resident.program())
    return rebuilt_index_queries(
        resident.exchange_store, program, resident.catalog, resident.mappings
    )


def public_nodes(memory):
    return sorted(
        node
        for node in memory.graph.tuples
        if not is_local_name(node.relation)
    )


def compare_queries(memory, resident, pick, distrusted, window_open):
    indexed = resident.derivability()
    policy = TrustPolicy()
    policy.distrust_mapping(distrusted)
    indexed_trust = resident.trusted(policy)
    nodes = public_nodes(memory)
    node = nodes[pick % len(nodes)] if nodes else None
    with rebuilt_oracle(resident) as oracle:
        assert indexed == oracle.derivability()[0]
        assert indexed_trust == oracle.trusted(policy)[0]
        if node is not None:
            try:
                from_index = resident.lineage(node)
            except KeyError:
                from_index = KeyError
            try:
                from_oracle = oracle.lineage(node)[0]
            except KeyError:
                from_oracle = KeyError
            assert from_index == from_oracle
    if window_open:
        return
    # No divergence window open: the memory engine must agree too.
    assert indexed == memory.derivability()
    assert indexed_trust == memory.trusted(policy)
    if node is not None:
        assert from_index == memory.lineage(node)


ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 1), st.integers(6, 11)),
        st.tuples(st.just("exchange"), st.just(0)),
        st.tuples(st.just("delete"), st.integers(0, 7)),
        st.tuples(st.just("propagate"), st.just(0)),
        st.tuples(st.just("query"), st.integers(0, 7)),
    ),
    max_size=10,
)


@settings(max_examples=15, deadline=None)
@given(
    kind=st.sampled_from(["chain", "branched"]),
    rows=st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True),
    operations=ops,
)
# A victim deleted and re-inserted with no exchange in between keeps
# its consequences at propagation, as the memory engine's leaf does.
@example(
    kind="chain",
    rows=[0],
    operations=[
        ("insert", 0, 6),
        ("exchange", 0),
        ("delete", 0),
        ("delete", 0),
        ("insert", 0, 6),
    ],
)
def test_indexed_lifecycle_matches_both_oracles(kind, rows, operations):
    memory, resident, data, distrusted = build_twins(kind)
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "resident.db")
        for relation in data:
            for value in rows:
                for system in (memory, resident):
                    system.insert_local(relation, (value,))
        memory.exchange()
        resident.exchange(engine="sqlite", storage=path, resident=True)
        # Divergence windows vs the memory engine: un-exchanged
        # inserts (a propagation may sync them into the store before
        # the graph learns of them) and un-propagated deletes (the
        # graph keeps victim leaves until propagation).
        pending_inserts = False
        pending_deletes = False
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
                    for row in sorted(memory.instance[f"{relation}_l"])
                ]
                if not candidates:
                    continue
                relation, row = candidates[arg % len(candidates)]
                for system in (memory, resident):
                    system.delete_local(relation, row)
                pending_deletes = True
            elif op == "propagate":
                removed = memory.propagate_deletions()
                assert removed == resident.propagate_deletions()
                pending_deletes = False
            else:
                compare_queries(
                    memory,
                    resident,
                    arg,
                    distrusted,
                    pending_inserts or pending_deletes,
                )
        if pending_deletes:
            assert memory.propagate_deletions() == (
                resident.propagate_deletions()
            )
        if pending_inserts:
            memory.exchange()
            resident.exchange(engine="sqlite", resident=True)
        compare_queries(memory, resident, 0, distrusted, False)
        # Epoch/state survive a reopen-by-path; queries answer from
        # the persisted index with no rebuild.
        store = resident.exchange_store
        state = store.meta_get("index_state")
        epoch = store.meta_get("index_epoch")
        assert state == "current"
        store.close()
        with ExchangeStore(path) as reopened:
            assert reopened.meta_get("index_state") == state
            assert int(reopened.meta_get("index_epoch")) == int(epoch)
            program, _ = resident.plan_cache.fetch(resident.program())
            queries = StoreGraphQueries(
                reopened, program, resident.catalog, resident.mappings
            )
            verdicts, stats = queries.derivability()
            assert stats.index_hit == 1 and stats.index_miss == 0
            assert verdicts == memory.derivability()
