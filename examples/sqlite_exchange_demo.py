"""SQL-backed, out-of-core update exchange with a compiled-plan cache.

The paper's testbed performs update exchange *inside the DBMS*; this
demo shows the reproduction's `repro.exchange` subsystem doing the
same:

* `engine="sqlite"` runs every semi-naive round as set-oriented SQL
  statements over delta tables (one statement per compiled join plan),
  maintaining the `P_m` provenance relations transactionally;
* an on-disk store path makes the exchange working set disk-resident —
  the out-of-core mode for instances larger than memory;
* the compiled-program cache makes incremental exchanges skip plan
  compilation entirely (`plans_compiled == 0` on a cache hit);
* the store mirror is synced *incrementally* from each relation's
  change journal — a repeat exchange over unchanged relations ships
  zero rows (`rows_mirrored == 0`);
* store-resident mode (`resident=True`) keeps the authoritative
  instance on disk only: derived tuples are never materialized in
  Python, so working sets can exceed memory;
* deletions work store-resident too: `delete_local` marks victims in
  SQL and `propagate_deletions` re-runs the paper's DERIVABILITY test
  over the store's reachability index, inside the victims' dead cone
  only, killing unsupported tuples and garbage-collecting dead `P_m`
  rows;
* graph *queries* work store-resident as well: `lineage` runs as a
  backward transitive-closure walk over the stored firing history's
  join columns, and `trusted`/`derivability` run a liveness fixpoint
  with the trust policy pushed into the firing joins — so no
  provenance graph is ever materialized for any lifecycle step;
* both engines produce identical instances, provenance graphs, and
  graph-query answers.

Run:  python examples/sqlite_exchange_demo.py [workdir]
"""

import sys
import tempfile
from pathlib import Path

from repro.cdss.trust import TrustPolicy
from repro.provenance.graph import TupleNode
from repro.relational.schema import is_local_name
from repro.workloads import chain
from repro.workloads.swissprot import generate_entries
from repro.workloads.topologies import TopologySpec, build_system


def build_cdss():
    """Structure-only twin of main()'s CDSS (no data), for
    ``python -m repro.analysis examples/sqlite_exchange_demo.py``."""
    return build_system(TopologySpec("chain", 6, (), base_size=0))


def main() -> None:
    workdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(
        tempfile.mkdtemp(prefix="repro-exchange-")
    )
    workdir.mkdir(parents=True, exist_ok=True)
    store_path = str(workdir / "exchange.db")

    # One chain workload per engine; the sqlite one keeps its working
    # set on disk (out-of-core).
    memory = chain(6, base_size=40, engine="memory")
    sqlite = chain(6, base_size=40, engine="sqlite", exchange_path=store_path)

    print("engine matrix (identical results, different substrates):")
    for label, system in (("memory", memory), ("sqlite", sqlite)):
        result = system.last_exchange
        print(
            f"  {label:>6}: {system.instance_size()} tuples, "
            f"graph {system.graph.size()}, {result.firings} firings, "
            f"{result.plans_compiled} plans compiled"
        )
    assert memory.instance == sqlite.instance
    assert memory.graph.tuples == sqlite.graph.tuples
    assert memory.graph.derivations == sqlite.graph.derivations
    baseline_size = memory.instance_size()
    print(f"  on-disk store: {store_path} "
          f"({Path(store_path).stat().st_size} bytes)")

    # Incremental update: the program is unchanged, so the compiled
    # plans come from the cache and nothing is recompiled.
    entry = (99_000_123, *(5,) * 12)
    entry2 = (99_000_123, *(6,) * 13)
    for system, engine in ((memory, "memory"), (sqlite, "sqlite")):
        system.insert_local("P5_R1", entry)
        system.insert_local("P5_R2", entry2)
        result = system.exchange(engine=engine, storage=(
            store_path if engine == "sqlite" else None
        ))
        print(
            f"incremental on {engine:>6}: {result.inserted} new tuples, "
            f"plans compiled = {result.plans_compiled} "
            f"(cache hit: {result.plan_cache_hit}), "
            f"mirrored {result.rows_mirrored} rows / "
            f"{result.relations_synced} relations"
        )
        assert result.plan_cache_hit and result.plans_compiled == 0
    assert memory.instance == sqlite.instance
    # Only the two appended rows crossed into the store — the rest of
    # the instance was already mirrored (journal high-water marks).
    assert sqlite.last_exchange.rows_mirrored == 2

    # A repeat exchange over unchanged relations ships nothing at all.
    unchanged = sqlite.exchange(engine="sqlite", storage=store_path)
    print(
        f"unchanged repeat: rows_mirrored = {unchanged.rows_mirrored}, "
        f"relations_synced = {unchanged.relations_synced}"
    )
    assert unchanged.rows_mirrored == 0 and unchanged.relations_synced == 0

    # Store-resident mode: the store IS the instance.  Derived tuples
    # exist only on disk; Python holds just the local contributions.
    resident = chain(
        6,
        base_size=40,
        engine="sqlite",
        exchange_path=str(workdir / "resident.db"),
        resident=True,
    )
    public_in_python = sum(
        resident.instance.size(r)
        for r in resident.catalog.names()
        if not is_local_name(r)
    )
    print(
        f"resident mode: {resident.instance_size()} tuples on disk, "
        f"{public_in_python} derived tuples in Python memory"
    )
    assert public_in_python == 0
    assert resident.instance_size() == baseline_size

    # Store-resident deletion propagation: delete a slice of the most
    # upstream peer's base data, then let the DERIVABILITY test run
    # inside the victims' dead cone over the reachability index —
    # victims and every tuple they solely supported disappear from the
    # on-disk instance, and the dead P_m rows are garbage-collected
    # alongside.
    upstream = 5
    victims = generate_entries(40, seed=upstream, key_offset=upstream * 10_000_000)[:4]
    for victim in victims:
        resident.delete_local(f"P{upstream}_R1", victim.first_row())
        resident.delete_local(f"P{upstream}_R2", victim.second_row())
    removed = resident.propagate_deletions()
    stats = resident.last_deletion
    print(
        f"resident delete: {len(victims) * 2} victims marked in SQL, "
        f"{removed} unsupported tuples propagated out "
        f"({stats.pm_rows_scanned} firings visited), "
        f"{stats.pm_rows_collected} P_m rows collected"
    )
    assert stats.rows_deleted == removed > 0
    assert stats.pm_rows_collected > 0
    assert resident.instance_size() < baseline_size

    # The store remains fully incremental after the delete: a fresh
    # exchange re-derives only what the new rows support.
    resident.insert_local("P5_R1", entry)
    resident.insert_local("P5_R2", entry2)
    after_delete = resident.exchange(engine="sqlite", resident=True)
    assert after_delete.rows_mirrored == 2
    print(
        f"post-delete incremental exchange: {after_delete.inserted} tuples "
        f"re-derived, {after_delete.rows_mirrored} rows mirrored"
    )

    # Store-resident graph queries: the provenance graph is never
    # built, yet lineage/derivability/trusted answer relationally.
    # lineage(node) walks the firing history backwards from the query
    # row (a transitive closure over the P_m join columns); the entry
    # just inserted at the most upstream peer reaches the target peer
    # through the whole chain, so its target-side tuple's lineage is
    # the pair of upstream local contributions.
    node = TupleNode("P0_R1", entry)
    leaves = resident.lineage(node)
    stats = resident.last_graph_query
    print(
        f"resident lineage of {node.relation}{node.values[:2]}...: "
        f"{len(leaves)} leaf tuples in {stats.iterations} walk rounds "
        f"({stats.pm_rows_scanned} firing rows scanned, engine={stats.engine})"
    )
    assert leaves == frozenset(
        {TupleNode("P5_R1_l", entry), TupleNode("P5_R2_l", entry2)}
    )
    assert resident.graph.size() == (0, 0)  # still no graph in Python

    # trusted() pushes the policy INTO the SQL fixpoint: distrusting
    # the most upstream mapping cuts everything derived through it,
    # and leaf conditions filter which local rows seed the live set.
    policy = TrustPolicy()
    policy.distrust_mapping("m5")  # the edge out of peer 5
    verdicts = resident.trusted(policy)
    trusted_count = sum(1 for trusted in verdicts.values() if trusted)
    print(
        f"resident trust under distrust(m5): {trusted_count} of "
        f"{len(verdicts)} stored tuples trusted "
        f"(fixpoint rounds: {resident.last_graph_query.iterations})"
    )
    assert not verdicts[node]  # entry only reaches P0 through m5
    assert trusted_count < len(verdicts)

    # The P_m provenance relations were maintained inside SQLite,
    # round by round, alongside the instance tables.
    store = sqlite.exchange_store
    mapping = next(
        m for m in sqlite.mappings.values()
        if not m.is_superfluous and m.provenance_columns
    )
    (count,) = store.connection.execute(
        f'SELECT COUNT(*) FROM "P_{mapping.name}"'
    ).fetchone()
    print(
        f"provenance relation P_{mapping.name} holds {count} derivation "
        "rows, written transactionally during the SQL fixpoint"
    )


if __name__ == "__main__":
    main()
