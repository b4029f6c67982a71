"""Fault-injection tests for the serving tier: a writer process killed
mid-operation must never leave a state a reader serves wrongly.

Each scenario runs the writer in a *subprocess* and kills it (via
``os._exit`` patched into a precise point of the lifecycle — a real
process death, no cleanup handlers), then examines the store file from
the parent:

* killed after the data rounds committed but before index maintenance
  finished → the persisted dirty-run flag + stale mark make readers
  refuse cleanly (:class:`ServeUnavailable`), and a reopen-by-path
  exchange heals the store (full re-seed, index rebuilt);
* killed inside the deletion kill transaction → SQLite rolls the
  transaction back, so readers still serve the exact pre-propagation
  state, and a reopened writer completes the propagation;
* SIGKILLed after the dead cone is staged and its rows are cut, before
  the kill transaction commits → the same rollback, with the persisted
  deletion suspects intact for the re-run;
* SIGKILLed after a re-inserted deletion victim was stored again, before
  the dead cone is staged → the stale mark committed with the row, so
  readers refuse, and a reopened writer rebuilds and converges.
"""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.errors import ServeUnavailable
from repro.exchange.reach_index import SUSPECT_TABLE
from repro.exchange.sql_executor import ExchangeStore
from repro.provenance.graph import TupleNode
from repro.serve import BackoffPolicy, ReaderSession

from test_serve import build_example

FAST_RETRY = BackoffPolicy(attempts=3, base_delay=0.0, multiplier=1.0)

#: child scripts import the same builders this module uses, so writer
#: and twin construct byte-identical stores.
_PRELUDE = textwrap.dedent(
    """
    import os, sys
    sys.path.insert(0, {tests_dir!r})
    from test_serve import build_example
    from repro.exchange.reach_index import ReachabilityIndex
    path = sys.argv[1]
    """
)


def _run_child(body, path, tests_dir):
    script = _PRELUDE.format(tests_dir=tests_dir) + textwrap.dedent(body)
    env = dict(os.environ)
    src = os.path.abspath(
        os.path.join(os.path.dirname(__file__), "..", "src")
    )
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", script, path],
        capture_output=True,
        text=True,
        env=env,
        timeout=180,
    )


@pytest.fixture
def tests_dir():
    return os.path.dirname(os.path.abspath(__file__))


class TestWriterKilledMidExchange:
    def test_readers_refuse_then_reopen_heals(self, tmp_path, tests_dir):
        path = str(tmp_path / "killed.db")
        proc = _run_child(
            """
            system = build_example()
            system.exchange(engine="sqlite", storage=path, resident=True)
            # Second, incremental run: die after its data rounds
            # committed, before index maintenance / dirty-clear ran.
            system.insert_local("A", (3, "sn3", 9))
            ReachabilityIndex.on_run_complete = (
                lambda *a, **k: os._exit(17)
            )
            system.exchange(engine="sqlite", storage=path, resident=True)
            os._exit(1)  # unreachable: the exchange must hit the kill
            """,
            path,
            tests_dir,
        )
        assert proc.returncode == 17, proc.stderr
        assert os.path.exists(path)

        # Partial state is on disk (the run's rounds committed), but
        # the persisted dirty flag refuses every reader cleanly — no
        # wrong answer, no hang, no partial observation.
        schema_only = build_example()
        with ReaderSession(
            path, schema_only.catalog, retry=FAST_RETRY
        ) as reader:
            with pytest.raises(ServeUnavailable, match="dirty"):
                reader.derivability()
            assert reader.metrics.value("serve.unavailable") == 1

        # Reopen by path from this process: the dirty flag forces the
        # full re-seed, the index rebuilds, and readers serve again —
        # matching a memory twin that ran the same operations cleanly.
        twin = build_example()
        twin.insert_local("A", (3, "sn3", 9))
        twin.exchange()
        healed = build_example()
        healed.insert_local("A", (3, "sn3", 9))
        healed.exchange(engine="sqlite", storage=path, resident=True)
        assert not healed.exchange_store.dirty_run
        assert healed.exchange_store.meta_get("index_state") == "current"
        with ReaderSession(path, healed.catalog) as reader:
            assert reader.derivability() == twin.derivability()
            node = TupleNode("O", ("sn3", 9, True))
            assert reader.lineage(node) == twin.lineage(node)


class TestWriterKilledMidPropagation:
    def test_kill_transaction_rolls_back_completely(
        self, tmp_path, tests_dir
    ):
        path = str(tmp_path / "prop.db")
        proc = _run_child(
            """
            system = build_example()
            system.exchange(engine="sqlite", storage=path, resident=True)
            assert system.delete_local("C", (2, "cn2"))
            # Die inside the deletion kill transaction, as the kill
            # begins — nothing of it may survive.
            ReachabilityIndex.finish_prune = (
                lambda *a, **k: os._exit(23)
            )
            system.propagate_deletions()
            os._exit(1)  # unreachable
            """,
            path,
            tests_dir,
        )
        assert proc.returncode == 23, proc.stderr

        # The twin runs the same operations but never propagates: the
        # killed transaction must have rolled back to exactly this
        # state, and the index must still be current at its epoch (the
        # leaf deletion maintained it before the crash).  The twin is
        # resident too — pre-propagation verdicts are a resident-mode
        # notion (the leaf tables shrink per-delete, the memory engine
        # only shrinks at propagation).
        twin = build_example()
        twin.exchange(
            engine="sqlite", storage=str(tmp_path / "twin.db"), resident=True
        )
        assert twin.delete_local("C", (2, "cn2"))
        schema_only = build_example()
        with ReaderSession(path, schema_only.catalog) as reader:
            assert reader.derivability() == twin.derivability()
            assert reader.last_read.retries == 0  # served, not refused

        # A reopened writer finishes the interrupted propagation and
        # converges to the fully-propagated twin.
        twin.propagate_deletions()
        healed = build_example()
        healed.exchange(engine="sqlite", storage=path, resident=True)
        assert healed.delete_local("C", (2, "cn2"))
        healed.propagate_deletions()
        with ReaderSession(path, healed.catalog) as reader:
            assert reader.derivability() == twin.derivability()
            for node, derivable in twin.derivability().items():
                if not derivable:
                    continue
                assert reader.lineage(node) == twin.lineage(node)

    def test_sigkill_after_cone_staged_keeps_suspects(
        self, tmp_path, tests_dir
    ):
        path = str(tmp_path / "cone.db")
        proc = _run_child(
            """
            import signal
            system = build_example()
            system.exchange(engine="sqlite", storage=path, resident=True)
            assert system.delete_local("C", (2, "cn2"))
            # The cone is staged and the dead rows and P_m rows are cut
            # (uncommitted) when the dead fires are pruned: die there.
            ReachabilityIndex._delete_dead_fires = (
                lambda self: os.kill(os.getpid(), signal.SIGKILL)
            )
            system.propagate_deletions()
            os._exit(1)  # unreachable
            """,
            path,
            tests_dir,
        )
        assert proc.returncode == -9, proc.stderr

        # Readers serve exactly the pre-kill state of a resident twin
        # that deleted but never propagated.
        twin = build_example()
        twin.exchange(
            engine="sqlite", storage=str(tmp_path / "twin.db"), resident=True
        )
        assert twin.delete_local("C", (2, "cn2"))
        with ReaderSession(path, build_example().catalog) as reader:
            assert reader.derivability() == twin.derivability()
            assert reader.last_read.retries == 0
        with ExchangeStore(path) as store:
            assert store.count(SUSPECT_TABLE) > 0
            assert store.meta_get("index_state") == "current"

        # A reopened writer re-runs the propagation and reaches the
        # memory twin's state.
        memory = build_example()
        memory.exchange()
        memory.delete_local("C", (2, "cn2"))
        memory.propagate_deletions()
        healed = build_example()
        healed.delete_local("C", (2, "cn2"))
        healed.exchange(engine="sqlite", storage=path, resident=True)
        healed.propagate_deletions()
        store = healed.exchange_store
        for schema in healed.catalog:
            assert store.relation_rows(schema) == set(
                memory.instance[schema.name]
            ), schema.name
        assert store.count(SUSPECT_TABLE) == 0
        with ReaderSession(path, healed.catalog) as reader:
            assert reader.derivability() == memory.derivability()


class TestWriterKilledAfterVictimShip:
    def test_reshipped_victim_commits_with_the_stale_mark(
        self, tmp_path, tests_dir
    ):
        path = str(tmp_path / "reship.db")
        proc = _run_child(
            """
            import signal
            system = build_example()
            system.exchange(engine="sqlite", storage=path, resident=True)
            assert system.delete_local("C", (2, "cn2"))
            system.insert_local("C", (2, "cn2"))
            from repro.exchange.sql_executor import ExchangeStore
            ship = ExchangeStore.ship_reinserted_victims

            def ship_then_die(self, instance):
                # The re-inserted victim is stored again first; die
                # as soon as that returns.
                assert ship(self, instance) == 1
                os.kill(os.getpid(), signal.SIGKILL)

            ExchangeStore.ship_reinserted_victims = ship_then_die
            system.propagate_deletions()
            os._exit(1)  # unreachable
            """,
            path,
            tests_dir,
        )
        assert proc.returncode == -9, proc.stderr

        # The victim's fires left the index with the delete: with the
        # row back in the store the index cannot be current, so the
        # same commit marked it stale and readers refuse.
        schema_only = build_example()
        with ExchangeStore(path) as store:
            assert (2, "cn2") in store.relation_rows(
                schema_only.catalog["C"]
            )
            assert store.meta_get("index_state") == "stale"
            assert store.meta_get("suspects_incomplete")
        with ReaderSession(
            path, schema_only.catalog, retry=FAST_RETRY
        ) as reader:
            with pytest.raises(ServeUnavailable, match="stale"):
                reader.derivability()

        # A reopened writer rebuilds the index, propagates over every
        # derived row and matches the memory engine, whose leaf node
        # survived the delete and re-insert.
        memory = build_example()
        memory.exchange()
        memory.delete_local("C", (2, "cn2"))
        memory.insert_local("C", (2, "cn2"))
        memory.propagate_deletions()
        healed = build_example()
        healed.exchange(engine="sqlite", storage=path, resident=True)
        healed.propagate_deletions()
        store = healed.exchange_store
        for schema in healed.catalog:
            assert store.relation_rows(schema) == set(
                memory.instance[schema.name]
            ), schema.name
        assert not store.meta_get("suspects_incomplete")
        with ReaderSession(path, healed.catalog) as reader:
            assert reader.derivability() == memory.derivability()
