"""The benchmark's three workloads over one chain CDSS each.

Every workload derives its whole op log from ``--seed`` through
:func:`repro.workloads.swissprot.generate_entries` before the system is
built; the program only ever sees the generated rows.  A workload
builds its system (:meth:`Workload.setup`), runs one timed phase per
:meth:`Workload.drive` call, and checks its answers against a
reference (:meth:`Workload.check`).
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import random
import threading
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable

from repro.cdss.trust import TrustPolicy
from repro.provenance.graph import TupleNode
from repro.relational.schema import is_local_name
from repro.workloads import chain
from repro.workloads.swissprot import SwissProtEntry, generate_entries
from repro.workloads.topologies import peer_name, upstream_data_peers

from perfbench.tracing import Recorder

#: the paper's target query (Section 6).
TARGET_QUERY = "FOR [P0_R1 $x] INCLUDE PATH [$x] <-+ [] RETURN $x"
#: benchmark-inserted entries take keys from here up, far above every
#: peer's base keys (peer * 10_000_000 + index).
FRESH_KEYS = 900_000_000
#: lineage probes per workload (base entries, never deleted).
PROBES = 6


@dataclass(frozen=True)
class Sizes:
    """Workload scale: chain length, base entries per data peer, and
    how many times one run repeats set-up (``setup_s`` is the median)."""

    peers: int
    resident_base: int
    memory_base: int
    setups: int


FULL = Sizes(peers=8, resident_base=400, memory_base=200, setups=3)
#: the self-test's scale: every code path, a second per run.
SMOKE = Sizes(peers=4, resident_base=30, memory_base=20, setups=1)


def trust_policy(peers: int) -> TrustPolicy:
    """Figure 14's policy: even-valued top-peer rows, and distrust of
    the mapping into the target peer."""
    policy = TrustPolicy()
    policy.trust_if(f"P{peers - 1}_R1", lambda values: values[1] % 2 == 0)
    policy.distrust_mapping("m1")
    return policy


def fingerprint(value: object) -> int:
    """Order-insensitive fingerprint of an answer (compared in-process)."""
    if isinstance(value, dict):
        return hash(frozenset(value.items()))
    if isinstance(value, (set, frozenset, list)):
        return hash(frozenset(value))
    return hash(value)


def summary(value: object) -> object:
    """Size and derivable count of a verdict map; else the fingerprint."""
    if isinstance(value, dict):
        return len(value), sum(value.values())
    return fingerprint(value)


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


class Phase:
    """What one thread observed during one timed phase."""

    def __init__(self, recorder: Recorder | None, prefix: str) -> None:
        self.recorder = recorder
        self.prefix = prefix
        self.ms: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.completed = 0
        self.failed = 0
        #: failed ops whose answer the checks marked wrong
        self.wrong = 0
        self.problems: list[str] = []
        self.elapsed = 0.0
        self.writes = 0
        self.reads = 0
        self.repeat_reads = 0
        self.questions: set[tuple] = set()
        #: resident store only: exchange op id -> firings, rows
        #: mirrored per exchange, and P_m rows scanned per propagation
        self.firings: dict[str, int] = {}
        self.pm_scanned: list[int] = []
        self.mirrored: list[int] = []
        #: open-loop writer: start time minus due time, per update
        self.late_ms: list[float] = []
        self.cache_hits = 0
        self.retries = 0
        self._ids = itertools.count()
        self.last_op = ""

    def fail(self, message: str, wrong: bool = False) -> None:
        self.failed += 1
        self.wrong += wrong
        if len(self.problems) < 20:
            self.problems.append(message)

    def op(
        self, kind: str, fn: Callable[[], Any], due: float | None = None
    ) -> tuple[bool, Any]:
        """Run one op, timing it from *due* (open loop) or its start.

        A raised error counts the op as failed; it is never retried.
        """
        self.attempted += 1
        op_id = self.last_op = f"{self.prefix}{next(self._ids)}"
        scope = (
            self.recorder.op(op_id, kind)
            if self.recorder is not None
            else nullcontext()
        )
        start = time.perf_counter()
        try:
            with scope:
                value = fn()
        except Exception as error:  # noqa: BLE001 - reported as a failed op
            self.fail(f"{kind}: {error!r}")
            return False, None
        self.ms[kind].append(
            (time.perf_counter() - (start if due is None else due)) * 1e3
        )
        self.completed += 1
        return True, value

    def asked(self, epoch: int, question: tuple) -> None:
        """Count one read; a repeat asks a question again at one epoch."""
        self.reads += 1
        key = (epoch, question)
        if key in self.questions:
            self.repeat_reads += 1
        self.questions.add(key)


class Workload:
    """Shared plumbing: seeded inputs, store files, the twin check."""

    name = ""
    resident = False

    def __init__(self, seed: int, sizes: Sizes, workdir: str) -> None:
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        #: self-test hook: falsify the next checked answer
        self.corrupt = False
        self.top = peer_name(sizes.peers - 1)
        self.policy = trust_policy(sizes.peers)
        self.rng = random.Random(seed)
        self.probes = self._probes()
        self.oplog = self.plan()
        self.system: Any = None
        self.path = ""
        self._setups = 0
        #: every op applied to the system, for the twin replay
        self.applied: list[tuple[str, SwissProtEntry]] = []

    @property
    def base(self) -> int:
        return self.sizes.resident_base if self.resident else self.sizes.memory_base

    def _probes(self) -> list[TupleNode]:
        """Target-peer copies of random base entries of the data peers."""
        probes = []
        for index in range(PROBES):
            peer = upstream_data_peers(self.sizes.peers, 2)[index % 2]
            entry = self.rng.choice(
                generate_entries(
                    self.base, seed=self.seed + peer, key_offset=peer * 10_000_000
                )
            )
            probes.append(TupleNode("P0_R1", entry.first_row()))
        return probes

    def fresh(self, count: int) -> list[SwissProtEntry]:
        return generate_entries(
            count, seed=self.seed + 1_000_003, key_offset=FRESH_KEYS
        )

    def plan(self) -> list[tuple[str, SwissProtEntry]]:
        raise NotImplementedError

    def digest(self) -> str:
        """sha256 of the generated op log and probe nodes."""
        text = repr((self.oplog, self.probes))
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    # -- system lifecycle --------------------------------------------------

    def build(self) -> None:
        """A fresh system with the base data exchanged."""
        self.teardown()
        self.applied = []
        if self.resident:
            self._setups += 1
            self.path = os.path.join(self.workdir, f"{self.name}-{self._setups}.db")
            self.system = chain(
                self.sizes.peers,
                base_size=self.base,
                seed=self.seed,
                engine="sqlite",
                exchange_path=self.path,
                resident=True,
            )
        else:
            self.system = chain(
                self.sizes.peers, base_size=self.base, seed=self.seed
            )

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        store = getattr(self.system, "exchange_store", None)
        if store is not None and not store.closed:
            store.close()
        self.system = None
        if self.path:
            for suffix in ("", "-wal", "-shm", "-journal"):
                if os.path.exists(self.path + suffix):
                    os.remove(self.path + suffix)
            self.path = ""

    def instrument(self, recorder: Recorder) -> None:
        """Count the store connection's statements (resident systems)."""
        if self.resident:
            recorder.count_statements(self.system.exchange_store.connection)

    # -- ops ---------------------------------------------------------------

    def insert(self, entry: SwissProtEntry) -> None:
        system = self.system
        system.insert_local(f"{self.top}_R1", entry.first_row())
        system.insert_local(f"{self.top}_R2", entry.second_row())
        if self.resident:
            system.exchange(engine="sqlite", storage=self.path, resident=True)
        else:
            system.exchange()
        self.applied.append(("insert", entry))

    def delete(self, entry: SwissProtEntry) -> None:
        system = self.system
        system.delete_local(f"{self.top}_R1", entry.first_row())
        system.delete_local(f"{self.top}_R2", entry.second_row())
        system.propagate_deletions()
        self.applied.append(("delete", entry))

    def write(
        self,
        phase: Phase,
        op: tuple[str, SwissProtEntry],
        due: float | None = None,
    ) -> None:
        kind, entry = op
        if kind == "insert":
            ok, _ = phase.op("exchange", lambda: self.insert(entry), due)
            if ok and self.resident:
                result = self.system.last_exchange
                phase.firings[phase.last_op] = result.firings
                phase.mirrored.append(result.rows_mirrored)
        else:
            ok, _ = phase.op("propagate", lambda: self.delete(entry), due)
            if ok and self.resident:
                phase.pm_scanned.append(self.system.last_deletion.pm_rows_scanned)
        phase.writes += 1

    # -- checks ------------------------------------------------------------

    def twin(self):
        """A memory-engine system replaying every applied op's net effect."""
        twin = chain(self.sizes.peers, base_size=self.base, seed=self.seed)
        for kind, entry in self.applied:
            rows = (
                (f"{self.top}_R1", entry.first_row()),
                (f"{self.top}_R2", entry.second_row()),
            )
            for relation, row in rows:
                if kind == "insert":
                    twin.insert_local(relation, row)
                else:
                    twin.delete_local(relation, row)
        twin.exchange()
        twin.propagate_deletions()
        return twin

    def questions(self) -> list[tuple]:
        """Every graph question the checks ask: each probe's lineage,
        derivability, and trust under the policy."""
        lineage = [("lineage", index) for index in range(len(self.probes))]
        return lineage + [("derivability",), ("trusted",)]

    def pose(self, target: Any, question: tuple) -> object:
        """Ask *target* (a CDSS or a reader session) one question."""
        if question[0] == "lineage":
            return target.lineage(self.probes[question[1]])
        if question[0] == "derivability":
            return target.derivability()
        return target.trusted(self.policy)

    def compare(self, phase: Phase, target: Any, twin: Any) -> None:
        """Every question, asked of *target*, must answer as the twin does."""
        for question in self.questions():
            phase.attempted += 1
            try:
                answer = self.pose(target, question)
            except Exception as error:  # noqa: BLE001 - reported as failed
                phase.fail(f"check: {question} raised {error!r}", wrong=True)
                continue
            if self.corrupt:
                self.corrupt, answer = False, frozenset()
            if answer != self.pose(twin, question):
                phase.fail(f"check: {question} differs from the twin", wrong=True)

    def store_bytes(self) -> int:
        return sum(
            os.path.getsize(self.path + suffix)
            for suffix in ("", "-wal")
            if os.path.exists(self.path + suffix)
        )

    def drive(self, seconds: float, recorder: Recorder | None) -> list[Phase]:
        raise NotImplementedError

    def check(self, phase: Phase) -> None:
        raise NotImplementedError


class ResidentWrites(Workload):
    """Closed-loop writer on the resident store: 9 one-entry exchanges
    then one one-entry deletion propagation per cycle; no reads."""

    name = "resident_writes"
    resident = True
    CYCLE = 10
    #: op-log cap: 6000 ops outlasts a 60 s run at the current speed.
    CYCLES = 600

    def plan(self) -> list[tuple[str, SwissProtEntry]]:
        fresh = iter(self.fresh(self.CYCLES * (self.CYCLE - 1)))
        alive: list[SwissProtEntry] = []
        oplog = []
        for _ in range(self.CYCLES):
            for _ in range(self.CYCLE - 1):
                entry = next(fresh)
                alive.append(entry)
                oplog.append(("insert", entry))
            oplog.append(("delete", alive.pop(self.rng.randrange(len(alive)))))
        return oplog

    def setup(self) -> None:
        self.build()
        warmup = Phase(None, "s")
        for op in self.oplog[: self.CYCLE]:
            self.write(warmup, op)
        if warmup.failed:
            raise RuntimeError(f"warm-up failed: {warmup.problems}")
        self.cursor = self.CYCLE

    def drive(self, seconds: float, recorder: Recorder | None) -> list[Phase]:
        phase = Phase(recorder, "w")
        started = time.perf_counter()
        deadline = started + seconds
        while time.perf_counter() < deadline and self.cursor < len(self.oplog):
            for op in self.oplog[self.cursor : self.cursor + self.CYCLE]:
                self.write(phase, op)
            self.cursor += self.CYCLE
        phase.elapsed = time.perf_counter() - started
        return [phase]

    def check(self, phase: Phase) -> None:
        """The store must be clean, and hold and answer as the twin."""
        system = self.system
        twin = self.twin()
        public = {
            node
            for node in system.derivability()
            if not is_local_name(node.relation)
        }
        expected = {
            TupleNode(relation, row)
            for relation in twin.catalog.names()
            if not is_local_name(relation)
            for row in twin.instance[relation]
        }
        checks = {
            "dirty_run is clear": not system.exchange_store.dirty_run,
            "public tuples equal the twin's": public == expected,
            "instance_size equals the twin's": (
                system.instance_size() == twin.instance_size()
            ),
        }
        for label, ok in checks.items():
            phase.attempted += 1
            if not ok:
                phase.fail(f"check: {label} fails", wrong=True)
        self.compare(phase, system, twin)


class MemoryQueries(Workload):
    """Closed-loop client on the memory engine: one one-entry exchange,
    then the question mix twice; every 4th cycle one propagation."""

    name = "memory_queries"
    CYCLES = 200
    DELETE_EVERY = 4

    def plan(self) -> list[tuple[str, SwissProtEntry]]:
        fresh = self.fresh(self.CYCLES)
        oplog = []
        alive: list[SwissProtEntry] = []
        for cycle, entry in enumerate(fresh):
            oplog.append(("insert", entry))
            alive.append(entry)
            if cycle % self.DELETE_EVERY == self.DELETE_EVERY - 1:
                oplog.append(("delete", alive.pop(self.rng.randrange(len(alive)))))
        return oplog

    def setup(self) -> None:
        self.build()
        self.epoch = 0
        self.cycle = 0
        warmup = Phase(None, "s")
        self.write(warmup, self.oplog[0])
        self.ask(warmup, self.probes[0])
        if warmup.failed:
            raise RuntimeError(f"warm-up failed: {warmup.problems}")
        self.cursor = 1

    def ask(self, phase: Phase, probe: TupleNode) -> None:
        """One pass of the question mix; checks the two ProQL engines agree."""
        system = self.system
        questions: list[tuple[str, tuple, Callable[[], Any]]] = [
            ("lineage", ("lineage", probe), lambda: system.lineage(probe)),
            ("derivability", ("derivability",), system.derivability),
            ("trusted", ("trusted",), lambda: system.trusted(self.policy)),
            ("proql_graph", ("proql",), lambda: system.query(TARGET_QUERY)),
            (
                "proql_sql",
                ("proql_sql",),
                lambda: system.query(TARGET_QUERY, engine="sqlite"),
            ),
        ]
        answers = {}
        for kind, question, fn in questions:
            phase.asked(self.epoch, question)
            ok, answers[kind] = phase.op(kind, fn)
        graph, sql = answers["proql_graph"], answers["proql_sql"]
        if graph is not None and sql is not None:
            sql_rows = set(sql.rows)
            if self.corrupt:
                self.corrupt = False
                sql_rows.pop()
            if set(graph.rows) != sql_rows:
                phase.fail(
                    f"check: query(Q) and query(Q, engine='sqlite') differ "
                    f"at epoch {self.epoch}",
                    wrong=True,
                )

    def drive(self, seconds: float, recorder: Recorder | None) -> list[Phase]:
        phase = Phase(recorder, "m")
        started = time.perf_counter()
        deadline = started + seconds
        while time.perf_counter() < deadline and self.cursor < len(self.oplog):
            self.write(phase, self.oplog[self.cursor])
            self.cursor += 1
            self.epoch += 1
            probe = self.probes[self.cycle % len(self.probes)]
            self.cycle += 1
            self.ask(phase, probe)
            self.ask(phase, probe)
            if self.cursor < len(self.oplog) and self.oplog[self.cursor][0] == "delete":
                self.write(phase, self.oplog[self.cursor])
                self.cursor += 1
                self.epoch += 1
        phase.elapsed = time.perf_counter() - started
        return [phase]

    def check(self, phase: Phase) -> None:
        """The ProQL pair is checked inline, op by op (see :meth:`ask`)."""


class ServeMixed(Workload):
    """Open-loop writer at a fixed rate beside one closed-loop reader
    session on the same resident store."""

    name = "serve_mixed"
    resident = True
    #: updates per second (one-entry insert + exchange each).
    RATE = 0.5
    UPDATES = 150
    #: the reader's question rotation: lineage x3, derivability, trusted.
    MIX = ("lineage", "lineage", "lineage", "derivability", "trusted")

    def plan(self) -> list[tuple[str, SwissProtEntry]]:
        return [("insert", entry) for entry in self.fresh(self.UPDATES)]

    def setup(self) -> None:
        self.build()
        self.session = self.system.serving_session()
        #: (epoch, question) -> (fingerprint, summary) of its first answer
        self.seen: dict[tuple, tuple[int, object]] = {}
        warmup = Phase(None, "s")
        self.write(warmup, self.oplog[0])
        for step in range(len(self.MIX)):
            self.read(warmup, step)
        if warmup.failed:
            raise RuntimeError(f"warm-up failed: {warmup.problems}")
        self.cursor = 1
        self.step = 0

    def teardown(self) -> None:
        if self.system is not None:
            self.session.close()
        super().teardown()

    def question(self, step: int) -> tuple:
        """The reader's *step*-th question; lineage probes rotate."""
        kind = self.MIX[step % len(self.MIX)]
        if kind == "lineage":
            rounds, position = divmod(step, len(self.MIX))
            return ("lineage", (rounds * 3 + position) % len(self.probes))
        return (kind,)

    def read(self, phase: Phase, step: int) -> None:
        question = self.question(step)
        kind = question[0]
        ok, answer = phase.op(kind, lambda: self.pose(self.session, question))
        stats = self.session.last_read
        if not ok or stats is None:
            return
        phase.asked(stats.epoch, question)
        phase.retries += stats.retries
        if stats.cache_hit:
            phase.cache_hits += 1
        else:
            phase.ms["fresh_read"].append(phase.ms[kind][-1])
        self.agree(phase, stats.epoch, stats.cache_hit, question, answer)

    def agree(
        self, phase: Phase, epoch: int, hit: bool, question: tuple, answer: object
    ) -> None:
        """Answers to one question at one epoch must be equal.

        A computed answer is fingerprinted in full.  A cache hit copies
        the answer computed before, so it is compared by a summary
        (size and derivable count) that keeps the check cheap beside
        the reader; the final-epoch check compares in full.
        """
        key = (epoch, question)
        cheap = summary(answer)
        if hit and key in self.seen:
            agrees = self.seen[key][1] == cheap
        else:
            full = fingerprint(answer)
            agrees = self.seen.setdefault(key, (full, cheap))[0] == full
        if not agrees:
            phase.fail(
                f"check: {question} answered two values at epoch {epoch}",
                wrong=True,
            )

    def drive(self, seconds: float, recorder: Recorder | None) -> list[Phase]:
        writer, reader = Phase(recorder, "w"), Phase(recorder, "r")
        due_in_time = max(1, int(seconds * self.RATE))
        updates = min(due_in_time, len(self.oplog) - self.cursor)
        done = threading.Event()

        def read_loop() -> None:
            while not done.is_set():
                self.read(reader, self.step)
                self.step += 1
                # a client yields between requests, as it would on a socket
                time.sleep(0)

        thread = threading.Thread(target=read_loop, name="perfbench-reader")
        started = time.perf_counter()
        thread.start()
        try:
            for number in range(updates):
                due = started + number / self.RATE
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                writer.late_ms.append(max(0.0, time.perf_counter() - due) * 1e3)
                self.write(writer, self.oplog[self.cursor], due)
                self.cursor += 1
            # the phase lasts its full time, past the last update too
            pause = started + seconds - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
        finally:
            done.set()
            thread.join()
        writer.elapsed = reader.elapsed = time.perf_counter() - started
        return [writer, reader]

    def check(self, phase: Phase) -> None:
        """Final-epoch reader answers must equal the memory twin's."""
        self.compare(phase, self.session, self.twin())


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (ResidentWrites, MemoryQueries, ServeMixed)
}
