"""Provenance-recording fixpoint evaluation of mapping programs.

Executing the set of extended-Datalog rules is an instance of *data
exchange* (Section 2): it materializes a canonical universal solution
and, alongside it, the provenance graph relating every derived tuple
to the rule firings that produced it.

Two strategies are provided:

* :func:`evaluate_naive` — textbook bottom-up iteration that re-plans
  every join per row; kept as the correctness oracle in tests;
* :func:`evaluate` — semi-naive evaluation over **compiled join
  plans**.  Each rule is compiled once by
  :mod:`repro.datalog.planner` into one plan per delta atom: atoms
  ordered greedily by bound-variable coverage, index positions and
  key/bind slots precomputed, heads compiled into row extractors.  The
  inner loop therefore does no per-row introspection of
  ``Constant``/``Variable`` terms — it is tuple indexing over a slot
  array.  Rules whose bodies the planner cannot model (Skolem terms in
  a body) fall back to the generic matcher.

Semi-naive rounds are exact: the index pool is frozen for the duration
of a round (insertions join in the *next* round, via the delta), and a
firing whose body contains several delta rows is enumerated only from
its first delta atom.  Each distinct rule firing is thus counted once
and recorded as one :class:`~repro.provenance.graph.DerivationNode`,
so the resulting graph contains **all** derivations of every tuple,
not just a witness each — required for how-provenance.

The incremental hash indexes of :class:`_IndexPool` are bucketed per
relation: inserting a row only maintains that relation's indexes, and
the indexes a plan will probe are registered up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from repro.datalog.atoms import Atom, match_tuple
from repro.datalog.planner import (
    CompiledRule,
    RulePlan,
    compile_program,
    ground_extractors,
)
from repro.datalog.rules import Program, Rule
from repro.datalog.terms import Constant, Variable
from repro.errors import EvaluationError
from repro.obs.trace import NULL_TRACER
from repro.provenance.graph import DerivationNode, ProvenanceGraph, TupleNode
from repro.relational.instance import Instance, Row

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exchange.cache import CompiledExchangeProgram
    from repro.obs.trace import NullTracer, Tracer

_EMPTY_DELTA: frozenset[Row] = frozenset()


class _IndexPool:
    """Incremental hash indexes over an evolving instance.

    An index for ``(relation, positions)`` maps the projection of each
    row onto *positions* to the list of matching rows.  Indexes are
    bucketed by relation, so :meth:`add` touches only the inserted
    relation's indexes.  They are built on first use — either eagerly
    through :meth:`register` (plans declare their probes up front) or
    lazily on :meth:`lookup` — and kept current through :meth:`add`.
    """

    def __init__(self) -> None:
        self._by_relation: dict[
            str, dict[tuple[int, ...], dict[tuple, list[Row]]]
        ] = {}
        self._rows: dict[str, list[Row]] = {}
        self.hits = 0

    def add(self, relation: str, row: Row) -> None:
        self._rows.setdefault(relation, []).append(row)
        indexes = self._by_relation.get(relation)
        if indexes:
            for positions, index in indexes.items():
                key = tuple(row[p] for p in positions)
                index.setdefault(key, []).append(row)

    def register(self, relation: str, positions: tuple[int, ...]) -> None:
        """Ensure the ``(relation, positions)`` index exists."""
        if positions:
            self._build(relation, positions)

    def _build(
        self, relation: str, positions: tuple[int, ...]
    ) -> dict[tuple, list[Row]]:
        indexes = self._by_relation.setdefault(relation, {})
        index = indexes.get(positions)
        if index is None:
            index = {}
            for row in self._rows.get(relation, ()):
                key = tuple(row[p] for p in positions)
                index.setdefault(key, []).append(row)
            indexes[positions] = index
        return index

    def count(self, relation: str) -> int:
        """Number of rows stored for *relation*."""
        return len(self._rows.get(relation, ()))

    def lookup(
        self, relation: str, positions: tuple[int, ...], key: tuple
    ) -> Sequence[Row]:
        if not positions:
            return self._rows.get(relation, ())
        index = self._by_relation.get(relation, {}).get(positions)
        if index is None:
            index = self._build(relation, positions)
        self.hits += 1
        return index.get(key, ())


@dataclass
class EvaluationResult:
    """Outcome of a fixpoint run."""

    instance: Instance
    graph: ProvenanceGraph
    iterations: int = 0
    firings: int = 0
    inserted: int = 0
    #: join plans compiled for this run (one per rule body atom).
    plans_compiled: int = 0
    #: hash-index probes answered by the pool.
    index_hits: int = 0
    #: guard rejections: candidate rows discarded at guarded join
    #: steps because they are still in the current delta (enumerating
    #: them would re-seed a firing at a later body atom).  A partial
    #: diagnostic, not a count of avoided duplicate firings: rejected
    #: rows might have failed later join steps anyway, and plans
    #: skipped wholesale (every stored row of a guarded relation in
    #: the delta — e.g. all of round 1 of a full exchange) contribute
    #: nothing.
    dedup_skipped: int = 0
    #: which engine produced this result ("memory" | "sqlite").
    engine: str = "memory"
    #: True when the plans came from a :class:`ProgramCache` hit (the
    #: run compiled nothing; ``plans_compiled`` is then 0).
    plan_cache_hit: bool = False
    #: rows shipped into the SQLite mirror by this run's incremental
    #: instance sync (0 for the memory engine, and 0 again on a repeat
    #: exchange over unchanged relations).
    rows_mirrored: int = 0
    #: relations the sync had to touch (changed since the store's
    #: high-water mark).
    relations_synced: int = 0
    #: tuples removed by deletion propagation (Q5) — the unsupported
    #: rows killed after the DERIVABILITY test; 0 for plain exchanges.
    rows_deleted: int = 0
    #: P_m firing-history rows garbage-collected alongside a deletion
    #: propagation (store rows for the sqlite engine, their graph-side
    #: projections for the memory engine — comparable counts).
    pm_rows_collected: int = 0
    #: firing-history rows a store-side graph query (or the deletion
    #: propagation's liveness kernel) visited in the reachability
    #: index; 0 on the memory engine, whose graph walks count nothing
    #: relational.
    pm_rows_scanned: int = 0
    #: 1 when a resident graph query was answered from the *maintained*
    #: reachability index (``docs/graph-index.md``) without a rebuild;
    #: 0 for the memory engine and for queries that rebuilt it.
    #: Distinct from :attr:`index_hits` (the memory engine's hash-index
    #: probe counter).
    index_hit: int = 0
    #: 1 when a resident graph query found the reachability index
    #: stale/absent and had to rebuild it from the store before
    #: answering (the ``index.rebuild`` span brackets that work).
    index_miss: int = 0
    #: wall-clock duration of the CDSS call that produced this result
    #: (set by :class:`~repro.cdss.system.CDSS`, not by the engines) —
    #: the per-call complement of the cumulative metrics counters.
    wall_seconds: float = 0.0

    def derived_size(self) -> int:
        return self.instance.size()


def _join_bindings(
    body: Sequence[Atom],
    start_index: int,
    start_rows: Iterable[Row],
    pool: _IndexPool,
) -> Iterator[tuple[dict[Variable, object], tuple[Row, ...]]]:
    """Enumerate bindings of *body* where atom *start_index* ranges over
    *start_rows* and every other atom over the indexed instance.

    Generic (term-introspecting) matcher — the naive oracle and the
    fallback for bodies the planner cannot compile.

    Yields (binding, matched rows in body order).
    """
    order = [start_index] + [i for i in range(len(body)) if i != start_index]

    def extend(
        step: int, binding: dict[Variable, object], rows: dict[int, Row]
    ) -> Iterator[tuple[dict[Variable, object], tuple[Row, ...]]]:
        if step == len(order):
            yield binding, tuple(rows[i] for i in range(len(body)))
            return
        atom_index = order[step]
        atom = body[atom_index]
        if step == 0:
            candidates: Iterable[Row] = start_rows
        else:
            bound_positions = []
            key_parts = []
            for pos, term in enumerate(atom.terms):
                if isinstance(term, Constant):
                    bound_positions.append(pos)
                    key_parts.append(term.value)
                elif isinstance(term, Variable) and term in binding:
                    bound_positions.append(pos)
                    key_parts.append(binding[term])
            candidates = pool.lookup(
                atom.relation, tuple(bound_positions), tuple(key_parts)
            )
        for row in candidates:
            extended = match_tuple(atom, row, binding)
            if extended is not None:
                rows[atom_index] = row
                yield from extend(step + 1, extended, rows)
                del rows[atom_index]

    yield from extend(0, {}, {})


def _run_plan(
    crule: CompiledRule,
    plan: RulePlan,
    seed_rows: Iterable[Row],
    delta: Mapping[str, frozenset[Row] | set[Row]],
    pool: _IndexPool,
    result: EvaluationResult,
) -> Iterator[tuple[list[object], tuple[Row, ...]]]:
    """Execute one compiled plan; yields (slots, matched body rows).

    The yielded slot list is reused between firings — consumers must
    extract head rows before advancing the iterator (the engine fires
    each match immediately).
    """
    slots: list[object] = [None] * crule.num_slots
    rows: list[Row] = [None] * len(crule.body_relations)  # type: ignore[list-item]
    steps = plan.steps
    nsteps = len(steps)
    lookup = pool.lookup

    def descend(depth: int) -> Iterator[tuple[list[object], tuple[Row, ...]]]:
        if depth == nsteps:
            yield slots, tuple(rows)
            return
        step = steps[depth]
        key = tuple(
            slots[payload] if kind else payload
            for kind, payload in step.key_parts
        )
        candidates = lookup(step.relation, step.positions, key)
        if not candidates:
            return
        guard_rows = delta.get(step.relation) if step.guard else None
        binds = step.binds
        checks = step.checks
        body_index = step.body_index
        next_depth = depth + 1
        for row in candidates:
            if guard_rows is not None and row in guard_rows:
                result.dedup_skipped += 1
                continue
            for pos, slot in binds:
                slots[slot] = row[pos]
            if checks:
                ok = True
                for pos, slot in checks:
                    bound = slots[slot]
                    # Identity first: the canonical NaN must match
                    # itself, as it does inside tuple comparisons.
                    if row[pos] is not bound and row[pos] != bound:
                        ok = False
                        break
                if not ok:
                    continue
            rows[body_index] = row
            yield from descend(next_depth)

    seed = plan.seed
    const_checks = seed.const_checks
    binds = seed.binds
    checks = seed.checks
    body_index = seed.body_index
    arity = seed.arity
    for row in seed_rows:
        if len(row) != arity:
            continue
        if const_checks:
            ok = True
            for pos, value in const_checks:
                if row[pos] != value:
                    ok = False
                    break
            if not ok:
                continue
        for pos, slot in binds:
            slots[slot] = row[pos]
        if checks:
            ok = True
            for pos, slot in checks:
                bound = slots[slot]
                # Identity first, for the canonical NaN (see above).
                if row[pos] is not bound and row[pos] != bound:
                    ok = False
                    break
            if not ok:
                continue
        rows[body_index] = row
        yield from descend(0)


def _fire_compiled(
    crule: CompiledRule,
    slots: list[object],
    body_rows: tuple[Row, ...],
    instance: Instance,
    graph: ProvenanceGraph | None,
) -> list[tuple[str, Row]]:
    """Apply one compiled firing; returns newly inserted (relation, row)."""
    targets = []
    new: list[tuple[str, Row]] = []
    for relation, extractors in crule.head:
        row = ground_extractors(extractors, slots)
        if instance.insert(relation, row):
            new.append((relation, row))
        targets.append(TupleNode(relation, row))
    if graph is not None:
        sources = tuple(
            TupleNode(relation, row)
            for relation, row in zip(crule.body_relations, body_rows)
        )
        graph.add_derivation(
            DerivationNode(crule.rule.name, sources, tuple(targets))
        )
    return new


def _fire(
    rule: Rule,
    binding: dict[Variable, object],
    body_rows: tuple[Row, ...],
    instance: Instance,
    graph: ProvenanceGraph | None,
) -> list[tuple[str, Row]]:
    """Apply one rule firing; returns newly inserted (relation, row) pairs."""
    targets = []
    new: list[tuple[str, Row]] = []
    for head_atom in rule.head:
        row = head_atom.ground(binding)
        if instance.insert(head_atom.relation, row):
            new.append((head_atom.relation, row))
        targets.append(TupleNode(head_atom.relation, row))
    if graph is not None:
        sources = tuple(
            TupleNode(atom.relation, row) for atom, row in zip(rule.body, body_rows)
        )
        graph.add_derivation(DerivationNode(rule.name, sources, tuple(targets)))
    return new


def _prepare(program: Program) -> list[Rule]:
    rules = [rule.skolemize().check_safe() for rule in program]
    for rule in rules:
        if not rule.body:
            raise EvaluationError(
                f"rule {rule.name} has an empty body; insert facts via the "
                "instance, not body-less rules"
            )
    return rules


def evaluate(
    program: Program,
    instance: Instance,
    graph: ProvenanceGraph | None = None,
    record_provenance: bool = True,
    max_iterations: int | None = None,
    initial_delta: Mapping[str, Iterable[Row]] | None = None,
    compiled_program: "CompiledExchangeProgram | None" = None,
    tracer: "Tracer | NullTracer" = NULL_TRACER,
) -> EvaluationResult:
    """Semi-naive fixpoint evaluation over compiled join plans.

    Mutates *instance* in place (adding derived tuples) and returns an
    :class:`EvaluationResult` whose graph holds every derivation.
    EDB tuples do not get nodes of their own here; local-contribution
    rules (``R(x̄) :- R_l(x̄)``) make base facts appear as leaf tuples
    of the ``R_l`` relations, matching Figure 1's ``+`` nodes.

    ``initial_delta`` seeds the first semi-naive round; passing only the
    *newly inserted* tuples yields incremental update exchange (every
    new firing must use at least one new tuple).  The default seeds
    with the whole instance (full exchange from scratch).

    Within a round the index pool is a frozen snapshot: rows inserted
    during the round become next round's delta, and a firing is only
    enumerated from the first of its body atoms whose row is in the
    current delta — each distinct firing counts exactly once.

    ``compiled_program`` supplies an already-prepared-and-compiled
    program (a :class:`~repro.exchange.cache.CompiledExchangeProgram`,
    typically from a :class:`~repro.exchange.cache.ProgramCache`); the
    run then compiles nothing and reports ``plans_compiled == 0``.

    ``tracer`` emits one ``exchange.round`` span per semi-naive round
    with one ``exchange.rule`` child per executed plan.  The default
    :data:`~repro.obs.trace.NULL_TRACER` allocates no span objects —
    the hot loops pay only a no-op context-manager entry per plan per
    round, never anything per row.
    """
    if compiled_program is not None:
        rules = list(compiled_program.rules)
        compiled = list(compiled_program.compiled)
    else:
        rules = _prepare(program)
        compiled = compile_program(rules)
    if graph is None:
        graph = ProvenanceGraph() if record_provenance else None

    pool = _IndexPool()
    for relation in instance.relations():
        for row in instance[relation]:
            pool.add(relation, row)

    result = EvaluationResult(instance, graph or ProvenanceGraph())
    if compiled_program is None:
        for crule in compiled:
            result.plans_compiled += len(crule.plans)
    if initial_delta is None:
        # Full exchange probes essentially every plan index; build them
        # up front in one pass.  Incremental runs leave registration to
        # the lazy build in lookup() so a small delta only pays for the
        # indexes it actually probes.
        for crule in compiled:
            for relation, positions in crule.index_requirements():
                pool.register(relation, positions)

    # Iteration 0: every rule over the seed delta (default: full EDB).
    if initial_delta is None:
        delta: dict[str, set[Row]] = {
            rel: set(instance[rel]) for rel in instance.non_empty_relations()
        }
    else:
        delta = {
            rel: set(map(tuple, rows)) for rel, rows in initial_delta.items() if rows
        }
        # The once-per-firing guard assumes delta rows are joinable
        # through the indexes; a delta row missing from the instance
        # would silently lose firings, so reject it up front.
        for rel, rows in delta.items():
            missing = [row for row in rows if not instance.contains(rel, row)]
            if missing:
                raise EvaluationError(
                    f"initial_delta rows not in the instance for {rel}: "
                    f"{missing[:3]}; insert them before evaluating"
                )
    def blocked(guarded_relations) -> bool:
        # Delta rows are always a subset of the pool, so when every
        # stored row of a guarded relation is in the delta the guard
        # would reject every candidate — the plan cannot fire.  (In
        # round 1 of a full exchange this holds for every relation.)
        for rel in guarded_relations:
            rows = delta.get(rel)
            if rows and len(rows) == pool.count(rel):
                return True
        return False

    iteration = 0
    while delta:
        iteration += 1
        if max_iterations is not None and iteration > max_iterations:
            raise EvaluationError(
                f"fixpoint did not converge within {max_iterations} iterations"
            )
        new_delta: dict[str, set[Row]] = {}
        with tracer.span("exchange.round") as round_span:
            for crule in compiled:
                if crule.plans:
                    for plan in crule.plans:
                        seed_rows = delta.get(plan.seed.relation)
                        if not seed_rows or blocked(plan.guarded_relations):
                            continue
                        with tracer.span("exchange.rule") as rule_span:
                            fired_before = result.firings
                            for slots, body_rows in _run_plan(
                                crule, plan, seed_rows, delta, pool, result
                            ):
                                result.firings += 1
                                for relation, row in _fire_compiled(
                                    crule, slots, body_rows, instance, graph
                                ):
                                    new_delta.setdefault(relation, set()).add(row)
                                    result.inserted += 1
                            rule_span.set("rule", crule.rule.name).set(
                                "firings", result.firings - fired_before
                            )
                else:
                    rule = crule.rule
                    for index, atom in enumerate(rule.body):
                        seed_rows = delta.get(atom.relation)
                        if not seed_rows or blocked(
                            {a.relation for a in rule.body[:index]}
                        ):
                            continue
                        with tracer.span("exchange.rule") as rule_span:
                            fired_before = result.firings
                            for binding, body_rows in _join_bindings(
                                rule.body, index, seed_rows, pool
                            ):
                                if any(
                                    body_rows[j]
                                    in delta.get(
                                        rule.body[j].relation, _EMPTY_DELTA
                                    )
                                    for j in range(index)
                                ):
                                    result.dedup_skipped += 1
                                    continue
                                result.firings += 1
                                for relation, row in _fire(
                                    rule, binding, body_rows, instance, graph
                                ):
                                    new_delta.setdefault(relation, set()).add(row)
                                    result.inserted += 1
                            rule_span.set("rule", rule.name).set(
                                "firings", result.firings - fired_before
                            )
            # Publish this round's insertions to the indexes only now, so
            # every round joins against a consistent snapshot.
            for relation, rows in new_delta.items():
                for row in rows:
                    pool.add(relation, row)
            round_span.set("round", iteration).set(
                "inserted", sum(len(rows) for rows in new_delta.values())
            )
        delta = new_delta
    result.iterations = iteration
    result.index_hits = pool.hits
    return result


def evaluate_naive(
    program: Program,
    instance: Instance,
    record_provenance: bool = True,
    max_iterations: int | None = None,
) -> EvaluationResult:
    """Naive bottom-up evaluation (correctness oracle for tests).

    Re-derives everything each round until neither the instance nor the
    provenance graph changes.
    """
    rules = _prepare(program)
    graph = ProvenanceGraph() if record_provenance else None
    result = EvaluationResult(instance, graph or ProvenanceGraph())
    iteration = 0
    while True:
        iteration += 1
        if max_iterations is not None and iteration > max_iterations:
            raise EvaluationError(
                f"fixpoint did not converge within {max_iterations} iterations"
            )
        pool = _IndexPool()
        for relation in instance.relations():
            for row in instance[relation]:
                pool.add(relation, row)
        changed = False
        before = graph.size() if graph is not None else (0, 0)
        for rule in rules:
            first = rule.body[0]
            rows = list(instance[first.relation])
            for binding, body_rows in _join_bindings(rule.body, 0, rows, pool):
                result.firings += 1
                if _fire(rule, binding, body_rows, instance, graph):
                    changed = True
                    result.inserted += 1
        if graph is not None and graph.size() != before:
            changed = True
        if not changed:
            break
    result.iterations = iteration
    return result
