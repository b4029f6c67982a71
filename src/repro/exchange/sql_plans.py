"""SQL lowering of compiled join plans (set-oriented update exchange).

The paper's testbed runs update exchange *inside* an RDBMS: each
mapping rule becomes a relational query over the peers' tables, and a
semi-naive round executes whole delta batches as single set-oriented
statements.  This module translates the per-delta-atom join plans of
:mod:`repro.datalog.planner` into exactly that shape for SQLite:

* every rule gets a **firing table** ``__fired_<rule>`` with one column
  per variable slot — one row per distinct rule firing, the relational
  mirror of a provenance derivation node;
* every :class:`~repro.datalog.planner.RulePlan` lowers to one
  ``INSERT INTO __fired_<rule> SELECT DISTINCT ... FROM __delta_<seed>
  JOIN ...`` statement whose join conditions come from the plan's
  key parts, whose WHERE clause carries constant/repeated-variable
  checks, and whose *guard* steps (body atoms preceding the delta seed)
  become ``NOT EXISTS`` probes against the delta tables — the SQL
  rendering of the engine's once-per-firing rule;
* rule heads lower to ``INSERT INTO __cand_<relation> SELECT ... FROM
  __fired_<rule>`` statements over the fresh firings of a round, with
  Skolem values (labeled nulls) constructed *inside SQL* by the
  registered ``repro_skolem`` function so equal labeled nulls compare
  equal in later joins;
* each non-superfluous mapping additionally lowers to an ``INSERT``
  maintaining its provenance relation ``P_m`` (Section 4.1) from the
  same fresh firings.

All value comparisons use SQLite's null-safe ``IS`` operator so SQL
semantics match the Python engine's ``==`` on rows that may contain
``None``.  Statements use named parameters: compile-time constants bind
``:p<N>``; the per-round firing-table watermark binds ``:wm``.

**The unindexed DERIVABILITY test** (the paper's Q5) gets its own
lowering: :func:`lower_derivability_program` runs it *relationally* —
a semi-naive fixpoint over ``__live_*`` tables marks every tuple still
derivable from the stored EDB leaves (the least fixpoint, so
cyclically self-supporting tuples annotate false).  Because the store
holds an exchange fixpoint, re-joining *live* rows through the rule
bodies enumerates exactly the historical firings whose antecedents all
survive — the relational mirror of annotating the provenance graph
with the DERIVABILITY semiring.  It backs the ``use_index=False``
graph queries; deletion propagation runs on the reachability index
(:mod:`repro.exchange.reach_index`).

**Graph queries** (:mod:`repro.exchange.graph_queries`) reuse both
shapes: ``derivability``/``trusted`` run the liveness fixpoint with
query-specific seeds and rule sets, while ``lineage`` walks the
firing history *backwards* — :class:`HeadProbe` restricts each plan's
firing enumeration to firings producing a row already known to be an
ancestor (``__adelta_*``), and ``dedup`` keeps the per-rule
``__qfired_*`` log exact across rounds.  This module only provides the
lowerings; the walk itself lives with the other query machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.cdss.mapping import SchemaMapping, provenance_relation_name
from repro.datalog.planner import (
    CompiledRule,
    K_CONST,
    K_SKOLEM,
    K_SLOT,
    RulePlan,
    _assign_slots,
    _compile_term,
)
from repro.errors import ExchangeError
from repro.relational.instance import Catalog
from repro.relational.schema import is_local_name
from repro.storage.encoding import ValueCodec, quote_identifier as _q

#: table-name prefixes of the executor's working tables.
DELTA_PREFIX = "__delta_"
NEW_PREFIX = "__new_"
CAND_PREFIX = "__cand_"
FIRED_PREFIX = "__fired_"
#: table-name prefixes of the unindexed derivability working tables:
#: the set of live (still-derivable) rows per relation, its semi-naive
#: delta/candidate/new stages, and the live firings per rule.
LIVE_PREFIX = "__live_"
LIVE_DELTA_PREFIX = "__ldelta_"
LIVE_CAND_PREFIX = "__lcand_"
LIVE_NEW_PREFIX = "__lnew_"
LIVE_FIRED_PREFIX = "__lfired_"
#: table-name prefixes of the lineage (graph-query) working tables:
#: the per-relation ancestor closure being grown by the backward walk,
#: its delta/candidate/new stages, and the per-rule table of firings
#: the walk has visited (the scanned slice of the firing history).
ANC_PREFIX = "__anc_"
ANC_DELTA_PREFIX = "__adelta_"
ANC_CAND_PREFIX = "__acand_"
ANC_NEW_PREFIX = "__anew_"
QUERY_FIRED_PREFIX = "__qfired_"

#: pseudo attribute type for Skolem-argument decoding: "decode by tag
#: only" (ints/floats/strings pass through, labeled nulls re-intern).
ANY_TYPE = "any"


def delta_table(relation: str) -> str:
    return DELTA_PREFIX + relation


def new_table(relation: str) -> str:
    return NEW_PREFIX + relation


def cand_table(relation: str) -> str:
    return CAND_PREFIX + relation


def fired_table(rule_name: str) -> str:
    return FIRED_PREFIX + rule_name


def live_table(relation: str) -> str:
    return LIVE_PREFIX + relation


def live_delta_table(relation: str) -> str:
    return LIVE_DELTA_PREFIX + relation


def live_cand_table(relation: str) -> str:
    return LIVE_CAND_PREFIX + relation


def live_new_table(relation: str) -> str:
    return LIVE_NEW_PREFIX + relation


def live_fired_table(rule_name: str) -> str:
    return LIVE_FIRED_PREFIX + rule_name


def anc_table(relation: str) -> str:
    return ANC_PREFIX + relation


def anc_delta_table(relation: str) -> str:
    return ANC_DELTA_PREFIX + relation


def anc_cand_table(relation: str) -> str:
    return ANC_CAND_PREFIX + relation


def anc_new_table(relation: str) -> str:
    return ANC_NEW_PREFIX + relation


def query_fired_table(rule_name: str) -> str:
    return QUERY_FIRED_PREFIX + rule_name


#: per-relation work tables of the unindexed liveness fixpoint and
#: lineage walk, the accumulated set first.
LIVE_STAGES = (live_table, live_delta_table, live_cand_table, live_new_table)
ANC_STAGES = (anc_table, anc_delta_table, anc_cand_table, anc_new_table)


def slot_column(slot: int) -> str:
    return f"s{slot}"


@dataclass(frozen=True)
class Statement:
    """One parameterized SQL statement.

    ``params`` holds the compile-time (constant) bindings; runtime
    bindings — currently only the ``:wm`` watermark — are merged in by
    the executor.
    """

    sql: str
    params: Mapping[str, object]
    #: names of runtime parameters the executor must supply.
    runtime: tuple[str, ...] = ()


@dataclass(frozen=True)
class PlanSQL:
    """Lowering of one RulePlan: fills the rule's firing table."""

    seed_relation: str
    statement: Statement
    #: relations of guarded join steps — when every stored row of one
    #: of them is in the current delta the plan cannot fire (the guard
    #: rejects everything) and the executor skips it wholesale, exactly
    #: like the in-memory engine's ``blocked()`` check.
    guarded_relations: tuple[str, ...] = ()


@dataclass(frozen=True)
class RuleSQL:
    """Everything the executor needs to run one rule set-at-a-time."""

    rule_name: str
    num_slots: int
    #: declared attribute type per slot (first body occurrence), used
    #: to decode firing rows and Skolem arguments.
    slot_types: tuple[str, ...]
    firing_table: str
    plans: tuple[PlanSQL, ...]
    #: one statement per head atom: fresh firings -> __cand_<relation>.
    head_inserts: tuple[Statement, ...]
    #: fresh firings -> P_m rows (None for non-mappings / superfluous).
    provenance_insert: Statement | None
    #: per body atom: (relation, extractors) for rebuilding source
    #: tuples from a decoded slot row (graph write-back).
    body_extractors: tuple[tuple[str, tuple[tuple[int, object], ...]], ...]


@dataclass(frozen=True)
class ProgramSQL:
    """SQL lowering of a whole compiled exchange program."""

    rules: tuple[RuleSQL, ...]
    #: every relation the executor must mirror (instance + deltas).
    relations: tuple[str, ...]
    #: (relation, positions) indexes worth creating on the mirror.
    index_requirements: tuple[tuple[str, tuple[int, ...]], ...]


class _ParamAllocator:
    """Allocates :p<N> named parameters within one statement."""

    def __init__(self, codec: ValueCodec):
        self.codec = codec
        self.params: dict[str, object] = {}

    def bind(self, value: object) -> str:
        name = f"p{len(self.params)}"
        self.params[name] = self.codec.encode(value)
        return f":{name}"


def _columns(catalog: Catalog, relation: str) -> tuple[str, ...]:
    return catalog[relation].attribute_names


def _column_types(catalog: Catalog, relation: str) -> tuple[str, ...]:
    return tuple(a.type for a in catalog[relation].attributes)


def _slot_types(crule: CompiledRule, catalog: Catalog) -> tuple[str, ...]:
    """Declared type per slot, from each variable's first occurrence in
    body order (plan-independent, hence shared by all of a rule's
    plans and by the firing-row decoder)."""
    slot_of = _assign_slots(crule.rule)
    types: dict[int, str] = {}
    for atom in crule.rule.body:
        col_types = _column_types(catalog, atom.relation)
        for pos, term in enumerate(atom.terms):
            for var in _term_variables(term):
                slot = slot_of[var]
                if slot not in types:
                    types[slot] = col_types[pos]
    return tuple(types.get(i, ANY_TYPE) for i in range(crule.num_slots))


def _term_variables(term):
    from repro.datalog.terms import SkolemTerm, Variable

    if isinstance(term, Variable):
        yield term
    elif isinstance(term, SkolemTerm):
        for arg in term.args:
            yield from _term_variables(arg)


@dataclass(frozen=True)
class HeadProbe:
    """Restriction of a firing enumeration to wanted head rows.

    Lineage walks the firing history *backwards*: a firing is relevant
    only when one of its head atoms produces a row already known to be
    an ancestor of the query node.  The probe joins the enumeration
    against that head relation's ``__adelta_*`` table, equating each of
    the head atom's extractor expressions (Skolems included — they are
    reconstructed in SQL, so equal labeled nulls compare equal) with
    the corresponding ancestor column.
    """

    table: str
    columns: tuple[str, ...]
    extractors: tuple[tuple[int, object], ...]
    slot_types: tuple[str, ...]


def _plan_firing_sql(
    crule: CompiledRule,
    plan: RulePlan,
    catalog: Catalog,
    alloc: _ParamAllocator,
    seed_from: str,
    join_of,
    guards: bool,
    target: str,
    probe: HeadProbe | None = None,
    dedup: bool = False,
) -> str:
    """The ``INSERT ... SELECT DISTINCT`` enumerating one plan's firings.

    ``seed_from`` names the table the seed atom ranges over, ``join_of``
    maps each join step's relation to the table actually joined (the
    frozen mirror for exchange, the ``__live_*`` tables for the
    derivability fixpoint), and ``guards`` controls whether guard steps
    emit their ``NOT EXISTS`` once-per-firing probes (liveness is a set
    computation, so the derivability lowering skips them).  ``probe``
    adds a join against a wanted-head table (the lineage walk's
    backward restriction), and ``dedup`` skips firings already recorded
    in *target* — required when the same statement runs once per round
    of an iterative walk and firing rows drive watermark-delimited
    downstream inserts.
    """
    seed = plan.seed
    seed_cols = _columns(catalog, seed.relation)
    slot_src: dict[int, str] = {}
    conditions: list[str] = []
    joins: list[str] = []

    seed_alias = "t0"
    for pos, slot in seed.binds:
        slot_src[slot] = f'{seed_alias}.{_q(seed_cols[pos])}'
    for pos, value in seed.const_checks:
        conditions.append(
            f'{seed_alias}.{_q(seed_cols[pos])} IS {alloc.bind(value)}'
        )
    for pos, slot in seed.checks:
        conditions.append(
            f'{seed_alias}.{_q(seed_cols[pos])} IS {slot_src[slot]}'
        )

    for index, step in enumerate(plan.steps, start=1):
        alias = f"t{index}"
        cols = _columns(catalog, step.relation)
        on_parts: list[str] = []
        for pos, (kind, payload) in zip(step.positions, step.key_parts):
            if kind == K_SLOT:
                rhs = slot_src[payload]
            else:
                rhs = alloc.bind(payload)
            on_parts.append(f'{alias}.{_q(cols[pos])} IS {rhs}')
        for pos, slot in step.binds:
            slot_src[slot] = f'{alias}.{_q(cols[pos])}'
        for pos, slot in step.checks:
            on_parts.append(f'{alias}.{_q(cols[pos])} IS {slot_src[slot]}')
        joins.append(
            f'JOIN {_q(join_of(step.relation))} AS {alias} '
            f"ON {' AND '.join(on_parts) if on_parts else '1'}"
        )
        if guards and step.guard:
            guard_alias = f"g{index}"
            guard_conds = " AND ".join(
                f'{guard_alias}.{_q(col)} IS {alias}.{_q(col)}' for col in cols
            )
            conditions.append(
                f"NOT EXISTS (SELECT 1 FROM {_q(delta_table(step.relation))} "
                f"AS {guard_alias} WHERE {guard_conds})"
            )

    missing = [s for s in range(crule.num_slots) if s not in slot_src]
    if missing:  # pragma: no cover - plans bind every body variable
        raise ExchangeError(
            f"rule {crule.rule.name}: slots {missing} unbound after lowering"
        )
    if probe is not None:
        exprs = _extractor_sql(
            probe.extractors,
            alloc,
            probe.slot_types,
            slot_ref=slot_src.__getitem__,
        )
        on_parts = [
            f'q.{_q(column)} IS {expr}'
            for column, expr in zip(probe.columns, exprs)
        ]
        joins.append(
            f'JOIN {_q(probe.table)} AS q '
            f"ON {' AND '.join(on_parts) if on_parts else '1'}"
        )
    if dedup:
        match = " AND ".join(
            f'z.{_q(slot_column(s))} IS {slot_src[s]}'
            for s in range(crule.num_slots)
        ) or "1"
        conditions.append(
            f"NOT EXISTS (SELECT 1 FROM {_q(target)} AS z WHERE {match})"
        )
    select_list = ", ".join(slot_src[s] for s in range(crule.num_slots))
    target_cols = ", ".join(
        _q(slot_column(s)) for s in range(crule.num_slots)
    )
    where = f"\nWHERE {' AND '.join(conditions)}" if conditions else ""
    return (
        f"INSERT INTO {_q(target)} ({target_cols})\n"
        f"SELECT DISTINCT {select_list}\n"
        f"FROM {_q(seed_from)} AS {seed_alias}\n"
        + "\n".join(joins)
        + where
    )


def _lower_plan(
    crule: CompiledRule,
    plan: RulePlan,
    catalog: Catalog,
    codec: ValueCodec,
) -> PlanSQL:
    alloc = _ParamAllocator(codec)
    sql = _plan_firing_sql(
        crule,
        plan,
        catalog,
        alloc,
        seed_from=delta_table(plan.seed.relation),
        join_of=lambda relation: relation,
        guards=True,
        target=fired_table(crule.rule.name),
    )
    return PlanSQL(
        plan.seed.relation, Statement(sql, alloc.params), plan.guarded_relations
    )


def _fired_slot_ref(slot: int) -> str:
    """Default slot reference: the firing-table alias of the head and
    provenance inserts (``f`` ranges over ``__fired_<rule>``)."""
    return f'f.{_q(slot_column(slot))}'


def _skolem_sql(
    payload: object,
    alloc: _ParamAllocator,
    slot_types: Sequence[str],
    slot_ref=_fired_slot_ref,
) -> str:
    """Lower a compiled Skolem extractor into a ``repro_skolem`` call."""
    function, arg_extractors = payload  # type: ignore[misc]
    arg_sql: list[str] = []
    arg_types: list[str] = []
    for kind, arg_payload in arg_extractors:
        if kind == K_SLOT:
            arg_sql.append(slot_ref(arg_payload))
            arg_types.append(slot_types[arg_payload])
        elif kind == K_CONST:
            arg_sql.append(alloc.bind(arg_payload))
            arg_types.append(
                "bool" if isinstance(arg_payload, bool) else ANY_TYPE
            )
        else:  # nested Skolem: decoded back by its tag
            arg_sql.append(_skolem_sql(arg_payload, alloc, slot_types, slot_ref))
            arg_types.append(ANY_TYPE)
    name = alloc.bind(function)
    types = alloc.bind(",".join(arg_types))
    args = ", ".join([name, types] + arg_sql)
    return f"repro_skolem({args})"


def _extractor_sql(
    extractors: Sequence[tuple[int, object]],
    alloc: _ParamAllocator,
    slot_types: Sequence[str],
    slot_ref=_fired_slot_ref,
) -> list[str]:
    out: list[str] = []
    for kind, payload in extractors:
        if kind == K_SLOT:
            out.append(slot_ref(payload))
        elif kind == K_CONST:
            out.append(alloc.bind(payload))
        else:
            out.append(_skolem_sql(payload, alloc, slot_types, slot_ref))
    return out


def _lower_head_insert(
    crule: CompiledRule,
    relation: str,
    extractors: Sequence[tuple[int, object]],
    slot_types: Sequence[str],
    codec: ValueCodec,
    target: str | None = None,
    fired: str | None = None,
) -> Statement:
    """Fresh firings -> candidate rows.  ``target``/``fired`` override
    the table names so the derivability fixpoint reuses the lowering
    over its ``__lcand_*``/``__lfired_*`` tables."""
    alloc = _ParamAllocator(codec)
    exprs = _extractor_sql(extractors, alloc, slot_types)
    sql = (
        f"INSERT INTO {_q(target or cand_table(relation))}\n"
        f"SELECT DISTINCT {', '.join(exprs)}\n"
        f"FROM {_q(fired or fired_table(crule.rule.name))} AS f\n"
        f"WHERE f.rowid > :wm"
    )
    return Statement(sql, alloc.params, runtime=("wm",))


def _lower_provenance_insert(
    crule: CompiledRule,
    mapping: SchemaMapping,
) -> Statement | None:
    if mapping.is_superfluous or not mapping.provenance_columns:
        return None
    slot_of = _assign_slots(crule.rule)
    table = provenance_relation_name(mapping.name)
    cols = []
    exprs = []
    for column in mapping.provenance_columns:
        slot = slot_of.get(column.variable)
        if slot is None:  # pragma: no cover - safe mappings bind all keys
            raise ExchangeError(
                f"mapping {mapping.name}: provenance column {column.name} "
                "is not bound by the rule body"
            )
        cols.append(_q(column.name))
        exprs.append(f'f.{_q(slot_column(slot))}')
    dedup = " AND ".join(
        f"p.{col} IS {expr}" for col, expr in zip(cols, exprs)
    )
    sql = (
        f"INSERT INTO {_q(table)} ({', '.join(cols)})\n"
        f"SELECT DISTINCT {', '.join(exprs)}\n"
        f"FROM {_q(fired_table(crule.rule.name))} AS f\n"
        f"WHERE f.rowid > :wm\n"
        f"AND NOT EXISTS (SELECT 1 FROM {_q(table)} AS p WHERE {dedup})"
    )
    return Statement(sql, {}, runtime=("wm",))


def stage_new_sql(catalog: Catalog, relation: str) -> str:
    """Round-end dedup: distinct candidates not already stored."""
    cols = _columns(catalog, relation)
    match = " AND ".join(f'r.{_q(c)} IS c.{_q(c)}' for c in cols)
    return (
        f"INSERT INTO {_q(new_table(relation))}\n"
        f"SELECT DISTINCT * FROM {_q(cand_table(relation))} AS c\n"
        f"WHERE NOT EXISTS (SELECT 1 FROM {_q(relation)} AS r WHERE {match})"
    )


def lower_rule(
    crule: CompiledRule,
    catalog: Catalog,
    mappings: Mapping[str, SchemaMapping],
    codec: ValueCodec,
) -> RuleSQL:
    if not crule.plans:
        raise ExchangeError(
            f"rule {crule.rule.name} cannot run on the sqlite engine "
            "(its body contains terms the planner does not compile); "
            'use exchange(engine="memory")'
        )
    slot_types = _slot_types(crule, catalog)
    plans = tuple(
        _lower_plan(crule, plan, catalog, codec) for plan in crule.plans
    )
    head_inserts = tuple(
        _lower_head_insert(crule, relation, extractors, slot_types, codec)
        for relation, extractors in crule.head
    )
    mapping = mappings.get(crule.rule.name)
    prov = (
        _lower_provenance_insert(crule, mapping) if mapping else None
    )
    slot_of = _assign_slots(crule.rule)
    body_extractors = tuple(
        (
            atom.relation,
            tuple(_compile_term(term, slot_of) for term in atom.terms),
        )
        for atom in crule.rule.body
    )
    return RuleSQL(
        crule.rule.name,
        crule.num_slots,
        slot_types,
        fired_table(crule.rule.name),
        plans,
        head_inserts,
        prov,
        body_extractors,
    )


def lower_program(
    compiled: Sequence[CompiledRule],
    catalog: Catalog,
    mappings: Mapping[str, SchemaMapping],
    codec: ValueCodec,
) -> ProgramSQL:
    """Lower every compiled rule; raises :class:`ExchangeError` when a
    rule's body is outside the planner's (and hence SQL's) fragment."""
    rules = tuple(
        lower_rule(crule, catalog, mappings, codec) for crule in compiled
    )
    relations: dict[str, None] = {}
    for crule in compiled:
        for rel in crule.body_relations:
            relations.setdefault(rel, None)
        for rel, _extractors in crule.head:
            relations.setdefault(rel, None)
    indexes: set[tuple[str, tuple[int, ...]]] = set()
    for crule in compiled:
        indexes |= crule.index_requirements()
    return ProgramSQL(rules, tuple(relations), tuple(sorted(indexes)))


# -- unindexed derivability (liveness over the stored relations, Q5) ---------


@dataclass(frozen=True)
class DerivabilityPlanSQL:
    """One plan of the liveness fixpoint: finds the firings whose last
    body row just became live."""

    seed_relation: str
    statement: Statement


@dataclass(frozen=True)
class DerivabilityRuleSQL:
    """One rule of the liveness fixpoint (no guards, no write-back)."""

    rule_name: str
    num_slots: int
    firing_table: str
    plans: tuple[DerivabilityPlanSQL, ...]
    #: fresh live firings -> ``__lcand_<relation>`` per head atom.
    head_inserts: tuple[Statement, ...]


@dataclass(frozen=True)
class DerivabilitySQL:
    """SQL lowering of the relational DERIVABILITY test.

    A tuple is live iff it is a seeded EDB (local-contribution) row,
    or some firing over live rows produces it *and* the tuple is
    stored — the least fixpoint of the DERIVABILITY semiring over the
    firing history, computed without materializing anything in Python.
    """

    rules: tuple[DerivabilityRuleSQL, ...]
    #: every relation the fixpoint touches.
    relations: tuple[str, ...]
    #: relations seeded live from their full extension (EDB leaves —
    #: the local-contribution tables; their firings are the paper's
    #: "EDB-insertion firings", which keep their tuples alive).
    edb_relations: tuple[str, ...]
    #: head relations: only these can gain live rows per round.
    derived_relations: tuple[str, ...]


def stage_live_sql(catalog: Catalog, relation: str) -> str:
    """Round-end liveness stage: distinct candidates that are stored
    (derivations must correspond to recorded firings — a row absent
    from the relation was never exchanged and supports nothing) and not
    yet marked live."""
    cols = _columns(catalog, relation)
    stored = " AND ".join(f'r.{_q(c)} IS c.{_q(c)}' for c in cols)
    live = " AND ".join(f'l.{_q(c)} IS c.{_q(c)}' for c in cols)
    return (
        f"INSERT INTO {_q(live_new_table(relation))}\n"
        f"SELECT DISTINCT * FROM {_q(live_cand_table(relation))} AS c\n"
        f"WHERE EXISTS (SELECT 1 FROM {_q(relation)} AS r WHERE {stored})\n"
        f"AND NOT EXISTS "
        f"(SELECT 1 FROM {_q(live_table(relation))} AS l WHERE {live})"
    )


def stage_ancestor_sql(catalog: Catalog, relation: str) -> str:
    """Round-end stage of the lineage walk: distinct ancestor
    candidates not yet in the closure.  No stored-row filter is needed
    — candidates are projections of firings whose body rows were
    *joined from* the stored relations, so they are stored by
    construction."""
    cols = _columns(catalog, relation)
    known = " AND ".join(f'a.{_q(c)} IS c.{_q(c)}' for c in cols)
    return (
        f"INSERT INTO {_q(anc_new_table(relation))}\n"
        f"SELECT DISTINCT * FROM {_q(anc_cand_table(relation))} AS c\n"
        f"WHERE NOT EXISTS "
        f"(SELECT 1 FROM {_q(anc_table(relation))} AS a WHERE {known})"
    )


def _lower_derivability_rule(
    crule: CompiledRule,
    catalog: Catalog,
    codec: ValueCodec,
) -> DerivabilityRuleSQL:
    if not crule.plans:
        raise ExchangeError(
            f"rule {crule.rule.name} cannot run on the sqlite engine "
            "(its body contains terms the planner does not compile); "
            'use exchange(engine="memory")'
        )
    name = crule.rule.name
    fired = live_fired_table(name)
    slot_types = _slot_types(crule, catalog)
    plans = []
    for plan in crule.plans:
        alloc = _ParamAllocator(codec)
        sql = _plan_firing_sql(
            crule,
            plan,
            catalog,
            alloc,
            seed_from=live_delta_table(plan.seed.relation),
            join_of=live_table,
            guards=False,
            target=fired,
        )
        plans.append(
            DerivabilityPlanSQL(
                plan.seed.relation, Statement(sql, alloc.params)
            )
        )
    head_inserts = tuple(
        _lower_head_insert(
            crule,
            relation,
            extractors,
            slot_types,
            codec,
            target=live_cand_table(relation),
            fired=fired,
        )
        for relation, extractors in crule.head
    )
    return DerivabilityRuleSQL(
        name, crule.num_slots, fired, tuple(plans), head_inserts
    )


def lower_derivability_program(
    compiled: Sequence[CompiledRule],
    catalog: Catalog,
    codec: ValueCodec,
) -> DerivabilitySQL:
    """Lower the whole program's DERIVABILITY test.

    The leaf model requires every local-contribution relation to be an
    EDB leaf: a mapping deriving *into* an ``R_l`` relation would make
    its rows part-leaf, part-derived, which the relational test (unlike
    the per-node graph test) cannot express — rejected loudly.
    """
    relations: dict[str, None] = {}
    heads: set[str] = set()
    for crule in compiled:
        for rel in crule.body_relations:
            relations.setdefault(rel, None)
        for rel, _extractors in crule.head:
            relations.setdefault(rel, None)
            heads.add(rel)
            if is_local_name(rel):
                raise ExchangeError(
                    f"rule {crule.rule.name} derives into the "
                    f"local-contribution relation {rel}; the relational "
                    "derivability test treats local relations as EDB "
                    "leaves — rewrite the mapping to target the public "
                    "relation"
                )
    rules = tuple(
        _lower_derivability_rule(crule, catalog, codec) for crule in compiled
    )
    return DerivabilitySQL(
        rules,
        tuple(relations),
        tuple(r for r in relations if r not in heads),
        tuple(r for r in relations if r in heads),
    )
