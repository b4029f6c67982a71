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

The reachability index (:mod:`repro.exchange.reach_index`) reuses the
firing enumeration of :func:`_plan_firing_sql` without guards to
re-enumerate a rule's whole firing history from the stored relations
(an index rebuild); every store-side graph query and deletion
propagation then runs over that index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.cdss.mapping import SchemaMapping, provenance_relation_name
from repro.datalog.planner import (
    CompiledRule,
    K_CONST,
    K_SLOT,
    RulePlan,
    _assign_slots,
    _compile_term,
)
from repro.errors import ExchangeError
from repro.relational.instance import Catalog
from repro.storage.encoding import ValueCodec, quote_identifier as _q

#: table-name prefixes of the executor's working tables.
DELTA_PREFIX = "__delta_"
NEW_PREFIX = "__new_"
CAND_PREFIX = "__cand_"
FIRED_PREFIX = "__fired_"

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


def _plan_firing_sql(
    crule: CompiledRule,
    plan: RulePlan,
    catalog: Catalog,
    alloc: _ParamAllocator,
    seed_from: str,
    guards: bool,
) -> str:
    """The ``INSERT INTO __fired_<rule> SELECT DISTINCT ...`` enumerating
    one plan's firings.

    ``seed_from`` names the table the seed atom ranges over (every join
    step joins the stored relation), and ``guards`` controls whether
    guard steps emit their ``NOT EXISTS`` once-per-firing probes (an
    index rebuild re-enumerates the whole history, so it skips them).
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
            f'JOIN {_q(step.relation)} AS {alias} '
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
    select_list = ", ".join(slot_src[s] for s in range(crule.num_slots))
    target_cols = ", ".join(
        _q(slot_column(s)) for s in range(crule.num_slots)
    )
    where = f"\nWHERE {' AND '.join(conditions)}" if conditions else ""
    return (
        f"INSERT INTO {_q(fired_table(crule.rule.name))} ({target_cols})\n"
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
        guards=True,
    )
    return PlanSQL(
        plan.seed.relation, Statement(sql, alloc.params), plan.guarded_relations
    )


def _fired_slot_ref(slot: int) -> str:
    """A slot reference through the firing-table alias of the head,
    provenance and index-endpoint inserts (``f`` ranges over
    ``__fired_<rule>``)."""
    return f'f.{_q(slot_column(slot))}'


def _skolem_sql(
    payload: object,
    alloc: _ParamAllocator,
    slot_types: Sequence[str],
) -> str:
    """Lower a compiled Skolem extractor into a ``repro_skolem`` call."""
    function, arg_extractors = payload  # type: ignore[misc]
    arg_sql: list[str] = []
    arg_types: list[str] = []
    for kind, arg_payload in arg_extractors:
        if kind == K_SLOT:
            arg_sql.append(_fired_slot_ref(arg_payload))
            arg_types.append(slot_types[arg_payload])
        elif kind == K_CONST:
            arg_sql.append(alloc.bind(arg_payload))
            arg_types.append(
                "bool" if isinstance(arg_payload, bool) else ANY_TYPE
            )
        else:  # nested Skolem: decoded back by its tag
            arg_sql.append(_skolem_sql(arg_payload, alloc, slot_types))
            arg_types.append(ANY_TYPE)
    name = alloc.bind(function)
    types = alloc.bind(",".join(arg_types))
    args = ", ".join([name, types] + arg_sql)
    return f"repro_skolem({args})"


def _extractor_sql(
    extractors: Sequence[tuple[int, object]],
    alloc: _ParamAllocator,
    slot_types: Sequence[str],
) -> list[str]:
    out: list[str] = []
    for kind, payload in extractors:
        if kind == K_SLOT:
            out.append(_fired_slot_ref(payload))
        elif kind == K_CONST:
            out.append(alloc.bind(payload))
        else:
            out.append(_skolem_sql(payload, alloc, slot_types))
    return out


def _lower_head_insert(
    crule: CompiledRule,
    relation: str,
    extractors: Sequence[tuple[int, object]],
    slot_types: Sequence[str],
    codec: ValueCodec,
) -> Statement:
    """Fresh firings -> candidate rows."""
    alloc = _ParamAllocator(codec)
    exprs = _extractor_sql(extractors, alloc, slot_types)
    sql = (
        f"INSERT INTO {_q(cand_table(relation))}\n"
        f"SELECT DISTINCT {', '.join(exprs)}\n"
        f"FROM {_q(fired_table(crule.rule.name))} AS f\n"
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
