"""Lowering lint (codes RA401–RA404): dry-run the SQL engine's plans.

The sqlite engine trusts that :mod:`repro.exchange.sql_plans` and the
store schema (:meth:`~repro.exchange.sql_executor.ExchangeStore.ensure_schema`)
agree on every table, column, and parameter name.  That contract is
normally only exercised at exchange time — hours into a run for the
workloads ROADMAP targets.  This pass exercises it at analysis time:

* lower the program both ways the sqlite engine runs it: the exchange
  plans, and the reachability-index maintenance every resident
  exchange runs (plus the deletion kill path's ``P_m`` collectors and
  the leaf-model check that resident graph queries and deletion
  propagation share),
* create the schema in a **schema-only** store (no data is ever
  written — ``ensure_*`` builds empty tables), and
* run ``EXPLAIN`` over every generated statement with its parameters
  bound, which forces SQLite to prepare each one: a missing table or
  column fails at prepare, a missing parameter fails at bind.

``EXPLAIN`` never executes the plan, so the pass touches zero rows
even against a reopened store that holds live data.
"""

from __future__ import annotations

import sqlite3
from typing import TYPE_CHECKING, Mapping

from repro.analysis.diagnostics import Diagnostic
from repro.cdss.mapping import SchemaMapping
from repro.errors import ExchangeError
from repro.exchange.sql_plans import Statement
from repro.relational.instance import Catalog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exchange.cache import CompiledExchangeProgram
    from repro.exchange.sql_executor import ExchangeStore


def _explain(
    store: "ExchangeStore",
    sql: str,
    params: Mapping[str, object],
    runtime: tuple[str, ...],
    code: str,
    subject: str,
    diagnostics: list[Diagnostic],
) -> int:
    """Prepare one statement via EXPLAIN; 1 if it prepared cleanly."""
    bound = dict(params)
    for name in runtime:
        bound[name] = 0
    try:
        store.connection.execute(f"EXPLAIN {sql}", bound)
    except sqlite3.Error as exc:
        diagnostics.append(
            Diagnostic(
                code,
                f"{subject}: statement failed to prepare against the "
                f"store schema: {exc}",
                subject=subject,
            )
        )
        return 0
    return 1


def _explain_statement(
    store: "ExchangeStore",
    statement: Statement,
    code: str,
    subject: str,
    diagnostics: list[Diagnostic],
) -> int:
    return _explain(
        store,
        statement.sql,
        statement.params,
        statement.runtime,
        code,
        subject,
        diagnostics,
    )


def lowering_pass(
    program: "CompiledExchangeProgram",
    catalog: Catalog,
    mappings: Mapping[str, SchemaMapping],
    store: "ExchangeStore | None" = None,
) -> tuple[list[Diagnostic], dict[str, int]]:
    """Dry-run both SQL lowerings of *program* through EXPLAIN.

    ``store`` defaults to a throwaway in-memory
    :class:`~repro.exchange.sql_executor.ExchangeStore`; pass an
    existing (possibly reopened on-disk) store to lint against its
    file.  Either way only ``CREATE TABLE IF NOT EXISTS`` / ``CREATE
    INDEX IF NOT EXISTS`` and ``EXPLAIN`` run — no data is read or
    written.
    """
    from repro.exchange.sql_executor import ExchangeStore
    from repro.exchange.sql_plans import lower_program, stage_new_sql
    from repro.exchange.reach_index import lower_reach_program

    diagnostics: list[Diagnostic] = []
    explained = 0
    compilable = []
    for crule in program.compiled:
        if crule.plans:
            compilable.append(crule)
        else:
            diagnostics.append(
                Diagnostic(
                    "RA404",
                    f"rule {crule.rule.name}: body is outside the "
                    "planner's SQL-compilable fragment; the sqlite "
                    "engine cannot run it (memory engine only)",
                    subject=crule.rule.name,
                )
            )
    own_store = store is None
    the_store = ExchangeStore() if store is None else store
    codec = the_store.codec
    try:
        # -- exchange lowering (RA401) --------------------------------
        try:
            psql = lower_program(compilable, catalog, mappings, codec)
        except ExchangeError as exc:
            psql = None
            diagnostics.append(
                Diagnostic("RA401", str(exc), subject="exchange")
            )
        if psql is not None:
            the_store.ensure_schema(catalog, mappings, psql)
            for rule_sql in psql.rules:
                subject = rule_sql.rule_name
                for plan in rule_sql.plans:
                    explained += _explain_statement(
                        the_store, plan.statement, "RA401", subject, diagnostics
                    )
                for insert in rule_sql.head_inserts:
                    explained += _explain_statement(
                        the_store, insert, "RA401", subject, diagnostics
                    )
                if rule_sql.provenance_insert is not None:
                    explained += _explain_statement(
                        the_store,
                        rule_sql.provenance_insert,
                        "RA401",
                        subject,
                        diagnostics,
                    )
            for relation in psql.relations:
                explained += _explain(
                    the_store,
                    stage_new_sql(catalog, relation),
                    {},
                    (),
                    "RA401",
                    relation,
                    diagnostics,
                )
        # -- deletion propagation (RA402) -----------------------------
        rsql = lower_reach_program(compilable, catalog, codec, mappings)
        try:
            rsql.check_local_leaves()
        except ExchangeError as exc:
            diagnostics.append(
                Diagnostic("RA402", str(exc), subject="derivability")
            )
        if psql is not None:
            # The kill path's P_m collectors and the index maintenance
            # join the reachability index tables (created empty here).
            the_store.reach_index.ensure_tables()
            for pm in rsql.pm_collect:
                for statement in (pm.dead, pm.whole):
                    explained += _explain_statement(
                        the_store, statement, "RA402", pm.rule_name,
                        diagnostics,
                    )
            # -- reachability-index lowering (RA403) ------------------
            for reach_rule in rsql.rules:
                subject = reach_rule.rule_name
                statements = [reach_rule.enumerate_all]
                for head in reach_rule.heads:
                    statements.append(head.fire_insert)
                    statements.extend(stmt for _rel, stmt in head.body_inserts)
                for statement in statements:
                    explained += _explain_statement(
                        the_store, statement, "RA403", subject, diagnostics
                    )
    finally:
        if own_store:
            the_store.close()
    stats = {
        "explained_statements": explained,
        "sql_rules": len(compilable),
    }
    return diagnostics, stats
