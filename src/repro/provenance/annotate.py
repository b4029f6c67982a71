"""Bottom-up annotation of provenance graphs (Section 2.1).

Given a provenance (sub)graph, a semiring, an assignment of semiring
values to leaf tuple nodes, and unary functions per mapping, compute
the annotation of every node:

* a **derivation node** gets ``f_mapping(⊗ of its source values)``;
* a **tuple node** gets ``⊕ of its derivation values`` (a leaf gets its
  assigned base value).

Acyclic graphs are evaluated in one topological pass.  Cyclic graphs
(recursive mappings) are handled by Kleene fixpoint iteration starting
from all-``zero``, which converges for the idempotent + absorptive
semirings of Table 1; for the others a :class:`CycleError` is raised,
matching the paper's caveat that e.g. derivation counts may be
infinite.

These annotations are the memory engine's answers, and the oracle the
store-side queries over the reachability index
(:mod:`repro.exchange.graph_queries`) are property-tested against.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Mapping

from repro.errors import CycleError, EvaluationError
from repro.provenance.graph import DerivationNode, ProvenanceGraph, TupleNode
from repro.semirings.base import MappingFunction, Semiring
from repro.semirings.polynomial import Polynomial, PolynomialSemiring

#: Assigns a base value to each leaf tuple node.
LeafAssignment = Callable[[TupleNode], Any]


def _resolve_mapping_functions(
    semiring: Semiring,
    mapping_functions: Mapping[str, MappingFunction] | None,
) -> Callable[[str], MappingFunction]:
    identity = semiring.identity_function()
    table = dict(mapping_functions or {})
    return lambda mapping: table.get(mapping, identity)


def annotate(
    graph: ProvenanceGraph,
    semiring: Semiring,
    leaf_assignment: LeafAssignment | Mapping[TupleNode, Any] | None = None,
    mapping_functions: Mapping[str, MappingFunction] | None = None,
    max_rounds: int = 10_000,
) -> dict[TupleNode, Any]:
    """Annotation of every tuple node of *graph* in *semiring*.

    ``leaf_assignment`` may be a callable or a dict; leaves absent from
    a dict (or a ``None`` assignment) default to ``semiring.one``, the
    identity element for ``·`` (Section 3.2.2's default rule).
    """
    if leaf_assignment is None:
        assign: LeafAssignment = semiring.default_leaf
    elif isinstance(leaf_assignment, Mapping):
        table = leaf_assignment
        assign = lambda node: (
            table[node] if node in table else semiring.default_leaf(node)
        )
    else:
        assign = leaf_assignment
    func_of = _resolve_mapping_functions(semiring, mapping_functions)

    if graph.is_acyclic():
        return _annotate_acyclic(graph, semiring, assign, func_of)
    if not semiring.cycle_safe:
        raise CycleError(
            f"provenance graph is cyclic and semiring {semiring.name} is not "
            "idempotent+absorptive; annotations may not converge"
        )
    return _annotate_fixpoint(graph, semiring, assign, func_of, max_rounds)


def _tuple_value(
    node: TupleNode,
    graph: ProvenanceGraph,
    semiring: Semiring,
    assign: LeafAssignment,
    derivation_values: Mapping[DerivationNode, Any],
) -> Any:
    derivations = graph.derivations_of(node)
    if not derivations:
        return semiring.validate(assign(node))
    return semiring.sum(
        derivation_values[d] for d in sorted(derivations, key=str)
    )


def _derivation_value(
    node: DerivationNode,
    semiring: Semiring,
    func_of: Callable[[str], MappingFunction],
    tuple_values: Mapping[TupleNode, Any],
) -> Any:
    product = semiring.product(tuple_values[s] for s in node.sources)
    return func_of(node.mapping)(product)


def _annotate_acyclic(
    graph: ProvenanceGraph,
    semiring: Semiring,
    assign: LeafAssignment,
    func_of: Callable[[str], MappingFunction],
) -> dict[TupleNode, Any]:
    # Kahn topological order over the bipartite dependency graph:
    # a derivation waits for all its sources; a tuple for all the
    # derivations targeting it.
    tuple_values: dict[TupleNode, Any] = {}
    derivation_values: dict[DerivationNode, Any] = {}

    pending_tuple: dict[TupleNode, int] = {
        t: len(graph.derivations_of(t)) for t in graph.tuples
    }
    pending_deriv: dict[DerivationNode, int] = {
        d: len(set(d.sources)) for d in graph.derivations
    }
    ready: deque = deque(t for t, n in pending_tuple.items() if n == 0)
    ready.extend(d for d, n in pending_deriv.items() if n == 0)

    processed = 0
    while ready:
        node = ready.popleft()
        processed += 1
        if isinstance(node, TupleNode):
            tuple_values[node] = _tuple_value(
                node, graph, semiring, assign, derivation_values
            )
            for deriv in graph.derivations_using(node):
                if deriv in pending_deriv:
                    pending_deriv[deriv] -= 1
                    if pending_deriv[deriv] == 0:
                        ready.append(deriv)
        else:
            derivation_values[node] = _derivation_value(
                node, semiring, func_of, tuple_values
            )
            for target in set(node.targets):
                pending_tuple[target] -= 1
                if pending_tuple[target] == 0:
                    ready.append(target)
    if processed != len(pending_tuple) + len(pending_deriv):
        raise EvaluationError("topological annotation missed nodes (cycle?)")
    return tuple_values


def _annotate_fixpoint(
    graph: ProvenanceGraph,
    semiring: Semiring,
    assign: LeafAssignment,
    func_of: Callable[[str], MappingFunction],
    max_rounds: int,
) -> dict[TupleNode, Any]:
    tuple_values: dict[TupleNode, Any] = {}
    for node in graph.tuples:
        if graph.is_leaf(node):
            tuple_values[node] = semiring.validate(assign(node))
        else:
            tuple_values[node] = semiring.zero
    derivations = sorted(graph.derivations, key=str)
    for _ in range(max_rounds):
        derivation_values = {
            d: _derivation_value(d, semiring, func_of, tuple_values)
            for d in derivations
        }
        changed = False
        for node in graph.tuples:
            if graph.is_leaf(node):
                continue
            value = _tuple_value(
                node, graph, semiring, assign, derivation_values
            )
            if value != tuple_values[node]:
                tuple_values[node] = value
                changed = True
        if not changed:
            return tuple_values
    raise EvaluationError(
        f"fixpoint annotation did not converge within {max_rounds} rounds"
    )


def derivability_partition(
    graph: ProvenanceGraph,
    leaf_assignment: LeafAssignment | Mapping[TupleNode, Any] | None = None,
) -> tuple[set[TupleNode], set[DerivationNode]]:
    """Split *graph* by the DERIVABILITY test (the paper's Q5).

    Annotates every tuple node in the DERIVABILITY semiring under
    *leaf_assignment* (typically "does the local tuple still exist")
    and returns ``(dead_tuples, dead_derivations)``: the underivable
    tuple nodes plus every derivation touching one of them as source or
    target (derivation-node inseparability, Section 3.1).  Cyclic
    graphs use the Kleene iteration from all-``false`` — the *least*
    fixpoint — so cyclically self-supporting tuples with no surviving
    base are dead.

    This single definition is the deletion-propagation semantics both
    engines implement: the memory engine applies it to the provenance
    graph directly, and the SQLite engine's resident propagation
    (:meth:`repro.exchange.sql_executor.SQLiteExchangeEngine.propagate_deletions`)
    computes the same least fixpoint over the stored firing history's
    reachability index, restricted to the dead cone.
    """
    from repro.semirings.registry import get_semiring

    derivable = annotate(
        graph, get_semiring("DERIVABILITY"), leaf_assignment=leaf_assignment
    )
    dead_tuples = {node for node, value in derivable.items() if not value}
    if not dead_tuples:
        return dead_tuples, set()
    dead_derivations = {
        deriv
        for deriv in graph.derivations
        if any(src in dead_tuples for src in deriv.sources)
        or any(tgt in dead_tuples for tgt in deriv.targets)
    }
    return dead_tuples, dead_derivations


def lineage_of(graph: ProvenanceGraph, node: TupleNode) -> frozenset:
    """Lineage of one tuple node (the paper's Q6): the set of leaf
    (local base) tuples *node* derives from.

    Annotates in the LINEAGE semiring with each leaf assigned its own
    singleton — but only over *node*'s ancestor closure, not the whole
    graph: a tuple's annotation depends solely on its ancestors, so
    restricting first makes a single-node query cost the ancestry, not
    the instance.  (Co-target tuples the closed subgraph drags along
    are annotated too, but nothing of theirs flows into *node* — a
    co-target that fed an ancestor would itself be an ancestor.)

    Raises :class:`KeyError` when *node* is not in the graph, and is
    the single definition of lineage both engines implement: the
    SQLite engine's ancestor closure over the reachability index
    (:meth:`repro.exchange.graph_queries.StoreGraphQueries.lineage`)
    computes the same leaf set over the stored firing history.
    """
    from repro.semirings.events import BOTTOM
    from repro.semirings.registry import get_semiring

    if node not in graph:
        raise KeyError(node)
    tuples, derivations = graph.ancestors(node)
    closure = graph.subgraph(tuples, derivations)
    values = annotate(
        closure,
        get_semiring("LINEAGE"),
        leaf_assignment=lambda leaf: frozenset([leaf]),
    )
    result = values[node]
    return frozenset() if result is BOTTOM else result


def provenance_polynomial(
    graph: ProvenanceGraph,
    node: TupleNode,
    indeterminate: Callable[[TupleNode], object] = str,
) -> Polynomial:
    """The ℕ[X] provenance polynomial of *node* (Section 2.1).

    Leaves become indeterminates named by *indeterminate* (default:
    their string form).  Requires an acyclic graph — the polynomial of
    a cyclic derivation is an infinite formal power series.
    """
    if not graph.is_acyclic():
        raise CycleError("provenance polynomials require an acyclic graph")
    values = annotate(
        graph,
        PolynomialSemiring(),
        leaf_assignment=lambda leaf: Polynomial.variable(indeterminate(leaf)),
    )
    return values[node]
