"""The provenance graph of Figure 1.

Two node kinds:

* **tuple nodes** — one per (relation, tuple) pair, drawn as rectangles
  in the paper;
* **derivation nodes** — one per rule firing, drawn as ellipses and
  labeled with the mapping name.  A derivation node has ``m`` source
  tuple nodes (the joined body tuples) and ``n`` target tuple nodes
  (the head tuples of a GLAV mapping), and is "inseparable" from them:
  whenever a derivation node appears in a query answer, all its sources
  and targets are included too (Section 3.1).

The paper's ``+`` leaf markers (local/base contributions) are modeled
as derivations through local-contribution rules (``L1``–``L4`` of
Example 2.1), so graph leaves are exactly the tuples of ``R_l``
relations.

This in-memory graph has a relational twin (Section 4.1): a tuple node
is a stored row of its relation's table, and a derivation node is a
row of its mapping's ``P_m`` provenance relation (equivalently, a
satisfied body join over the stored instance — the store holds an
exchange fixpoint, so the two coincide).  Store-resident systems never
build this object at all; the graph queries of
:mod:`repro.exchange.graph_queries` traverse the twin instead, through
its integer copy, the reachability index of
:mod:`repro.exchange.reach_index`.  This graph, annotated by
:mod:`repro.provenance.annotate`, is the oracle those queries are
property-tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from repro.errors import ProvenanceError
from repro.relational.schema import is_local_name

Row = tuple[object, ...]


@dataclass(frozen=True, order=True)
class TupleNode:
    """A tuple node, identified by relation name and tuple values."""

    relation: str
    values: Row

    def __str__(self) -> str:
        inner = ",".join(str(v) for v in self.values)
        return f"{self.relation}({inner})"

    @property
    def is_local(self) -> bool:
        """True iff this tuple lives in a local-contribution relation."""
        return is_local_name(self.relation)


@dataclass(frozen=True, order=True)
class DerivationNode:
    """One rule firing: ``mapping`` joined ``sources`` to yield ``targets``.

    A base/local insertion is a derivation whose mapping is a local
    rule (``L*``) with the ``R_l`` tuple as its single source.
    """

    mapping: str
    sources: tuple[TupleNode, ...]
    targets: tuple[TupleNode, ...]

    def __str__(self) -> str:
        sources = " ⋈ ".join(str(s) for s in self.sources) or "∅"
        targets = ", ".join(str(t) for t in self.targets)
        return f"[{self.mapping}: {sources} → {targets}]"


class ProvenanceGraph:
    """Mutable provenance graph with adjacency indexes.

    ``derivations_of(t)`` — derivations with *t* among their targets
    (alternate ways of producing *t*; these represent **union**).
    ``derivations_using(t)`` — derivations with *t* among their sources.
    """

    def __init__(self) -> None:
        self._tuples: set[TupleNode] = set()
        self._derivations: set[DerivationNode] = set()
        self._of: dict[TupleNode, set[DerivationNode]] = {}
        self._using: dict[TupleNode, set[DerivationNode]] = {}

    # -- construction ---------------------------------------------------------

    def add_tuple(self, node: TupleNode) -> TupleNode:
        self._tuples.add(node)
        return node

    def add_derivation(self, node: DerivationNode) -> DerivationNode:
        if node in self._derivations:
            return node
        self._derivations.add(node)
        for tup in node.sources + node.targets:
            self._tuples.add(tup)
        for tup in node.targets:
            self._of.setdefault(tup, set()).add(node)
        for tup in node.sources:
            self._using.setdefault(tup, set()).add(node)
        return node

    def derive(
        self,
        mapping: str,
        sources: Iterable[TupleNode],
        targets: Iterable[TupleNode],
    ) -> DerivationNode:
        return self.add_derivation(
            DerivationNode(mapping, tuple(sources), tuple(targets))
        )

    # -- inspection -------------------------------------------------------------

    @property
    def tuples(self) -> frozenset[TupleNode]:
        return frozenset(self._tuples)

    @property
    def derivations(self) -> frozenset[DerivationNode]:
        return frozenset(self._derivations)

    def __contains__(self, node: TupleNode | DerivationNode) -> bool:
        if isinstance(node, TupleNode):
            return node in self._tuples
        return node in self._derivations

    def derivations_of(self, node: TupleNode) -> frozenset[DerivationNode]:
        return frozenset(self._of.get(node, ()))

    def derivations_using(self, node: TupleNode) -> frozenset[DerivationNode]:
        return frozenset(self._using.get(node, ()))

    def tuples_in(self, relation: str) -> Iterator[TupleNode]:
        return (t for t in self._tuples if t.relation == relation)

    def is_leaf(self, node: TupleNode) -> bool:
        """A leaf has no incoming derivations (EDB/local tuples)."""
        return not self._of.get(node)

    def leaves(self) -> Iterator[TupleNode]:
        return (t for t in self._tuples if self.is_leaf(t))

    def mappings_used(self) -> set[str]:
        return {d.mapping for d in self._derivations}

    def size(self) -> tuple[int, int]:
        """(number of tuple nodes, number of derivation nodes)."""
        return len(self._tuples), len(self._derivations)

    # -- traversal ------------------------------------------------------------

    def ancestors(
        self,
        node: TupleNode,
        through: Callable[[DerivationNode], bool] | None = None,
    ) -> tuple[set[TupleNode], set[DerivationNode]]:
        """All tuple and derivation nodes *node* is derivable from.

        Walks edges backwards (target → derivation → sources),
        optionally filtered by a derivation predicate.  The start node
        is included in the tuple set.  Safe on cyclic graphs.
        """
        seen_tuples: set[TupleNode] = set()
        seen_derivs: set[DerivationNode] = set()
        stack = [node]
        while stack:
            current = stack.pop()
            if current in seen_tuples:
                continue
            seen_tuples.add(current)
            for deriv in self._of.get(current, ()):
                if through is not None and not through(deriv):
                    continue
                if deriv in seen_derivs:
                    continue
                seen_derivs.add(deriv)
                stack.extend(deriv.sources)
        return seen_tuples, seen_derivs

    def descendants(
        self,
        node: TupleNode,
        through: Callable[[DerivationNode], bool] | None = None,
    ) -> tuple[set[TupleNode], set[DerivationNode]]:
        """All tuple and derivation nodes reachable forward from *node*."""
        seen_tuples: set[TupleNode] = set()
        seen_derivs: set[DerivationNode] = set()
        stack = [node]
        while stack:
            current = stack.pop()
            if current in seen_tuples:
                continue
            seen_tuples.add(current)
            for deriv in self._using.get(current, ()):
                if through is not None and not through(deriv):
                    continue
                if deriv in seen_derivs:
                    continue
                seen_derivs.add(deriv)
                stack.extend(deriv.targets)
        return seen_tuples, seen_derivs

    def is_acyclic(self) -> bool:
        """True iff no tuple node is among its own proper ancestors."""
        # Colors: 0 = visiting, 1 = done.
        state: dict[TupleNode, int] = {}

        def visit(node: TupleNode) -> bool:
            mark = state.get(node)
            if mark == 0:
                return False
            if mark == 1:
                return True
            state[node] = 0
            for deriv in self._of.get(node, ()):
                for src in deriv.sources:
                    if not visit(src):
                        return False
            state[node] = 1
            return True

        return all(visit(t) for t in self._tuples)

    # -- subgraphs -------------------------------------------------------------

    def subgraph(
        self,
        tuples: Iterable[TupleNode],
        derivations: Iterable[DerivationNode],
    ) -> "ProvenanceGraph":
        """Closed subgraph over the given nodes.

        Derivation-node closure (Section 3.1): each included derivation
        brings *all* its source and target tuple nodes, preserving the
        arity/meaning of the mapping.
        """
        out = ProvenanceGraph()
        for node in tuples:
            if node not in self._tuples:
                raise ProvenanceError(f"tuple node {node} not in graph")
            out.add_tuple(node)
        for deriv in derivations:
            if deriv not in self._derivations:
                raise ProvenanceError(f"derivation node {deriv} not in graph")
            out.add_derivation(deriv)
        return out

    def remove_nodes(
        self,
        tuples: Iterable[TupleNode],
        derivations: Iterable[DerivationNode],
    ) -> None:
        """Remove the given nodes in place (deletion propagation).

        The caller must pass a derivation-closed cut — every derivation
        touching a removed tuple must itself be removed (which
        :func:`repro.provenance.annotate.derivability_partition`
        guarantees) — so the survivors keep the Section 3.1 invariant
        that a derivation's sources and targets are all present.
        Unlike :meth:`subgraph`, this does not rebuild the adjacency
        indexes, so collecting a few dead nodes costs the cut, not the
        whole graph.
        """
        for deriv in derivations:
            if deriv not in self._derivations:
                continue
            self._derivations.discard(deriv)
            for tup in deriv.targets:
                bucket = self._of.get(tup)
                if bucket is not None:
                    bucket.discard(deriv)
                    if not bucket:
                        del self._of[tup]
            for tup in deriv.sources:
                bucket = self._using.get(tup)
                if bucket is not None:
                    bucket.discard(deriv)
                    if not bucket:
                        del self._using[tup]
        for tup in tuples:
            self._tuples.discard(tup)
            self._of.pop(tup, None)
            self._using.pop(tup, None)

    def merge(self, other: "ProvenanceGraph") -> None:
        """Union *other* into this graph in place."""
        for node in other.tuples:
            self.add_tuple(node)
        for deriv in other.derivations:
            self.add_derivation(deriv)

    def copy(self) -> "ProvenanceGraph":
        out = ProvenanceGraph()
        out.merge(self)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProvenanceGraph):
            return NotImplemented
        return (
            self._tuples == other._tuples and self._derivations == other._derivations
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        n_tuples, n_derivs = self.size()
        return f"<ProvenanceGraph tuples={n_tuples} derivations={n_derivs}>"
