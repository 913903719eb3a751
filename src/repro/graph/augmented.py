"""The augmented knowledge graph: entities plus query and answer nodes.

Section III-A of the paper: the queries ``Q`` and answers ``A`` are
modelled as extra nodes linked to the knowledge graph ``G`` with
``Q ∩ V = ∅`` and ``A ∩ V = ∅``.  A query node has out-links to the
entity nodes mentioned by the query, weighted by occurrence frequency
(``w(v_q, v_i) = #(q, v_i) / Σ_j #(q, v_j)``); an answer node has
in-links *from* the entity nodes it mentions, normalized per answer in
the same way.  Answer nodes are absorbing sinks: a random walk that
reaches one terminates there, which is what makes
``S(v_q, v_a) = π_{v_q}(v_a)`` a useful relevance score.

:class:`AugmentedGraph` keeps one combined
:class:`~repro.graph.digraph.WeightedDiGraph` as the single source of
truth and tracks each node's role.  Only entity→entity edges (the
knowledge-graph edges proper) are subject to optimization; query links
and answer links are derived from text statistics and stay fixed.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping

from repro.errors import AugmentationError, NodeNotFoundError
from repro.graph.digraph import Edge, Node, WeightedDiGraph


class AugmentedGraph:
    """A knowledge graph augmented with query and answer nodes.

    Parameters
    ----------
    kg:
        The entity-level knowledge graph.  Its nodes become the *entity*
        nodes of the augmented graph; its weights are copied, so the
        caller's graph is never mutated.

    Notes
    -----
    The combined graph is built with ``strict=False`` because entity
    nodes carry both their (sub-stochastic) knowledge-graph out-weights
    and their answer links, and the paper's own construction (Fig. 1,
    ``w(Outlook, a3) = 1``) allows the total to exceed one.  Path-based
    similarity truncated at length ``L`` is always finite regardless.
    """

    def __init__(self, kg: WeightedDiGraph) -> None:
        # A bulk copy: kg validated its weights on insertion.  Counting one
        # structure version per edge as well keeps ``version`` equal to
        # inserting kg node by node, then edge by edge.
        self._graph = kg.copy()
        self._graph.strict = False
        self._graph._structure_version += kg.num_edges
        self._entities: set[Node] = set(kg.nodes())
        self._queries: set[Node] = set()
        self._answers: set[Node] = set()
        # Version bumps of query churn; None while an attach/detach runs.
        self._query_bumps: "int | None" = 0

    # ------------------------------------------------------------------
    # roles
    # ------------------------------------------------------------------
    @property
    def entity_nodes(self) -> frozenset[Node]:
        """The entity (knowledge-graph) nodes."""
        return frozenset(self._entities)

    @property
    def query_nodes(self) -> frozenset[Node]:
        """The attached query nodes."""
        return frozenset(self._queries)

    @property
    def answer_nodes(self) -> frozenset[Node]:
        """The attached answer nodes."""
        return frozenset(self._answers)

    def is_entity(self, node: Node) -> bool:
        """Whether ``node`` is an entity node."""
        return node in self._entities

    def is_query(self, node: Node) -> bool:
        """Whether ``node`` is a query node."""
        return node in self._queries

    def is_answer(self, node: Node) -> bool:
        """Whether ``node`` is an answer node."""
        return node in self._answers

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------
    def add_query(self, query_id: Node, entity_counts: Mapping[Node, float]) -> None:
        """Attach a query node linked to the entities it mentions.

        Parameters
        ----------
        query_id:
            Label for the new query node; must not collide with any
            existing node.
        entity_counts:
            ``entity -> occurrence count`` for the entities extracted
            from the query text.  Counts are normalized to weights
            ``#(q, v_i) / Σ_j #(q, v_j)`` per the paper; entities absent
            from the graph raise :class:`AugmentationError`.
        """
        weights = self._normalized_links(query_id, entity_counts)
        # Restructuring is single-threaded, so the structure_version
        # delta is exactly this attach's bumps even while another thread
        # re-weights edges.  (Inline, not a context manager: every ask
        # attaches a query.)
        bumps, self._query_bumps = self._query_bumps or 0, None
        before = self._graph.structure_version
        try:
            self._graph.add_node(query_id)
            self._queries.add(query_id)
            for entity, weight in weights.items():
                self._graph.add_edge(query_id, entity, weight)
        finally:
            self._query_bumps = bumps + self._graph.structure_version - before

    def add_answer(self, answer_id: Node, entity_counts: Mapping[Node, float]) -> None:
        """Attach an answer node with in-links from the entities it mentions.

        Answer links are normalized per answer (they sum to one over the
        answer's entities), mirroring the query-side construction.  The
        answer node has no out-edges: random walks are absorbed there.
        """
        weights = self._normalized_links(answer_id, entity_counts)
        self._graph.add_node(answer_id)
        self._answers.add(answer_id)
        for entity, weight in weights.items():
            self._graph.add_edge(entity, answer_id, weight)

    def _normalized_links(
        self, node_id: Node, entity_counts: Mapping[Node, float]
    ) -> dict[Node, float]:
        if self._graph.has_node(node_id):
            raise AugmentationError(f"node id {node_id!r} already exists in the graph")
        if not entity_counts:
            raise AugmentationError(
                f"cannot attach {node_id!r}: it mentions no known entities"
            )
        unknown = [e for e in entity_counts if e not in self._entities]
        if unknown:
            raise AugmentationError(
                f"cannot attach {node_id!r}: {unknown[:3]!r} are not entity nodes"
            )
        bad = {e: c for e, c in entity_counts.items() if not c > 0}
        if bad:
            raise AugmentationError(
                f"cannot attach {node_id!r}: non-positive counts {bad!r}"
            )
        total = float(sum(entity_counts.values()))
        return {entity: count / total for entity, count in entity_counts.items()}

    def remove_query(self, query_id: Node) -> None:
        """Detach a query node and its links."""
        if query_id not in self._queries:
            raise NodeNotFoundError(query_id)
        bumps, self._query_bumps = self._query_bumps or 0, None  # as add_query
        before = self._graph.structure_version
        try:
            self._graph.remove_node(query_id)
            self._queries.discard(query_id)
        finally:
            self._query_bumps = bumps + self._graph.structure_version - before

    def remove_answer(self, answer_id: Node) -> None:
        """Detach an answer node and its links."""
        if answer_id not in self._answers:
            raise NodeNotFoundError(answer_id)
        self._graph.remove_node(answer_id)
        self._answers.discard(answer_id)

    # ------------------------------------------------------------------
    # combined-graph access
    # ------------------------------------------------------------------
    @property
    def graph(self) -> WeightedDiGraph:
        """The live combined graph (entities + queries + answers).

        Mutating this object directly bypasses the role bookkeeping;
        prefer :meth:`set_kg_weight` for weight updates.  Every write
        but a query attach or detach moves :attr:`persistent_version`,
        which is how a :class:`~repro.serving.engine.SimilarityEngine`
        notices changes nobody announced to it.
        """
        return self._graph

    @property
    def version(self) -> int:
        """The combined graph's monotonically increasing mutation version.

        Convenience alias for ``self.graph.version``; any structural or
        weight change (query/answer attach, optimizer update) bumps it,
        so it can key caches of anything derived from the graph.
        """
        return self._graph.version

    @property
    def persistent_version(self) -> "int | None":
        """The version of the persistent graph: entities, KG edges, answers.

        :attr:`version` minus the bumps of :meth:`add_query` and
        :meth:`remove_query`: every other write moves it, direct
        ``graph`` writes included.  ``None`` (equal to no version) while
        a query attach or detach runs on another thread.
        """
        bumps = self._query_bumps
        version = self._graph.version
        if bumps is None or bumps != self._query_bumps:
            return None
        return version - bumps

    def is_kg_edge(self, head: Node, tail: Node) -> bool:
        """Whether ``head -> tail`` is an optimizable entity→entity edge."""
        return (
            head in self._entities
            and tail in self._entities
            and self._graph.has_edge(head, tail)
        )

    def kg_edges(self) -> Iterator[Edge]:
        """Iterate over the entity→entity edges (the optimization variables)."""
        for edge in self._graph.edges():
            if edge.head in self._entities and edge.tail in self._entities:
                yield edge

    def kg_weight(self, head: Node, tail: Node) -> float:
        """Weight of an entity→entity edge."""
        if not self.is_kg_edge(head, tail):
            raise AugmentationError(f"{head!r} -> {tail!r} is not a knowledge-graph edge")
        return self._graph.weight(head, tail)

    def set_kg_weight(self, head: Node, tail: Node, weight: float) -> None:
        """Update the weight of an entity→entity edge.

        Query and answer link weights are text-derived constants and may
        not be modified through this method.
        """
        if not self.is_kg_edge(head, tail):
            raise AugmentationError(f"{head!r} -> {tail!r} is not a knowledge-graph edge")
        self._graph.set_weight(head, tail, weight)

    def kg_view(self) -> WeightedDiGraph:
        """A detached copy of the entity-level knowledge graph."""
        return self._graph.subgraph(self._entities)

    def query_links(self, query_id: Node) -> dict[Node, float]:
        """The entity link weights of a query node."""
        if query_id not in self._queries:
            raise NodeNotFoundError(query_id)
        return self._graph.successors(query_id)

    def answer_links(self, answer_id: Node) -> dict[Node, float]:
        """The entity link weights of an answer node (entity -> weight)."""
        if answer_id not in self._answers:
            raise NodeNotFoundError(answer_id)
        return self._graph.predecessors(answer_id)

    def copy(self) -> "AugmentedGraph":
        """Deep copy (graph weights and role sets)."""
        clone = AugmentedGraph.__new__(AugmentedGraph)
        clone._graph = self._graph.copy()
        clone._entities = set(self._entities)
        clone._queries = set(self._queries)
        clone._answers = set(self._answers)
        clone._query_bumps = 0
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<AugmentedGraph entities={len(self._entities)} "
            f"queries={len(self._queries)} answers={len(self._answers)} "
            f"edges={self._graph.num_edges}>"
        )


def attach_queries_and_answers(
    kg: WeightedDiGraph,
    queries: Mapping[Node, Mapping[Node, float]],
    answers: Mapping[Node, Mapping[Node, float]],
    *,
    skip_unlinkable: bool = False,
) -> AugmentedGraph:
    """Build an :class:`AugmentedGraph` from entity-count mappings.

    Parameters
    ----------
    kg:
        The entity knowledge graph.
    queries, answers:
        ``node id -> {entity: count}`` mappings.
    skip_unlinkable:
        When true, queries/answers that mention no known entity are
        silently skipped instead of raising; useful when attaching a raw
        corpus where some documents fall outside the graph vocabulary.
    """
    aug = AugmentedGraph(kg)
    for query_id, counts in queries.items():
        known = {e: c for e, c in counts.items() if aug.is_entity(e)}
        if not known and skip_unlinkable:
            continue
        aug.add_query(query_id, known if skip_unlinkable else counts)
    for answer_id, counts in answers.items():
        known = {e: c for e, c in counts.items() if aug.is_entity(e)}
        if not known and skip_unlinkable:
            continue
        aug.add_answer(answer_id, known if skip_unlinkable else counts)
    return aug
