"""Weighted directed graph with probability-style edge weights.

This is the base structure for every graph in the library: knowledge
graphs, augmented query/answer graphs, and the synthetic KONECT-like
graphs used in the efficiency experiments.  Nodes are arbitrary hashable
labels (entity strings, integers, ...).  Edge weights model transition
probabilities, so each weight lies in ``(0, 1]`` and the out-weights of a
node should sum to at most 1 (a deficit is allowed — it is the
probability that a random walk "dies", which is how answer nodes act as
absorbing sinks).

The structure is a dict-of-dicts adjacency with a mirrored predecessor
map, plus an optional cached index/CSR view for the matrix-based
similarity code (:mod:`repro.similarity.ppr`).

Every mutation bumps a monotonically increasing
:attr:`~WeightedDiGraph.version` (split into
:attr:`~WeightedDiGraph.structure_version` for sparsity-pattern changes
and :attr:`~WeightedDiGraph.weight_version` for weight-only updates),
which the serving layer (:mod:`repro.serving`) compares against its
cached matrices' to catch changes nobody announced to it.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Iterable, Iterator, Mapping
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np
from scipy import sparse

from repro.errors import (
    EdgeNotFoundError,
    InvalidWeightError,
    NodeNotFoundError,
)

Node = Hashable

#: Tolerance allowed on the "out-weights sum to at most one" invariant.
STOCHASTIC_TOL = 1e-9


@dataclass(frozen=True)
class Edge:
    """A directed edge ``head -> tail`` with its current weight.

    ``Edge`` is a value snapshot: mutating the graph after obtaining an
    ``Edge`` does not update it.
    """

    head: Node
    tail: Node
    weight: float

    @property
    def key(self) -> tuple[Node, Node]:
        """The ``(head, tail)`` pair identifying this edge in the graph."""
        return (self.head, self.tail)


class WeightedDiGraph:
    """A mutable weighted directed graph.

    Parameters
    ----------
    strict:
        When true (the default), mutations enforce the probabilistic
        invariants: weights in ``(0, 1]`` and per-node out-weight sums at
        most ``1 + STOCHASTIC_TOL``.  Graph generators that build weights
        before normalizing can disable strict mode and call
        :func:`repro.graph.normalize.normalize_out_weights` afterwards.

    Notes
    -----
    Iteration order over nodes and edges is insertion order (Python dict
    semantics), which keeps every downstream computation deterministic
    for a fixed construction sequence.
    """

    def __init__(self, *, strict: bool = True) -> None:
        self._succ: dict[Node, dict[Node, float]] = {}
        self._pred: dict[Node, dict[Node, float]] = {}
        self._num_edges = 0
        self.strict = strict
        self._index_cache: dict[Node, int] | None = None
        self._structure_version = 0
        self._weight_version = 0

    # ------------------------------------------------------------------
    # mutation tracking
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotonic counter bumped by every mutation (structure or weight)."""
        return self._structure_version + self._weight_version

    @property
    def structure_version(self) -> int:
        """Counter bumped by node/edge insertion and removal."""
        return self._structure_version

    @property
    def weight_version(self) -> int:
        """Counter bumped by weight updates on existing edges."""
        return self._weight_version

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[Node, Node, float]],
        *,
        strict: bool = True,
    ) -> "WeightedDiGraph":
        """Build a graph from ``(head, tail, weight)`` triples."""
        graph = cls(strict=strict)
        for head, tail, weight in edges:
            graph.add_edge(head, tail, weight)
        return graph

    def add_node(self, node: Node) -> None:
        """Add an isolated node; adding an existing node is a no-op."""
        if node not in self._succ:
            self._succ[node] = {}
            self._pred[node] = {}
            self._invalidate_index()
            self._structure_version += 1

    def add_edge(self, head: Node, tail: Node, weight: float) -> None:
        """Add edge ``head -> tail``, creating missing endpoints.

        Overwrites the weight if the edge already exists.  Self-loops are
        permitted (a walk may revisit a node), though none of the paper's
        constructions produce them.
        """
        self._check_weight(head, tail, weight)
        self.add_node(head)
        self.add_node(tail)
        if self.strict:
            current = self._succ[head].get(tail, 0.0)
            out_sum = self._out_sum(head) - current + weight
            if out_sum > 1.0 + STOCHASTIC_TOL:
                raise InvalidWeightError(
                    f"adding edge {head!r}->{tail!r} with weight {weight} would "
                    f"raise the out-weight sum of {head!r} to {out_sum:.6f} > 1"
                )
        is_new = tail not in self._succ[head]
        if is_new:
            self._num_edges += 1
        self._succ[head][tail] = float(weight)
        self._pred[tail][head] = float(weight)
        if is_new:
            self._structure_version += 1
        else:
            self._weight_version += 1

    def remove_edge(self, head: Node, tail: Node) -> None:
        """Remove edge ``head -> tail``; endpoints stay in the graph."""
        if not self.has_edge(head, tail):
            raise EdgeNotFoundError(head, tail)
        del self._succ[head][tail]
        del self._pred[tail][head]
        self._num_edges -= 1
        self._structure_version += 1

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` along with every incident edge."""
        if node not in self._succ:
            raise NodeNotFoundError(node)
        for tail in list(self._succ[node]):
            self.remove_edge(node, tail)
        for head in list(self._pred[node]):
            self.remove_edge(head, node)
        del self._succ[node]
        del self._pred[node]
        self._invalidate_index()
        self._structure_version += 1

    def set_weight(self, head: Node, tail: Node, weight: float) -> None:
        """Update the weight of an existing edge."""
        if not self.has_edge(head, tail):
            raise EdgeNotFoundError(head, tail)
        self._check_weight(head, tail, weight)
        if self.strict:
            out_sum = self._out_sum(head) - self._succ[head][tail] + weight
            if out_sum > 1.0 + STOCHASTIC_TOL:
                raise InvalidWeightError(
                    f"setting edge {head!r}->{tail!r} to {weight} would raise "
                    f"the out-weight sum of {head!r} to {out_sum:.6f} > 1"
                )
        self._succ[head][tail] = float(weight)
        self._pred[tail][head] = float(weight)
        self._weight_version += 1

    def _check_weight(self, head: Node, tail: Node, weight: float) -> None:
        if not math.isfinite(weight) or weight <= 0.0:
            raise InvalidWeightError(
                f"edge {head!r}->{tail!r}: weight must be finite and > 0, got {weight!r}"
            )
        if self.strict and weight > 1.0 + STOCHASTIC_TOL:
            raise InvalidWeightError(
                f"edge {head!r}->{tail!r}: weight must be <= 1, got {weight!r}"
            )

    def _out_sum(self, node: Node) -> float:
        return sum(self._succ[node].values())

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def has_node(self, node: Node) -> bool:
        """Whether ``node`` is in the graph."""
        return node in self._succ

    def has_edge(self, head: Node, tail: Node) -> bool:
        """Whether edge ``head -> tail`` is in the graph."""
        return head in self._succ and tail in self._succ[head]

    def weight(self, head: Node, tail: Node) -> float:
        """The weight of edge ``head -> tail``; raises if absent."""
        try:
            return self._succ[head][tail]
        except KeyError:
            raise EdgeNotFoundError(head, tail) from None

    def weight_or_zero(self, head: Node, tail: Node) -> float:
        """The weight of ``head -> tail``, or 0.0 when the edge is absent."""
        return self._succ.get(head, {}).get(tail, 0.0)

    def successors(self, node: Node) -> dict[Node, float]:
        """Mapping of out-neighbours to weights (a defensive copy)."""
        if node not in self._succ:
            raise NodeNotFoundError(node)
        return dict(self._succ[node])

    def predecessors(self, node: Node) -> dict[Node, float]:
        """Mapping of in-neighbours to weights (a defensive copy)."""
        if node not in self._pred:
            raise NodeNotFoundError(node)
        return dict(self._pred[node])

    def out_degree(self, node: Node) -> int:
        """Number of out-edges of ``node``."""
        if node not in self._succ:
            raise NodeNotFoundError(node)
        return len(self._succ[node])

    def in_degree(self, node: Node) -> int:
        """Number of in-edges of ``node``."""
        if node not in self._pred:
            raise NodeNotFoundError(node)
        return len(self._pred[node])

    def out_weight_sum(self, node: Node) -> float:
        """Sum of the out-edge weights of ``node`` (walk survival mass)."""
        if node not in self._succ:
            raise NodeNotFoundError(node)
        return self._out_sum(node)

    @property
    def num_nodes(self) -> int:
        """``|V|`` — the number of nodes."""
        return len(self._succ)

    @property
    def num_edges(self) -> int:
        """``|E|`` — the number of directed edges."""
        return self._num_edges

    def average_degree(self) -> float:
        """Average out-degree ``|E| / |V|`` (Table II's "Average Degree")."""
        if not self._succ:
            return 0.0
        return self._num_edges / len(self._succ)

    def nodes(self) -> Iterator[Node]:
        """Iterate over nodes in insertion order."""
        return iter(self._succ)

    def edges(self) -> Iterator[Edge]:
        """Iterate over edges as :class:`Edge` snapshots."""
        for head, nbrs in self._succ.items():
            for tail, weight in nbrs.items():
                yield Edge(head, tail, weight)

    def edge_keys(self) -> Iterator[tuple[Node, Node]]:
        """Iterate over ``(head, tail)`` pairs without building Edge objects."""
        for head, nbrs in self._succ.items():
            for tail in nbrs:
                yield (head, tail)

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def copy(self) -> "WeightedDiGraph":
        """Deep copy of the structure and weights (node labels shared).

        The clone counts one structure version per node.  Its predecessor rows list in-edges in successor-iteration
        order, which may differ from this graph's in-edge order.
        """
        clone = WeightedDiGraph(strict=self.strict)
        clone._succ = {node: dict(nbrs) for node, nbrs in self._succ.items()}
        pred: dict[Node, dict[Node, float]] = {node: {} for node in clone._succ}
        clone._pred = pred
        for head, nbrs in clone._succ.items():
            for tail, weight in nbrs.items():
                pred[tail][head] = weight
        clone._num_edges = self._num_edges
        clone._structure_version = len(self._succ)
        return clone

    def node_index(self) -> dict[Node, int]:
        """Stable node -> contiguous integer index mapping (cached).

        The cache is invalidated by node insertion/removal but *not* by
        weight updates, so matrix code can be re-run cheaply while the
        optimizer adjusts weights.
        """
        if self._index_cache is None:
            self._index_cache = {node: i for i, node in enumerate(self._succ)}
        return self._index_cache

    def _invalidate_index(self) -> None:
        self._index_cache = None

    def adjacency_matrix(self) -> sparse.csr_matrix:
        """Column-stochastic-style sparse matrix ``M`` with ``M[i, j] = w(v_j, v_i)``.

        This is the matrix of the PPR equation (1) in the paper:
        ``pi = (1 - c) * M @ pi + c * u``.  Column ``j`` holds the
        out-weights of node ``j``, so ``M @ pi`` pushes probability mass
        along edges.
        """
        return self.csr(self.node_index())

    def csr(self, index: Mapping[Node, int]) -> sparse.csr_matrix:
        """``M[index[tail], index[head]] = w(head, tail)`` over the nodes of ``index``.

        ``index`` maps graph nodes one-to-one onto ``0 .. len(index)-1``.
        Edges leaving or entering a node outside it are left out.  The
        result is canonical CSR: each row's entries sorted by column,
        ``float64`` data, and ``int32`` index arrays while they fit.  Per
        edge it does one index lookup and one weight read, both driven
        by C iterators; counting, sorting and ``indptr`` are array ops.
        """
        n = len(index)
        out_rows = [self._succ[node] for node in index]
        counts = np.fromiter(map(len, out_rows), dtype=np.int64, count=n)
        nnz = int(counts.sum())
        cols = np.repeat(
            np.fromiter(index.values(), dtype=np.int64, count=n), counts
        )
        rows = np.fromiter(
            map(index.get, chain.from_iterable(out_rows), repeat(-1)),
            dtype=np.int64,
            count=nnz,
        )
        data = np.fromiter(
            chain.from_iterable(nbrs.values() for nbrs in out_rows),
            dtype=np.float64,
            count=nnz,
        )
        kept = rows >= 0
        if not kept.all():
            rows, cols, data = rows[kept], cols[kept], data[kept]
        order = np.lexsort((cols, rows))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        # scipy narrows the int64 index arrays to int32 when they fit.
        return sparse.csr_matrix(
            (data[order], cols[order], indptr), shape=(n, n)
        )

    def subgraph(self, nodes: Iterable[Node]) -> "WeightedDiGraph":
        """Induced subgraph on ``nodes`` (edges with both endpoints kept)."""
        keep = set(nodes)
        missing = [n for n in keep if n not in self._succ]
        if missing:
            raise NodeNotFoundError(missing[0])
        sub = WeightedDiGraph(strict=self.strict)
        for node in self._succ:
            if node in keep:
                sub.add_node(node)
        for head, nbrs in self._succ.items():
            if head not in keep:
                continue
            for tail, weight in nbrs.items():
                if tail in keep:
                    sub._succ[head][tail] = weight
                    sub._pred[tail][head] = weight
                    sub._num_edges += 1
        return sub

    def to_networkx(self):
        """Export as a :class:`networkx.DiGraph` with ``weight`` attributes."""
        import networkx as nx

        nx_graph = nx.DiGraph()
        nx_graph.add_nodes_from(self._succ)
        nx_graph.add_weighted_edges_from(
            (head, tail, weight)
            for head, nbrs in self._succ.items()
            for tail, weight in nbrs.items()
        )
        return nx_graph

    @classmethod
    def from_networkx(cls, nx_graph, *, strict: bool = True) -> "WeightedDiGraph":
        """Import a :class:`networkx.DiGraph`; missing weights default to 1."""
        graph = cls(strict=strict)
        for node in nx_graph.nodes:
            graph.add_node(node)
        for head, tail, data in nx_graph.edges(data=True):
            graph.add_edge(head, tail, float(data.get("weight", 1.0)))
        return graph

    # ------------------------------------------------------------------
    # dunder conveniences
    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return node in self._succ

    def __len__(self) -> int:
        return len(self._succ)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<WeightedDiGraph |V|={self.num_nodes} |E|={self.num_edges} "
            f"strict={self.strict}>"
        )
