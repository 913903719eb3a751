"""Applying an SGP solution back onto the graph.

Shared by the single-vote, multi-vote, and split-and-merge drivers:
write the solved edge weights into the augmented graph, then re-run
``NormalizeEdges`` (Algorithm 1 line 16) on every touched node so its
knowledge-graph out-weights keep the probability mass they had before
the solve — the solver redistributes mass, it must not create it.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.devtools.contracts import check_row_stochastic
from repro.graph.augmented import AugmentedGraph
from repro.graph.digraph import Node
from repro.graph.normalize import normalize_edges, out_weight_sums

#: Weight changes smaller than this are considered "unchanged" both for
#: reporting and for the split-and-merge merge rule.
CHANGE_TOL = 1e-9


#: A directed knowledge-graph edge key.
EdgeKey = tuple[Node, Node]


def apply_edge_weights(
    aug: AugmentedGraph,
    new_weights: Mapping[EdgeKey, float],
    *,
    normalize: bool = True,
) -> tuple[dict[EdgeKey, tuple[float, float]], frozenset[EdgeKey]]:
    """Write ``{(head, tail): weight}`` into ``aug`` and re-normalize.

    Parameters
    ----------
    aug:
        The augmented graph to mutate.
    new_weights:
        Solved weights for (a subset of) the knowledge-graph edges.
    normalize:
        Run ``NormalizeEdges`` on the touched nodes, restoring each
        node's pre-update knowledge-graph out-weight sum.

    Returns
    -------
    (changes, written)
        ``changes`` is ``{(head, tail): (old_weight, final_weight)}``
        for every edge whose weight actually changed (after
        normalization), which is what Table III reports.  ``written``
        is every edge written, changed or not: the solved keys plus,
        when normalizing, each touched node's knowledge-graph out-row.
    """
    graph = aug.graph
    touched_nodes = {head for head, _tail in new_weights}
    before = {
        (head, tail): graph.weight(head, tail)
        for head, tail in new_weights
    }
    # Record sums over the *knowledge-graph* out-edges only: query and
    # answer links are constants and must not absorb normalization.
    reference = out_weight_sums(
        graph, touched_nodes, edge_filter=aug.is_kg_edge
    )
    for (head, tail), weight in new_weights.items():
        aug.set_kg_weight(head, tail, float(weight))
    written = set(new_weights)
    if normalize:
        written.update(
            (head, tail)
            for head in touched_nodes
            for tail in graph.successors(head)
            if aug.is_kg_edge(head, tail)
        )
        normalize_edges(
            graph,
            nodes=touched_nodes,
            reference_sums=reference,
            edge_filter=aug.is_kg_edge,
        )
        # Contract seam (NormalizeEdges, Algorithm 1 line 16): every
        # touched node's knowledge-graph out-mass is back at its
        # pre-solve reference — the solver redistributed, not created.
        check_row_stochastic(
            graph,
            nodes=[node for node in touched_nodes if node in reference],
            expected=reference,
            edge_filter=aug.is_kg_edge,
            seam="optimize.apply_edge_weights",
        )
    changes: dict[EdgeKey, tuple[float, float]] = {}
    for (head, tail), old in before.items():
        final = graph.weight(head, tail)
        if abs(final - old) > CHANGE_TOL:
            changes[(head, tail)] = (old, final)
    return changes, frozenset(written)


def weight_deltas(
    changes: Mapping[EdgeKey, tuple[float, float]]
) -> dict[EdgeKey, float]:
    """``{edge: new − old}`` from an :func:`apply_edge_weights` record."""
    return {edge: new - old for edge, (old, new) in changes.items()}


def solution_edge_weights(encoded, solution) -> dict:
    """Extract ``{edge: weight}`` from a solver solution for ``encoded``.

    Thin helper so drivers do not reach into the variable index
    directly.
    """
    x = np.asarray(solution.x, dtype=float)
    return encoded.edge_values(x)
