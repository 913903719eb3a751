"""The two propagation kernels, selected by name.

The paper serves one similarity, the extended inverse P-distance
truncated at walk length ``L`` (Eq. 7), and evaluates it with one of
two kernels:

- ``"dense"`` -- :class:`DenseBackend`, the reference dynamic program
  (Section IV-A): ``L`` sparse mat-vecs over the whole graph;
- ``"push"`` -- :class:`PushBackend`, the sparse local-push evaluator
  (:mod:`repro.similarity.push`), whose per-query work scales with the
  query's ``L``-hop out-neighborhood, within ``params.push_tolerance``
  of dense.

:attr:`repro.serving.params.SimilarityParams.backend` names one and
:func:`get_backend` returns it; nothing outside :mod:`repro.similarity`
calls the kernel functions directly (lint rule R006 enforces this).
Each kernel scores on a :class:`~repro.graph.digraph.WeightedDiGraph`
(``scores`` / ``scores_batch``) and, through ``propagate``, on the
serving engine's CSR with the query's first step pre-seeded.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

import numpy as np
from scipy import sparse

from repro.errors import NodeNotFoundError, UnknownBackendError
from repro.graph.digraph import Node, WeightedDiGraph
from repro.similarity.inverse_pdistance import (
    inverse_pdistance,
    inverse_pdistance_batch,
)
from repro.similarity.push import (
    PropagationResult,
    amplification_bound,
    out_adjacency,
    push_propagate,
)

if TYPE_CHECKING:  # params imports this package; annotation-only import
    from repro.serving.params import SimilarityParams

__all__ = [
    "PropagationResult",
    "UnknownBackendError",
    "DenseBackend",
    "PushBackend",
    "get_backend",
]


def _source_out_links(
    graph: WeightedDiGraph, source: Node, index: dict[Node, int]
) -> tuple[np.ndarray, np.ndarray]:
    """The level-0 push residual: one step of mass out of ``source``."""
    successors = graph.successors(source)
    seed_idx = np.fromiter(
        (index[node] for node in successors), dtype=np.int64, count=len(successors)
    )
    seed_weights = np.fromiter(
        successors.values(), dtype=np.float64, count=len(successors)
    )
    return seed_idx, seed_weights


class DenseBackend:
    """The reference dense dynamic program (Eq. 7, Section IV-A).

    :meth:`propagate` mirrors
    :func:`~repro.similarity.inverse_pdistance.inverse_pdistance`
    operation for operation from ``t = 1`` on, so the engine's dense
    serves are bitwise equal to a cold recompute.
    """

    def scores(
        self,
        graph: WeightedDiGraph,
        source: Node,
        targets: Iterable[Node],
        *,
        params: "SimilarityParams",
    ) -> dict[Node, float]:
        return inverse_pdistance(graph, source, targets, params=params)

    def scores_batch(
        self,
        graph: WeightedDiGraph,
        sources: Iterable[Node],
        targets: Iterable[Node],
        *,
        params: "SimilarityParams",
    ) -> dict[Node, dict[Node, float]]:
        return inverse_pdistance_batch(graph, sources, targets, params=params)

    def propagate(
        self,
        matrix: sparse.csr_matrix,
        seed_idx: np.ndarray,
        seed_weights: np.ndarray,
        target_idx: np.ndarray,
        *,
        params: "SimilarityParams",
    ) -> PropagationResult:
        """Scores at ``target_idx`` of the in-edge CSR ``matrix``
        (``M[i, j] = w(v_j → v_i)``), seeded with a query's out-link
        weights at their entity indices."""
        mass = np.zeros(matrix.shape[0])
        mass[seed_idx] = seed_weights
        damping = 1.0 - params.restart_prob
        factor = params.restart_prob
        factor *= damping
        scores = np.zeros(len(target_idx))
        scores += factor * mass[target_idx]
        matvecs = 0
        for _ in range(params.max_length - 1):
            mass = matrix @ mass
            matvecs += 1
            factor *= damping
            if not mass.any():
                break
            scores += factor * mass[target_idx]
        return PropagationResult(
            scores=scores, edges_touched=matvecs * matrix.nnz
        )

    def propagate_batch(
        self,
        matrix: sparse.csr_matrix,
        seed_columns: Sequence[tuple[np.ndarray, np.ndarray]],
        target_idx: np.ndarray,
        *,
        params: "SimilarityParams",
    ) -> PropagationResult:
        """Stacked propagation: ``scores[target, column]`` block."""
        mass = np.zeros((matrix.shape[0], len(seed_columns)))
        for column, (seed_idx, seed_weights) in enumerate(seed_columns):
            mass[seed_idx, column] = seed_weights
        damping = 1.0 - params.restart_prob
        factor = params.restart_prob
        factor *= damping
        scores = np.zeros((len(target_idx), len(seed_columns)))
        scores += factor * mass[target_idx, :]
        matvecs = 0
        for _ in range(params.max_length - 1):
            mass = matrix @ mass
            matvecs += 1
            factor *= damping
            if not mass.any():
                break
            scores += factor * mass[target_idx, :]
        return PropagationResult(
            scores=scores, edges_touched=matvecs * matrix.nnz
        )


class PushBackend:
    """Sparse local-push evaluator (:mod:`repro.similarity.push`).

    Scores agree with :class:`DenseBackend` within the derived error
    budget ``params.push_tolerance`` (exactly, when it is 0); per-query
    work scales with the query's ``L``-hop out-neighborhood.
    """

    def scores(
        self,
        graph: WeightedDiGraph,
        source: Node,
        targets: Iterable[Node],
        *,
        params: "SimilarityParams",
    ) -> dict[Node, float]:
        if not graph.has_node(source):
            raise NodeNotFoundError(source)
        target_list = list(targets)
        index = graph.node_index()
        missing = [t for t in target_list if t not in index]
        if missing:
            raise NodeNotFoundError(missing[0])
        out_matrix = out_adjacency(graph.adjacency_matrix())
        seed_idx, seed_weights = _source_out_links(graph, source, index)
        target_idx = np.array(
            [index[t] for t in target_list], dtype=np.int64
        )
        result = push_propagate(
            out_matrix,
            seed_idx,
            seed_weights,
            target_idx,
            max_length=params.max_length,
            restart_prob=params.restart_prob,
            tolerance=params.push_tolerance,
        )
        return {
            t: float(s) for t, s in zip(target_list, result.scores)
        }

    def scores_batch(
        self,
        graph: WeightedDiGraph,
        sources: Iterable[Node],
        targets: Iterable[Node],
        *,
        params: "SimilarityParams",
    ) -> dict[Node, dict[Node, float]]:
        source_list = list(sources)
        target_list = list(targets)
        index = graph.node_index()
        missing = [n for n in source_list + target_list if n not in index]
        if missing:
            raise NodeNotFoundError(missing[0])
        if not source_list:
            return {}
        out_matrix = out_adjacency(graph.adjacency_matrix())
        rho = amplification_bound(out_matrix)
        target_idx = np.array(
            [index[t] for t in target_list], dtype=np.int64
        )
        results: dict[Node, dict[Node, float]] = {}
        for source in source_list:
            seed_idx, seed_weights = _source_out_links(graph, source, index)
            result = push_propagate(
                out_matrix,
                seed_idx,
                seed_weights,
                target_idx,
                max_length=params.max_length,
                restart_prob=params.restart_prob,
                tolerance=params.push_tolerance,
                rho=rho,
            )
            results[source] = {
                t: float(s) for t, s in zip(target_list, result.scores)
            }
        return results

    def propagate(
        self,
        out_matrix: sparse.csr_matrix,
        seed_idx: np.ndarray,
        seed_weights: np.ndarray,
        target_idx: np.ndarray,
        *,
        params: "SimilarityParams",
        rho: float,
    ) -> PropagationResult:
        """Local push over the out-edge CSR ``out_matrix`` with its
        amplification bound ``rho``, both kept by the serving epoch."""
        return push_propagate(
            out_matrix,
            seed_idx,
            seed_weights,
            target_idx,
            max_length=params.max_length,
            restart_prob=params.restart_prob,
            tolerance=params.push_tolerance,
            rho=rho,
        )


_BACKENDS: dict[str, "DenseBackend | PushBackend"] = {
    "dense": DenseBackend(),
    "push": PushBackend(),
}


def get_backend(name: str) -> "DenseBackend | PushBackend":
    """The kernel named ``name``: ``"dense"`` or ``"push"``.

    Raises
    ------
    UnknownBackendError
        For any other name.
    """
    try:
        return _BACKENDS[name]
    except KeyError:
        raise UnknownBackendError(
            f"unknown propagation backend {name!r}; the kernels are "
            f"{sorted(_BACKENDS)}"
        ) from None
