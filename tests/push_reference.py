"""The vectorized local-push kernel, kept as the reference for the loop.

``repro.similarity.push.push_propagate`` runs one Python loop over the
out-CSR's rows.  This module keeps the numpy pipeline it replaced —
per-level ``np.unique``/``np.bincount`` over grouped-arange edge
positions — verbatim, so ``tests/test_similarity_push.py`` can require
the loop to return bitwise the same :class:`PropagationResult`.  Not a
test module.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.similarity.push import (
    DEFAULT_PUSH_TOLERANCE,
    PropagationResult,
    amplification_bound,
    remaining_gain,
)


def _coalesce(idx: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted unique indices with duplicate weights summed."""
    idx = np.asarray(idx, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    if idx.shape != weights.shape:
        raise ValueError(
            f"seed index shape {idx.shape} does not match weight shape "
            f"{weights.shape}"
        )
    if idx.size == 0:
        return idx, weights
    uniq, inverse = np.unique(idx, return_inverse=True)
    if uniq.shape == idx.shape:
        return uniq, weights[np.argsort(idx, kind="stable")]
    return uniq, np.bincount(inverse, weights=weights, minlength=uniq.shape[0])


def _frontier_lookup(
    frontier: np.ndarray, values: np.ndarray, target_idx: np.ndarray
) -> np.ndarray:
    """Residual value at each target (0 where absent); frontier non-empty."""
    pos = np.searchsorted(frontier, target_idx)
    pos = np.minimum(pos, frontier.shape[0] - 1)
    hit = frontier[pos] == target_idx
    return np.where(hit, values[pos], 0.0)


def _concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + c) for s, c in zip(starts, counts)])``
    without a Python loop (the grouped-arange cumsum trick)."""
    mask = counts > 0
    starts = starts[mask]
    counts = counts[mask]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    steps = np.ones(total, dtype=np.int64)
    steps[0] = starts[0]
    boundaries = np.cumsum(counts)[:-1]
    steps[boundaries] = starts[1:] - (starts[:-1] + counts[:-1] - 1)
    return np.cumsum(steps)


def push_propagate(
    out_matrix: sparse.csr_matrix,
    seed_idx: np.ndarray,
    seed_weights: np.ndarray,
    target_idx: np.ndarray,
    *,
    max_length: int,
    restart_prob: float,
    tolerance: float = DEFAULT_PUSH_TOLERANCE,
    rho: "float | None" = None,
) -> PropagationResult:
    """Local-push ``Φ_L`` with the first step pre-seeded.

    The seed is the level-0 residual — for a query, its out-link
    weights at their entity indices (exactly the state of the dense DP
    after its first mat-vec), so level ``t`` scores walks of length
    ``t+1`` with coefficient ``c·(1−c)^{t+1}``.  ``max_length`` levels
    are scored; ``max_length − 1`` pushes are performed.

    Parameters
    ----------
    out_matrix:
        Out-edge CSR (see :func:`out_adjacency`).
    seed_idx, seed_weights:
        The level-0 residual (duplicate indices are summed).
    target_idx:
        Node indices to score, in output order.
    max_length:
        The truncation length ``L``.
    restart_prob:
        The restart probability ``c``.
    tolerance:
        The per-target absolute error budget ε (0 = exact push).
    rho:
        Mass-amplification bound; measured from ``out_matrix`` when not
        supplied.  Callers patching the matrix in place must pass a
        bound that stays valid across the patches they intend to make.
    """
    if max_length < 1:
        raise ValueError(f"max_length must be at least 1, got {max_length}")
    if not 0.0 < restart_prob < 1.0:
        raise ValueError(
            f"restart_prob must be in (0, 1), got {restart_prob}"
        )
    if not tolerance >= 0.0:
        raise ValueError(f"tolerance must be ≥ 0, got {tolerance}")
    if rho is None:
        rho = amplification_bound(out_matrix)
    if rho < 1.0:
        raise ValueError(f"rho must be ≥ 1, got {rho}")

    indptr = out_matrix.indptr
    indices = out_matrix.indices
    data = out_matrix.data
    damping = 1.0 - restart_prob
    target_idx = np.asarray(target_idx, dtype=np.int64)

    frontier, values = _coalesce(seed_idx, seed_weights)
    scores = np.zeros(target_idx.shape[0], dtype=np.float64)
    touched_parts: list[np.ndarray] = []
    edges_touched = 0
    error_bound = 0.0
    pushing_levels = max_length - 1
    factor = restart_prob * damping  # c·(1−c)^{t+1} at t = 0

    for level in range(max_length):
        if frontier.size == 0:
            break
        if target_idx.size:
            scores += factor * _frontier_lookup(frontier, values, target_idx)
        if level == pushing_levels:
            break  # the last level is scored but never pushed
        gain = remaining_gain(
            level, max_length=max_length, restart_prob=restart_prob, rho=rho
        )
        if tolerance > 0.0:
            theta = tolerance / (pushing_levels * gain * frontier.size)
        else:
            theta = 0.0
        keep = values > theta
        if not keep.all():
            dropped = float(values[~keep].sum())
            if dropped > 0.0:
                error_bound += dropped * gain
            frontier = frontier[keep]
            values = values[keep]
            if frontier.size == 0:
                break
        touched_parts.append(frontier)
        starts = indptr[frontier].astype(np.int64)
        counts = indptr[frontier + 1].astype(np.int64) - starts
        total = int(counts.sum())
        edges_touched += total
        if total == 0:
            break  # the whole frontier is sinks; mass expires here
        edge_pos = _concat_ranges(starts, counts)
        spread = np.repeat(values, counts) * data[edge_pos]
        frontier, inverse = np.unique(indices[edge_pos], return_inverse=True)
        frontier = frontier.astype(np.int64)
        values = np.bincount(inverse, weights=spread, minlength=frontier.shape[0])
        factor *= damping

    touched_nodes = (
        np.unique(np.concatenate(touched_parts))
        if touched_parts
        else np.empty(0, dtype=np.int64)
    )
    return PropagationResult(
        scores=scores,
        edges_touched=edges_touched,
        touched_nodes=touched_nodes,
        error_bound=error_bound,
        rho=float(rho),
    )
