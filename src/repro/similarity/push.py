"""Sparse local-push evaluation of the truncated inverse P-distance.

The dense dynamic program (:mod:`repro.similarity.inverse_pdistance`)
evaluates Eq. 7 with ``L`` full sparse mat-vecs — ``O(L·|E|)`` per
query, touching every edge no matter how localized the query is.  This
module evaluates the *same* truncated sum by forward push over the
out-edge adjacency: a sparse residual frontier starts at the query's
seed links and is pushed level by level, so per-query work scales with
the size of the query's ``L``-hop out-neighborhood, not ``|E|``.

Exactness and the error budget
------------------------------
With ``tolerance = 0`` the push is exact: every level's frontier is the
support of the dense DP's mass vector and the per-level score
contributions are the same sums, merely sparsely represented.  With a
positive ``tolerance`` ε, tiny residual entries are dropped *after*
contributing their own level's score, before being pushed further.

A unit of residual dropped at level ``t`` (of ``0..L−1``; level ``t``
scores walks of length ``t+1``) can still have contributed, to any
single target, at most

    g_t = Σ_{s=t+1..L−1}  c · (1−c)^{s+1} · ρ^{s−t}

where ``ρ ≥ 1`` bounds the per-level mass amplification — the maximum
node out-weight sum.  (Base graphs are sub-stochastic, ``ρ = 1``; the
augmented graphs of Section III-A can be locally super-stochastic
because entities carry answer links on top of their KG out-weights, so
``ρ`` must be measured, not assumed.)  Each of the ``L−1`` pushing
levels receives an equal allowance ``ε/(L−1)``, giving the per-entry
drop threshold

    θ_t = ε / ((L−1) · g_t · |frontier_t|).

The kernel additionally accounts the *exact* dropped mass per level, so
the returned :attr:`PropagationResult.error_bound` is typically far
below ε while the guarantee ``|push − dense| ≤ ε`` (per target) holds
by construction.  The ``check_push_scores`` contract
(:mod:`repro.devtools.contracts`) verifies the bound against the dense
DP whenever contracts are armed.

Representation
--------------
The kernel is one Python loop.  Each level's residual frontier is a
``dict`` from node index to mass; a pushed node's out-row is read
through memoryviews of the CSR's ``indptr``, ``indices`` and
``data``, one ``.tolist()`` per row slice, and spread into the next
level's dict.  The frontier is visited in ascending node order and
each row in CSR order, and a level's dropped mass is summed by numpy
over the dropped entries in that order.  Every addition therefore runs
in the order of the vectorized kernel this loop replaced (per level,
``np.unique`` over the concatenated rows and ``np.bincount`` of their
products), so scores, ``edges_touched``, ``touched_nodes`` and
``error_bound`` are bitwise that kernel's; ``tests/push_reference.py``
keeps it as the reference.

A query's ``L``-hop neighbourhood is typically about a hundred edges
(119 on average over the perf harness's Gnutella asks, on a graph of
1.07M edges).  There the vectorized kernel's cost was numpy's per-call
overhead, five calls per level on arrays of a few entries, and each
``np.unique`` sort released the GIL mid-ask to any other busy thread.
The loop pays per edge instead, so it loses on large frontiers.  Per
query, median of 20, on synthetic 100k-node graphs of uniform
out-degree (``L = 5``, two seeds, ``ρ`` supplied as the engine does;
2-vCPU VM):

    edges touched   vectorized   loop     dense
              240      0.64 ms   0.32 ms   6.3 ms
              680      0.73 ms   0.63 ms   7.1 ms
             1.6k      0.91 ms   1.27 ms   8.0 ms
              22k      2.4 ms    9.0 ms    9.5 ms
             311k     27 ms    193 ms     21 ms

The loop is the faster push below about a thousand edges per query.
Past about 20k it costs as much as the dense kernel's ``L`` full
mat-vecs, and a graph whose queries reach that far belongs on the
dense backend.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

#: Default drop tolerance ε: absolute per-target score error allowed in
#: exchange for pruning negligible residual mass.  Top-k–relevant scores
#: on the paper's graphs are ≥ ~1e-6; 1e-8 prunes deep-tail residue
#: (the bulk of the frontier on large graphs) without moving any rank.
DEFAULT_PUSH_TOLERANCE = 1e-8

__all__ = [
    "DEFAULT_PUSH_TOLERANCE",
    "PropagationResult",
    "amplification_bound",
    "out_adjacency",
    "remaining_gain",
    "push_propagate",
]


@dataclass(frozen=True)
class PropagationResult:
    """One propagation's scores plus its cost/accuracy accounting.

    Parameters
    ----------
    scores:
        Per-target score array (2-D, targets x batch, for batched
        backends).
    edges_touched:
        Number of edge traversals the evaluation performed.  Dense
        backends report ``mat-vecs x nnz``; push reports the summed
        out-degree of every pushed frontier node — the quantity the
        sublinearity claim is about.
    touched_nodes:
        Sorted node indices whose out-edges the evaluation read, or
        ``None`` when the backend does not track them (dense touches
        everything).  The engine uses this set to decide whether a
        weight patch can invalidate a cached push result.
    error_bound:
        Per-target absolute error bound versus the exact truncated sum
        (0 for exact backends).
    rho:
        The mass-amplification bound the ``error_bound`` was derived
        under; the bound only remains valid while the served matrix's
        amplification stays ≤ ``rho``.
    """

    scores: np.ndarray
    edges_touched: int
    touched_nodes: "np.ndarray | None" = None
    error_bound: float = 0.0
    rho: float = 1.0


def amplification_bound(out_matrix: sparse.csr_matrix) -> float:
    """``ρ``: the maximum node out-weight sum of ``out_matrix``, ≥ 1.

    One unit of residual mass pushed from a node spreads into at most
    its out-weight sum of next-level mass; the maximum over nodes bounds
    per-level amplification for the drop-error derivation above.
    """
    sums = np.asarray(out_matrix.sum(axis=1)).ravel()
    if sums.size == 0:
        return 1.0
    return float(max(1.0, float(sums.max())))


def out_adjacency(matrix: sparse.csr_matrix) -> sparse.csr_matrix:
    """Out-edge CSR (row ``u`` holds ``w(u→v)``) from the in-edge matrix.

    The engine and the dense DP store ``M[i, j] = w(v_j → v_i)`` so that
    ``M @ mass`` advances mass one step; push instead walks rows of the
    transpose.  Returns a canonical (sorted-indices) CSR copy.
    """
    return sparse.csr_matrix(matrix.T)


def remaining_gain(
    level: int,
    *,
    max_length: int,
    restart_prob: float,
    rho: float,
) -> float:
    """``g_t``: max per-target score a unit residual dropped at ``level``
    could still have produced over the remaining levels (see module
    docstring).  Zero when no pushing levels remain.
    """
    damping = 1.0 - restart_prob
    factor = restart_prob * damping ** (level + 1)
    amplify = 1.0
    gain = 0.0
    for _ in range(level + 1, max_length):
        factor *= damping
        amplify *= rho
        gain += factor * amplify
    return gain


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
        The level-0 residual, one weight per index (duplicate indices
        are summed).
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

    seed_idx = np.asarray(seed_idx, dtype=np.int64)
    seed_weights = np.asarray(seed_weights, dtype=np.float64)
    if seed_idx.shape != seed_weights.shape:
        raise ValueError(
            f"seed index shape {seed_idx.shape} does not match weight shape "
            f"{seed_weights.shape}"
        )
    indptr = memoryview(out_matrix.indptr)
    indices = memoryview(out_matrix.indices)
    data = memoryview(out_matrix.data)
    damping = 1.0 - restart_prob
    targets = np.asarray(target_idx, dtype=np.int64).tolist()
    wanted = set(targets)

    frontier: dict[int, float] = {}
    for node, weight in zip(seed_idx.tolist(), seed_weights.tolist()):
        frontier[node] = frontier.get(node, 0.0) + weight
    scored: dict[int, float] = {}
    touched: set[int] = set()
    edges_touched = 0
    error_bound = 0.0
    pushing_levels = max_length - 1
    factor = restart_prob * damping  # c·(1−c)^{t+1} at t = 0

    for level in range(max_length):
        if not frontier:
            break
        for node in wanted.intersection(frontier):
            scored[node] = scored.get(node, 0.0) + factor * frontier[node]
        if level == pushing_levels:
            break  # the last level is scored but never pushed
        gain = remaining_gain(
            level, max_length=max_length, restart_prob=restart_prob, rho=rho
        )
        if tolerance > 0.0:
            theta = tolerance / (pushing_levels * gain * len(frontier))
        else:
            theta = 0.0
        dropped: list[float] = []
        pushed: dict[int, float] = {}
        for node in sorted(frontier):
            value = frontier[node]
            if not value > theta:
                dropped.append(value)
                continue
            touched.add(node)
            start = indptr[node]
            stop = indptr[node + 1]
            edges_touched += stop - start
            for col, weight in zip(
                indices[start:stop].tolist(), data[start:stop].tolist()
            ):
                pushed[col] = pushed.get(col, 0.0) + value * weight
        if dropped:
            # numpy's pairwise order, not left to right: see Representation.
            mass = float(np.sum(dropped))
            if mass > 0.0:
                error_bound += mass * gain
        frontier = pushed
        factor *= damping

    return PropagationResult(
        scores=np.array(
            [scored.get(node, 0.0) for node in targets], dtype=np.float64
        ),
        edges_touched=edges_touched,
        touched_nodes=np.array(sorted(touched), dtype=np.int64),
        error_bound=error_bound,
        rho=float(rho),
    )
