"""Parallel / distributed execution of per-cluster solves (Section VI).

The clusters produced by the split step are independent SGPs, which the
paper exploits two ways: solving them on a process pool locally, and
distributing them over four machines ("the distributed approach
significantly improves the scalability").  This module provides:

- :func:`solve_clusters_parallel` — a ``multiprocessing`` pool over the
  cluster solves, returning slim picklable results;
- :func:`simulated_makespan` — the idealized wall-clock of running the
  measured per-cluster times on ``n`` workers under LPT (longest
  processing time first) list scheduling.  The benchmark uses it to
  reproduce the paper's "Distributed S-M Strategy" series without
  needing four machines: the real distributed runtime is the makespan
  plus dispatch overhead.
"""

from __future__ import annotations

import heapq
import multiprocessing
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.graph.augmented import AugmentedGraph
from repro.obs import observe
from repro.optimize.apply import weight_deltas
from repro.votes.types import Vote


@dataclass
class ClusterResult:
    """Slim, picklable result of solving one cluster's multi-vote SGP."""

    index: int
    num_votes: int
    deltas: dict = field(default_factory=dict)
    elapsed: float = 0.0
    solve_time: float = 0.0
    num_constraints: int = 0
    num_satisfied: int = 0
    num_discarded: int = 0
    #: Total trust weight of the cluster's votes (``n_C`` of the merge
    #: rule; equals ``num_votes`` when all votes carry unit weight).
    total_weight: float = 0.0


def solve_one_cluster(
    aug: AugmentedGraph,
    cluster_votes: Sequence[Vote],
    index: int,
    options: dict,
) -> ClusterResult:
    """Solve the multi-vote SGP of one cluster against the base graph.

    Runs :func:`repro.optimize.multi_vote.solve_multi_vote` on a copy of
    ``aug`` (clusters are independent and all start from the same base
    weights) and reduces the outcome to weight *deltas* for the merge
    step.
    """
    from repro.optimize.multi_vote import solve_multi_vote  # local: avoid cycle

    with observe(
        "optimize.cluster", index=index, num_votes=len(cluster_votes)
    ) as op:
        _graph, report = solve_multi_vote(aug, list(cluster_votes), **options)
        op.set(
            num_constraints=report.num_constraints,
            num_satisfied=report.num_satisfied_constraints,
            num_discarded=len(report.discarded_votes),
        )
    return ClusterResult(
        index=index,
        num_votes=len(cluster_votes),
        deltas=weight_deltas(report.changed_edges),
        elapsed=report.elapsed,
        solve_time=report.solve_time,
        num_constraints=report.num_constraints,
        num_satisfied=report.num_satisfied_constraints,
        num_discarded=len(report.discarded_votes),
        total_weight=float(sum(v.weight for v in cluster_votes)),
    )


#: Per-process base graph, installed once by the pool initializer so
#: cluster payloads stay slim (votes + options only).  Shipping the full
#: augmented graph inside every payload used to serialize it once *per
#: cluster*; the initializer ships it once per worker.
_POOL_GRAPH: "AugmentedGraph | None" = None


def _init_pool(aug: AugmentedGraph) -> None:
    global _POOL_GRAPH
    _POOL_GRAPH = aug


def _pool_worker(payload):
    cluster_votes, index, options = payload
    return solve_one_cluster(_POOL_GRAPH, cluster_votes, index, options)


def solve_clusters_parallel(
    aug: AugmentedGraph,
    clusters: Sequence[Sequence[Vote]],
    *,
    num_workers: int = 4,
    options: "dict | None" = None,
) -> list[ClusterResult]:
    """Solve every cluster on a process pool.

    Parameters
    ----------
    aug:
        The base augmented graph.  Shipped to each worker exactly once
        through the pool initializer (with the ``fork`` start method it
        is inherited copy-on-write, costing no serialization at all);
        per-cluster payloads carry only the votes and options.
    clusters:
        One vote sequence per cluster.
    num_workers:
        Pool size (the paper's distributed experiment uses 4 machines).
        ``1`` falls back to in-process execution, which is also the path
        taken when the pool cannot be created (restricted environments).
    options:
        Keyword arguments forwarded to ``solve_multi_vote``.

    Returns
    -------
    list[ClusterResult]
        In cluster order.
    """
    if num_workers < 1:
        raise ReproError(f"num_workers must be at least 1, got {num_workers}")
    opts = dict(options or {})
    payloads = [
        (list(cluster), index, opts) for index, cluster in enumerate(clusters)
    ]
    with observe(
        "optimize.solve_clusters",
        num_clusters=len(payloads),
        num_workers=num_workers,
    ) as op:
        if num_workers == 1 or len(payloads) <= 1:
            op.set(pool=False)
            return [
                solve_one_cluster(aug, cluster_votes, index, options_)
                for cluster_votes, index, options_ in payloads
            ]
        try:
            context = multiprocessing.get_context("fork")
            with context.Pool(
                processes=min(num_workers, len(payloads)),
                initializer=_init_pool,
                initargs=(aug,),
            ) as pool:
                results = pool.map(_pool_worker, payloads)
            # Worker-side spans/metrics live in the worker processes;
            # surface the measured per-cluster times on this span so the
            # parent trace still shows where the wall-clock went.
            op.set(
                pool=True,
                cluster_seconds=[round(r.elapsed, 6) for r in results],
            )
        except (OSError, ValueError):
            # Sandboxed environments may forbid subprocesses; degrade
            # gracefully.
            op.set(pool=False, pool_unavailable=True)
            results = [
                solve_one_cluster(aug, cluster_votes, index, options_)
                for cluster_votes, index, options_ in payloads
            ]
        return sorted(results, key=lambda r: r.index)


def simulated_makespan(
    times: Sequence[float],
    num_workers: int,
    *,
    dispatch_overhead: float = 0.0,
) -> float:
    """Idealized parallel wall-clock under LPT list scheduling.

    Sorts the per-cluster times descending and repeatedly assigns the
    next job to the least-loaded worker; the makespan is the heaviest
    worker's load.  LPT is within 4/3 of optimal, which is accurate
    enough to model the paper's 4-machine deployment.

    Parameters
    ----------
    times:
        Measured sequential per-cluster solve times.
    num_workers:
        Number of machines.
    dispatch_overhead:
        Fixed per-cluster cost (serialization + network) added to each
        job before scheduling.
    """
    if num_workers < 1:
        raise ReproError(f"num_workers must be at least 1, got {num_workers}")
    if dispatch_overhead < 0:
        raise ReproError("dispatch_overhead must be non-negative")
    loads = [0.0] * num_workers
    heapq.heapify(loads)
    for duration in sorted((float(t) for t in times), reverse=True):
        lightest = heapq.heappop(loads)
        heapq.heappush(loads, lightest + duration + dispatch_overhead)
    return max(loads) if loads else 0.0
