"""The split-and-merge strategy (Section VI).

The multi-vote SGP's solver time grows steeply with the vote count
(more variables, more constraints) — SGP is NP-hard, so the paper
proposes a heuristic: *split* the vote set into clusters of votes whose
similarity evaluations touch overlapping edges (Eq. 20 similarity +
Affinity Propagation), solve one small multi-vote SGP per cluster
against the same base graph, and *merge* the per-cluster weight changes
with a vote-count-weighted voting rule.

This trades a little optimization quality (each cluster is blind to the
others' constraints) for a large speedup — the paper reports >6× at 70+
votes — and makes the clusters embarrassingly parallel.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.clustering.affinity_propagation import cluster_votes
from repro.clustering.similarity import vote_edge_sets, vote_similarity_matrix
from repro.graph.augmented import AugmentedGraph
from repro.obs import trace_span
from repro.optimize.apply import apply_edge_weights
from repro.optimize.encoder import DEFAULT_LOWER, DEFAULT_MARGIN, DEFAULT_UPPER
from repro.optimize.merge import merge_changes, merged_weights
from repro.optimize.objectives import DEFAULT_SIGMOID_W
from repro.optimize.parallel import (
    ClusterResult,
    simulated_makespan,
    solve_clusters_parallel,
    solve_one_cluster,
)
from repro.optimize.report import OptimizeReport, record_optimize_run
from repro.serving.params import SimilarityParams, resolve_similarity_params
from repro.votes.types import Vote, VoteSet


@dataclass
class SplitMergeReport(OptimizeReport):
    """Record of one split-and-merge run.

    Extends :class:`~repro.optimize.report.OptimizeReport` (``elapsed``,
    ``solve_time``, ``changed_edges``, ``summary()``) with the cluster
    structure and split/solve/merge stage timings.  The inherited
    ``solve_time`` equals ``solve_time_total`` (the sequential sum over
    clusters); ``solve_time_max`` is the parallel lower bound.
    """

    strategy = "split-merge"

    clusters: list[list[int]] = field(default_factory=list)
    cluster_results: list[ClusterResult] = field(default_factory=list)
    merged_deltas: dict = field(default_factory=dict)
    changed_edges: dict = field(default_factory=dict)
    split_time: float = 0.0
    solve_time_total: float = 0.0
    solve_time_max: float = 0.0
    merge_time: float = 0.0

    @property
    def num_clusters(self) -> int:
        """How many clusters the AP step produced."""
        return len(self.clusters)

    @property
    def average_cluster_size(self) -> float:
        """Mean votes per cluster (the paper reports ≈5)."""
        if not self.clusters:
            return 0.0
        return sum(len(c) for c in self.clusters) / len(self.clusters)

    def distributed_makespan(self, num_workers: int = 4,
                             dispatch_overhead: float = 0.0) -> float:
        """Idealized wall-clock on ``num_workers`` machines.

        Split and merge stay sequential; the cluster solves are
        scheduled by LPT.  This models the paper's "Distributed S-M
        Strategy" series.
        """
        return (
            self.split_time
            + self.merge_time
            + simulated_makespan(
                [r.elapsed for r in self.cluster_results],
                num_workers,
                dispatch_overhead=dispatch_overhead,
            )
        )

    def summary(self) -> str:
        base = super().summary()
        return (
            f"{base}; {self.num_clusters} cluster(s), "
            f"avg size {self.average_cluster_size:.1f}"
        )


def solve_split_merge(
    aug: AugmentedGraph,
    votes: "VoteSet | list[Vote]",
    *,
    preference: "float | str" = "median",
    damping: float = 0.7,
    num_workers: int = 1,
    lambda1: float = 0.5,
    lambda2: float = 0.5,
    sigmoid_w: float = DEFAULT_SIGMOID_W,
    feasibility_filter: bool = True,
    params: "SimilarityParams | None" = None,
    max_length: "int | None" = None,
    restart_prob: "float | None" = None,
    margin: float = DEFAULT_MARGIN,
    lower: float = DEFAULT_LOWER,
    upper: float = DEFAULT_UPPER,
    max_iter: int = 300,
    normalize: bool = False,
    in_place: bool = False,
) -> tuple[AugmentedGraph, SplitMergeReport]:
    """Run the split-and-merge multi-vote optimization.

    ``normalize`` defaults to off, matching the multi-vote solution it
    wraps (see :func:`repro.optimize.multi_vote.solve_multi_vote`).

    Parameters
    ----------
    preference, damping:
        Affinity Propagation parameters; the default ``"median"``
        preference is the paper's choice.
    num_workers:
        ``1`` solves clusters sequentially in-process; ``>1`` uses a
        process pool (the distributed deployment).
    params:
        Similarity parameters
        (:class:`~repro.serving.params.SimilarityParams`); the bare
        ``max_length``/``restart_prob`` keywords were removed and raise
        ``TypeError``.
    Remaining parameters as in
    :func:`repro.optimize.multi_vote.solve_multi_vote`, applied to every
    per-cluster solve.

    Returns
    -------
    (optimized graph, report)
    """
    params = resolve_similarity_params(
        params, max_length=max_length, restart_prob=restart_prob
    )
    with trace_span("optimize.split_merge") as span:
        result = aug if in_place else aug.copy()
        report = SplitMergeReport()
        start = time.perf_counter()
        vote_list = list(votes)
        if not vote_list:
            report.elapsed = time.perf_counter() - start
            span.set_attrs(num_votes=0)
            record_optimize_run(report)
            return result, report

        # --- split -------------------------------------------------------
        split_start = time.perf_counter()
        with trace_span("optimize.split", num_votes=len(vote_list)) as split_span:
            edge_sets = vote_edge_sets(
                result, vote_list, max_length=params.max_length
            )
            similarity = vote_similarity_matrix(edge_sets)
            clusters = cluster_votes(
                similarity, preference=preference, damping=damping
            )
            split_span.set_attrs(num_clusters=len(clusters))
        report.clusters = clusters
        report.split_time = time.perf_counter() - split_start

        # --- per-cluster solves -------------------------------------------
        options = dict(
            lambda1=lambda1,
            lambda2=lambda2,
            sigmoid_w=sigmoid_w,
            feasibility_filter=feasibility_filter,
            params=params,
            margin=margin,
            lower=lower,
            upper=upper,
            max_iter=max_iter,
            normalize=normalize,
        )
        cluster_vote_lists = [[vote_list[i] for i in cluster] for cluster in clusters]
        if num_workers > 1:
            results = solve_clusters_parallel(
                result, cluster_vote_lists, num_workers=num_workers, options=options
            )
        else:
            results = [
                solve_one_cluster(result, cluster, index, options)
                for index, cluster in enumerate(cluster_vote_lists)
            ]
        report.cluster_results = results
        report.solve_time_total = sum(r.elapsed for r in results)
        report.solve_time = report.solve_time_total
        report.solve_time_max = max((r.elapsed for r in results), default=0.0)

        # --- merge ---------------------------------------------------------
        merge_start = time.perf_counter()
        with trace_span("optimize.merge", num_clusters=len(results)) as merge_span:
            contributing = [
                (r.deltas, r.total_weight or r.num_votes) for r in results
            ]
            if any(deltas for deltas, _ in contributing):
                merged = merge_changes(contributing)
                base = {
                    edge: result.graph.weight(*edge) for edge in merged
                }
                new_weights = merged_weights(base, merged, lower=lower, upper=upper)
                report.merged_deltas = merged
                report.changed_edges, report.written_edges = apply_edge_weights(
                    result, new_weights, normalize=normalize
                )
            merge_span.set_attrs(changed_edges=len(report.changed_edges))
        report.merge_time = time.perf_counter() - merge_start
        report.elapsed = time.perf_counter() - start
        span.set_attrs(
            num_votes=len(vote_list),
            num_clusters=report.num_clusters,
            avg_cluster_size=report.average_cluster_size,
            changed_edges=len(report.changed_edges),
        )
        record_optimize_run(report)
        return result, report
