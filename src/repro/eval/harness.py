"""Experiment harness: evaluating a graph against votes and test sets."""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.errors import EvaluationError
from repro.eval.metrics import (
    average_rank,
    hits_at_k,
    mean_average_precision,
    mean_reciprocal_rank,
    omega_avg,
)
from repro.graph.augmented import AugmentedGraph
from repro.graph.digraph import Node
from repro.obs import observe
from repro.serving.params import SimilarityParams
from repro.similarity.backend import get_backend
from repro.similarity.top_k import rank_position, scores_to_ranked_list
from repro.votes.types import Vote, VoteSet


def _walk_params(params, max_length, restart_prob) -> SimilarityParams:
    """Accept either ``params`` or the bare pair (not deprecated here)."""
    if params is not None:
        if max_length is not None or restart_prob is not None:
            raise TypeError(
                "pass either params or max_length/restart_prob, not both"
            )
        return params
    changes = {}
    if max_length is not None:
        changes["max_length"] = max_length
    if restart_prob is not None:
        changes["restart_prob"] = restart_prob
    return SimilarityParams(**changes)


def rerank_vote(
    aug: AugmentedGraph,
    vote: Vote,
    *,
    max_length: "int | None" = None,
    restart_prob: "float | None" = None,
    params: "SimilarityParams | None" = None,
    engine=None,
) -> int:
    """The rank of a vote's best answer under the *current* graph.

    The re-ranking is computed over the vote's shown answer list (the
    same candidate set the user judged), matching Definition 3's
    ``rank'_t``.  With ``engine``
    (:class:`~repro.serving.engine.SimilarityEngine`), scores come from
    the cached incremental matrix instead of a cold rebuild.
    """
    params = _walk_params(params, max_length, restart_prob)
    if engine is not None:
        scores = engine.scores_for_query(
            vote.query, vote.ranked_answers, params=params
        )
    else:
        scores = get_backend(params.backend).scores(
            aug.graph, vote.query, vote.ranked_answers, params=params
        )
    ranked = scores_to_ranked_list(scores)
    return rank_position(ranked, vote.best_answer)


def vote_omega_avg(
    aug_after: AugmentedGraph,
    votes: "VoteSet | Sequence[Vote]",
    *,
    max_length: "int | None" = None,
    restart_prob: "float | None" = None,
    params: "SimilarityParams | None" = None,
    engine=None,
) -> float:
    """``Ω_avg`` of a vote set under the optimized graph (Eq. 21).

    ``rank_t`` comes from each vote's recorded shown list (the ranking
    at vote time); ``rank'_t`` is recomputed on ``aug_after``.
    """
    params = _walk_params(params, max_length, restart_prob)
    vote_list = list(votes)
    if not vote_list:
        raise EvaluationError("Ω_avg of zero votes is undefined")
    before = [v.best_rank for v in vote_list]
    after = [
        rerank_vote(aug_after, v, params=params, engine=engine)
        for v in vote_list
    ]
    return omega_avg(before, after)


@dataclass
class EvaluationResult:
    """Ranking-quality metrics of one graph on one test set."""

    ranks: list[int] = field(default_factory=list)
    r_avg: float = 0.0
    mrr: float = 0.0
    map_score: float = 0.0
    hits: dict[int, float] = field(default_factory=dict)

    def as_row(self, k_values: Sequence[int]) -> list[float]:
        """``[H@k...]`` row for the Table V renderer."""
        return [self.hits[k] for k in k_values]


def evaluate_test_set(
    aug: AugmentedGraph,
    test_pairs: Mapping[Node, Node],
    *,
    k_values: Sequence[int] = (1, 3, 5, 10),
    candidates: "Sequence[Node] | None" = None,
    max_length: "int | None" = None,
    restart_prob: "float | None" = None,
    params: "SimilarityParams | None" = None,
    engine=None,
) -> EvaluationResult:
    """Rank every test query and compute the paper's quality metrics.

    Parameters
    ----------
    aug:
        The graph under evaluation; the test queries must already be
        attached as query nodes.
    test_pairs:
        ``query node -> ground-truth best answer node`` (the expert
        question–document pairs of Section VII-A1).
    k_values:
        The H@k cutoffs (Table V uses 1, 3, 5, 10).
    candidates:
        The candidate answer pool; all answer nodes by default.
    params:
        Similarity parameters
        (:class:`~repro.serving.params.SimilarityParams`); the bare
        ``max_length``/``restart_prob`` keywords also still work.
    engine:
        Optional :class:`~repro.serving.engine.SimilarityEngine` bound to
        ``aug``; scoring then reuses its cached adjacency matrix.

    Returns
    -------
    EvaluationResult
        With ``R_avg``, MRR, MAP (single-relevant, so AP = 1/rank), and
        ``H@k`` for each requested ``k``.
    """
    params = _walk_params(params, max_length, restart_prob)
    if not test_pairs:
        raise EvaluationError("empty test set")
    pool = (
        list(candidates)
        if candidates is not None
        else sorted(aug.answer_nodes, key=repr)
    )
    for query, best in test_pairs.items():
        if best not in pool:
            raise EvaluationError(
                f"ground-truth answer {best!r} for query {query!r} is not a candidate"
            )
    with observe(
        "eval.test_set",
        num_queries=len(test_pairs),
        num_candidates=len(pool),
    ) as op:
        # One stacked propagation scores every test query at once.
        if engine is not None:
            all_scores = engine.score_batch(
                list(test_pairs), pool, params=params
            )
        else:
            all_scores = get_backend(params.backend).scores_batch(
                aug.graph, list(test_pairs), pool, params=params
            )
        ranks: list[int] = []
        ranked_lists: list[list[Node]] = []
        relevant_sets: list[set[Node]] = []
        for query, best in test_pairs.items():
            ranked = [
                answer
                for answer, _ in scores_to_ranked_list(all_scores[query])
            ]
            ranks.append(rank_position(ranked, best))
            ranked_lists.append(ranked)
            relevant_sets.append({best})
        result = EvaluationResult(
            ranks=ranks,
            r_avg=average_rank(ranks),
            mrr=mean_reciprocal_rank(ranks),
            map_score=mean_average_precision(ranked_lists, relevant_sets),
            hits={k: hits_at_k(ranks, k) for k in k_values},
        )
        op.set(r_avg=round(result.r_avg, 4), mrr=round(result.mrr, 4))
    return result
