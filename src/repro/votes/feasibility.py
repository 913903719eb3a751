"""The extreme-condition feasibility judgment (Section V).

Some user votes are plain wrong: no assignment of edge weights can make
the voted answer beat the answers above it (for example, the voted
answer is unreachable from the query within the path budget).  Encoding
such a vote into the SGP poisons the program, so the multi-vote solution
filters first.

The paper's judgment: let ``rank`` be the position of the voted-best
answer ``v_a*`` and consider the answer directly above it,
``v_a_{rank-1}``.  Collect ``Set(v_a*)`` and ``Set(v_a_{rank-1})`` — the
edges on ≤ L walks from the query to each — and evaluate both
similarities under the most favourable weights:

- edges in both sets: a constant in ``(0, 1)``;
- edges only in ``Set(v_a*)``: weight 1 (maximally helpful);
- edges only in ``Set(v_a_{rank-1})``: weight 0 (removed).

If even then ``S(v_q, v_a*) ≤ S(v_q, v_a_{rank-1})``, the vote is
unsatisfiable and discarded.

One refinement over the paper's sketch: only *adjustable* edges
(entity→entity) are pushed to their extremes — query and answer links
are text-derived constants the optimizer cannot touch, so treating them
as free would accept votes the SGP still cannot satisfy.
"""

from __future__ import annotations

from repro.obs import get_registry
from repro.graph.augmented import AugmentedGraph
from repro.paths.edgesets import reachable_edge_set
from repro.serving.params import SimilarityParams
from repro.similarity.backend import get_backend
from repro.similarity.inverse_pdistance import (
    DEFAULT_MAX_LENGTH,
    DEFAULT_RESTART_PROB,
)
from repro.utils.validation import check_fraction
from repro.votes.types import Vote, VoteSet


def is_vote_feasible(
    aug: AugmentedGraph,
    vote: Vote,
    *,
    max_length: int = DEFAULT_MAX_LENGTH,
    restart_prob: float = DEFAULT_RESTART_PROB,
    shared_weight: float = 0.5,
) -> bool:
    """Whether ``vote`` passes the extreme-condition judgment.

    Positive votes are always feasible (their best answer already ranks
    first, so the identity assignment satisfies them).  For a negative
    vote, the check asks whether the best answer can beat the answer
    *directly above it* under the extreme assignment — a necessary
    condition for it to beat everything above.

    Parameters
    ----------
    shared_weight:
        The constant assigned to edges shared by both path sets (the
        paper requires any value strictly between 0 and 1).
    """
    check_fraction("shared_weight", shared_weight)
    if vote.is_positive:
        return True

    graph = aug.graph
    rank = vote.best_rank
    rival = vote.ranked_answers[rank - 2]  # the answer directly above
    best_set = reachable_edge_set(graph, vote.query, vote.best_answer, max_length)
    rival_set = reachable_edge_set(graph, vote.query, rival, max_length)
    if not best_set:
        return False  # the voted answer is unreachable within the budget

    extreme = graph.copy()
    for head, tail in best_set | rival_set:
        if not aug.is_kg_edge(head, tail):
            continue  # links are constants the optimizer cannot move
        in_best = (head, tail) in best_set
        in_rival = (head, tail) in rival_set
        if in_best and in_rival:
            extreme.set_weight(head, tail, shared_weight)
        elif in_best:
            extreme.set_weight(head, tail, 1.0)
        else:
            extreme.remove_edge(head, tail)  # weight 0 == edge absent

    params = SimilarityParams(
        max_length=max_length, restart_prob=restart_prob
    )
    scores = get_backend(params.backend).scores(
        extreme, vote.query, [vote.best_answer, rival], params=params
    )
    return scores[vote.best_answer] > scores[rival]


def filter_feasible(
    aug: AugmentedGraph,
    votes: VoteSet,
    *,
    max_length: int = DEFAULT_MAX_LENGTH,
    restart_prob: float = DEFAULT_RESTART_PROB,
    shared_weight: float = 0.5,
) -> tuple[VoteSet, list[Vote]]:
    """Split ``votes`` into (feasible, discarded) by the judgment.

    Returns the kept :class:`VoteSet` (order preserved) and the list of
    discarded votes, so the caller can report how much user feedback was
    rejected as erroneous.
    """
    kept = VoteSet()
    discarded: list[Vote] = []
    for vote in votes:
        if is_vote_feasible(
            aug,
            vote,
            max_length=max_length,
            restart_prob=restart_prob,
            shared_weight=shared_weight,
        ):
            kept.add(vote)
        else:
            discarded.append(vote)
    registry = get_registry()
    registry.counter("votes_feasible_total").inc(len(kept))
    registry.counter("votes_infeasible_total").inc(len(discarded))
    return kept, discarded
