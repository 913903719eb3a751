"""Ranked top-k answer lists.

Given a query node, the Q&A framework returns the top-k answers ordered
by similarity (Definition 1).  Every list is ranked by
:func:`repro.similarity.ranking.rank_vector`, which states the tie rule:
descending score, exact ties in ``repr`` order of the answer id.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from repro.errors import EvaluationError
from repro.graph.augmented import AugmentedGraph
from repro.graph.digraph import Node
from repro.serving.params import SimilarityParams
from repro.similarity.backend import get_backend
from repro.similarity.ranking import rank_vector, repr_order


def rank_answers(
    aug: AugmentedGraph,
    query: Node,
    *,
    params: "SimilarityParams | None" = None,
    answers: "Iterable[Node] | None" = None,
    engine=None,
) -> list[tuple[Node, float]]:
    """Return the top-k ``(answer, similarity)`` pairs for ``query``.

    Parameters
    ----------
    aug:
        The augmented graph.
    query:
        A query node of ``aug``.
    params:
        The :class:`~repro.serving.params.SimilarityParams` bundle
        (``k``, ``max_length``, ``restart_prob``); the paper defaults
        when omitted.
    answers:
        Candidate answers (repeats ignored); defaults to every answer
        node in the graph.
    engine:
        Optional :class:`~repro.serving.engine.SimilarityEngine`.  When
        given, the engine's ``top_k`` ranks the query on its served
        epoch, from its cached/incremental matrix instead of a cold
        per-call adjacency rebuild; results are bitwise identical for
        the dense backend.  Without ``answers`` the candidates are the
        epoch's answers, so an answer attached by a publish still in
        flight is not ranked yet.

    Notes
    -----
    The order is :func:`~repro.similarity.ranking.rank_vector`'s.
    Raises :class:`EvaluationError` when there is no candidate to rank.
    """
    if params is None:
        params = SimilarityParams()
    if not aug.is_query(query):
        raise EvaluationError(f"{query!r} is not a query node of the augmented graph")
    if answers is not None:
        candidates: "list[Node] | None" = repr_order(answers)
        # Entities and queries score plausibly under inverse P-distance
        # and would silently pollute the top-k, so reject them here.
        for candidate in candidates:
            if not aug.is_answer(candidate):
                raise EvaluationError(
                    f"candidate {candidate!r} is not an answer node of the "
                    f"augmented graph"
                )
    elif engine is None:
        candidates = sorted(aug.answer_nodes, key=repr)
    else:
        candidates = None  # the served epoch's answers
    if candidates == []:
        raise EvaluationError("no candidate answers to rank")
    if engine is not None:
        ranked = engine.top_k(query, targets=candidates, params=params)
    else:
        scores = get_backend(params.backend).scores(
            aug.graph, query, candidates, params=params
        )
        ranked = scores_to_ranked_list(scores)[: params.k]
    if not ranked:
        raise EvaluationError("no candidate answers to rank")
    return ranked


def rank_position(
    ranked: Sequence[tuple[Node, float]] | Sequence[Node],
    answer: Node,
) -> int:
    """1-based position of ``answer`` in a ranked list.

    Accepts either ``(answer, score)`` pairs (as returned by
    :func:`rank_answers`) or a bare answer sequence.  Raises
    :class:`EvaluationError` when the answer is absent, because a silent
    sentinel would corrupt the rank-difference metric Ω (Definition 3).
    """
    for position, item in enumerate(ranked, start=1):
        candidate = item[0] if isinstance(item, tuple) else item
        if candidate == answer:
            return position
    raise EvaluationError(f"answer {answer!r} is not in the ranked list")


def scores_to_ranked_list(scores: Mapping[Node, float]) -> list[tuple[Node, float]]:
    """Every ``(answer, score)`` of ``scores``, in
    :func:`~repro.similarity.ranking.rank_vector`'s order."""
    targets = sorted(scores, key=repr)
    return rank_vector(targets, [scores[t] for t in targets], len(targets))
