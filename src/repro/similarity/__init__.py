"""Similarity measures between nodes of the (augmented) knowledge graph.

Four evaluators, all measuring the paper's query–answer similarity
``S(v_q, v_a) = π_{v_q}(v_a)`` (Definition 1):

- :mod:`repro.similarity.ppr` — exact Personalized PageRank by power
  iteration or sparse linear solve (the reference implementation);
- :mod:`repro.similarity.inverse_pdistance` — the paper's extended
  inverse P-distance, truncated at walk length ``L`` (Section IV-A); a
  dynamic program equivalent to summing Eq. 7 over all ≤ L walks;
- :mod:`repro.similarity.random_walk` — the per-answer linear-equation
  baseline of [5] used in Table VI, plus a Monte-Carlo simulator;
- :mod:`repro.similarity.push` — a sparse local-push evaluator of the
  same truncated sum, touching only edges near the query, with a
  derived error budget;
- :mod:`repro.similarity.top_k` — ranked top-k answer lists, all
  ranked by :func:`repro.similarity.ranking.rank_vector` with its
  deterministic tie rule.

The paper's similarity is served by one of two kernels,
:class:`~repro.similarity.backend.DenseBackend` (``"dense"``) and
:class:`~repro.similarity.backend.PushBackend` (``"push"``):
:func:`~repro.similarity.backend.get_backend` returns the one
:attr:`repro.serving.params.SimilarityParams.backend` names.
"""

from repro.similarity.ppr import ppr_scores, ppr_vector
from repro.similarity.inverse_pdistance import (
    inverse_pdistance,
    inverse_pdistance_batch,
    inverse_pdistance_single,
    similarity_profile,
)
from repro.similarity.random_walk import (
    monte_carlo_similarity,
    random_walk_similarity,
)
from repro.similarity.push import (
    DEFAULT_PUSH_TOLERANCE,
    PropagationResult,
    push_propagate,
)
from repro.similarity.backend import get_backend
from repro.similarity.simrank import simrank, simrank_matrix
from repro.similarity.top_k import rank_answers, rank_position

__all__ = [
    "ppr_vector",
    "ppr_scores",
    "inverse_pdistance",
    "inverse_pdistance_batch",
    "inverse_pdistance_single",
    "similarity_profile",
    "random_walk_similarity",
    "monte_carlo_similarity",
    "DEFAULT_PUSH_TOLERANCE",
    "PropagationResult",
    "push_propagate",
    "get_backend",
    "simrank",
    "simrank_matrix",
    "rank_answers",
    "rank_position",
]
