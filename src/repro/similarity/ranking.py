"""The one ranking rule behind every top-k answer list.

Definition 1 ranks answers by descending similarity.  Exact ties are
common on synthetic graphs, where several answers can be exactly
symmetric, so they are broken by the answers' ``repr``, which is stable
across runs and platforms.  :func:`rank_vector` applies the rule to a
list of scores; the engine's ``top_k``,
:func:`~repro.similarity.top_k.rank_answers` and
:func:`~repro.similarity.top_k.scores_to_ranked_list` all rank through
it.  It imports nothing from the similarity or serving packages, so
:mod:`repro.serving.engine` can import it although
:mod:`repro.similarity.top_k` imports the serving package.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.graph.digraph import Node


def repr_order(nodes: Iterable[Node]) -> list[Node]:
    """``nodes`` without repeats (first occurrence kept), sorted by ``repr``.

    The sort is stable, so distinct nodes with equal ``repr`` keep their
    first-occurrence order.
    """
    return sorted(dict.fromkeys(nodes), key=repr)


def rank_vector(
    targets: Sequence[Node], scores: Sequence[float], k: int
) -> list[tuple[Node, float]]:
    """The top ``k`` ``(target, score)`` pairs, best first.

    ``targets`` must be distinct and in ``repr`` order (see
    :func:`repr_order`), with ``scores[i]`` the score of ``targets[i]``.
    The tie rule: descending score, exact ties (``0.0`` and ``-0.0``
    included) in ``repr`` order of the target, and distinct targets with
    equal ``repr`` in ``targets`` order.  One stable sort of the
    positions by descending score keeps ``targets`` order among equal
    scores, which is exactly that rule.  The sort is Python's, not
    ``np.argsort``: numpy's sort releases the GIL, and a writer thread
    waiting for it (the optimizer worker) can then hold up the ask for
    a whole switch interval.  Scores are finite by contract
    (:func:`~repro.devtools.contracts.check_finite_csr_data` guards the
    weights they come from), so NaN has no place in the order.
    """
    order = sorted(range(len(scores)), key=scores.__getitem__, reverse=True)
    return [(targets[i], scores[i]) for i in order[:k]]
