"""Differential test: a driver's written set covers every weight it moved.

An in-place run hands ``report.written_edges`` to a serving engine as
its patch, and the optimizer worker publishes each batch from exactly
that set, so an edge the set misses would leave the engine (or the live
graph) stale.  The reference is the simplest one possible: every
knowledge-graph weight before and after the run, compared bitwise.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import AugmentedGraph, random_digraph
from repro.optimize import solve_multi_vote, solve_single_votes
from repro.optimize.split_merge import solve_split_merge
from repro.serving import SimilarityParams
from repro.similarity import rank_answers
from repro.votes import Vote

DRIVERS = {
    "single": solve_single_votes,
    "multi": solve_multi_vote,
    "split-merge": solve_split_merge,
}


def kg_weights(aug):
    return {edge.key: edge.weight for edge in aug.kg_edges()}


def moved_and_written(driver, aug, votes, **options):
    """The edges whose weight changed bitwise, and the reported set."""
    before = kg_weights(aug)
    _, report = DRIVERS[driver](aug, votes, in_place=True, **options)
    moved = {key for key, weight in kg_weights(aug).items() if weight != before[key]}
    return moved, report.written_edges


def vote_against_top(aug, query, k):
    """A negative vote: the last-ranked answer shown for ``query`` is best."""
    ranked = [a for a, _ in rank_answers(aug, query, params=SimilarityParams(k=k))]
    return Vote(query, tuple(ranked), ranked[-1])


def fig1_votes(aug):
    """A rival answer that outranks ``a3``, and a vote for ``a3``."""
    aug.add_answer("a1", {"Email": 1})
    return [vote_against_top(aug, "q", 2)]


class TestFig1:
    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    @pytest.mark.parametrize("normalize", [False, True])
    def test_written_covers_moved(self, fig1_aug, driver, normalize):
        votes = fig1_votes(fig1_aug)
        moved, written = moved_and_written(
            driver, fig1_aug, votes, normalize=normalize
        )
        assert moved, "the vote must move some weight for the test to bite"
        assert moved <= written

    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    def test_normalization_drift_is_written(self, fig1_kg, driver):
        # No walk from q to an answer uses the dead-end Email -> Spam
        # edge, so no solver variable names it, but NormalizeEdges
        # rescales it with the rest of Email's out-row.
        fig1_kg.add_edge("Email", "Spam", 0.1)
        aug = AugmentedGraph(fig1_kg)
        aug.add_query("q", {"Outbox": 1, "Email": 1})
        aug.add_answer("a3", {"Outlook": 1})
        votes = fig1_votes(aug)
        moved, written = moved_and_written(driver, aug, votes, normalize=True)
        assert ("Email", "Spam") in moved
        assert moved <= written


def random_workload(seed, *, n=10, num_answers=4, num_queries=3):
    rng = np.random.default_rng(seed)
    kg = random_digraph(n, 2.5, seed=seed, out_mass=0.9)
    aug = AugmentedGraph(kg)
    labels = sorted(kg.nodes())
    for a in range(num_answers):
        picks = rng.choice(len(labels), size=2, replace=False)
        aug.add_answer(f"ans{a}", {labels[int(i)]: 1 for i in picks})
    votes = []
    for q in range(num_queries):
        picks = rng.choice(len(labels), size=2, replace=False)
        aug.add_query(f"qry{q}", {labels[int(i)]: 1 for i in picks})
        ranked = rank_answers(
            aug, f"qry{q}", params=SimilarityParams(k=num_answers)
        )
        if len(ranked) >= 2:
            answers = tuple(a for a, _ in ranked)
            best = answers[int(rng.integers(0, len(answers)))]
            votes.append(Vote(f"qry{q}", answers, best))
    return aug, votes


class TestRandomGraphs:
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        driver=st.sampled_from(sorted(DRIVERS)),
        normalize=st.booleans(),
    )
    @settings(max_examples=15, deadline=None)
    def test_written_covers_moved(self, seed, driver, normalize):
        aug, votes = random_workload(seed)
        moved, written = moved_and_written(
            driver, aug, votes, normalize=normalize, max_iter=50
        )
        assert moved <= written
