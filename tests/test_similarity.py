"""Unit + property tests for the similarity evaluators.

The central claims verified here:

- Theorem 1: the extended inverse P-distance converges to the PPR score
  as the pruning threshold L grows;
- the DP evaluator agrees with explicit walk enumeration;
- the Monte-Carlo simulator agrees with the exact evaluators within
  sampling error;
- the random-walk baseline produces the same scores as PPR (it is the
  same quantity, computed answer-by-answer).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConvergenceError, EvaluationError, NodeNotFoundError
from repro.graph import AugmentedGraph, WeightedDiGraph, random_digraph
from repro.paths import enumerate_walks, walk_probability
from repro.serving import SimilarityParams
from repro.similarity import (
    inverse_pdistance,
    inverse_pdistance_single,
    monte_carlo_similarity,
    ppr_scores,
    ppr_vector,
    random_walk_similarity,
    rank_answers,
    rank_position,
    similarity_profile,
)
from repro.similarity.ranking import rank_vector, repr_order
from repro.similarity.top_k import scores_to_ranked_list


def small_augmented(seed=3, n=12):
    kg = random_digraph(n, 2.0, seed=seed, out_mass=0.85)
    aug = AugmentedGraph(kg)
    labels = list(kg.nodes())
    aug.add_query("q", {labels[0]: 1, labels[1]: 1})
    aug.add_answer("a1", {labels[2]: 1})
    aug.add_answer("a2", {labels[3]: 2, labels[4]: 1})
    return aug


class TestPPR:
    def test_power_and_solve_agree(self):
        aug = small_augmented()
        by_power = ppr_vector(aug.graph, "q", method="power")
        by_solve = ppr_vector(aug.graph, "q", method="solve")
        for node in by_power:
            assert by_power[node] == pytest.approx(by_solve[node], abs=1e-9)

    def test_fixed_point_equation_holds(self):
        aug = small_augmented()
        c = 0.15
        pi = ppr_vector(aug.graph, "q", restart_prob=c, method="solve")
        graph = aug.graph
        for node in graph.nodes():
            incoming = sum(
                weight * pi[head] for head, weight in graph.predecessors(node).items()
            )
            restart = c if node == "q" else 0.0
            assert pi[node] == pytest.approx((1 - c) * incoming + restart, abs=1e-9)

    def test_mass_bounded_by_one(self):
        aug = small_augmented()
        pi = ppr_vector(aug.graph, "q")
        assert all(score >= 0 for score in pi.values())
        assert sum(pi.values()) <= 1.0 + 1e-9

    def test_query_gets_restart_mass(self):
        aug = small_augmented()
        pi = ppr_vector(aug.graph, "q", restart_prob=0.15)
        assert pi["q"] >= 0.15

    def test_scores_projection(self):
        aug = small_augmented()
        scores = ppr_scores(aug.graph, "q", ["a1", "a2"])
        full = ppr_vector(aug.graph, "q")
        assert scores == {"a1": full["a1"], "a2": full["a2"]}

    def test_missing_nodes_raise(self):
        aug = small_augmented()
        with pytest.raises(NodeNotFoundError):
            ppr_vector(aug.graph, "ghost")
        with pytest.raises(NodeNotFoundError):
            ppr_scores(aug.graph, "q", ["ghost"])

    def test_unknown_method(self):
        aug = small_augmented()
        with pytest.raises(ValueError):
            ppr_vector(aug.graph, "q", method="magic")

    def test_divergence_detected(self):
        # A 2-cycle with weight 2 edges blows up under power iteration.
        graph = WeightedDiGraph(strict=False)
        graph.add_edge("a", "b", 2.0)
        graph.add_edge("b", "a", 2.0)
        with pytest.raises(ConvergenceError):
            ppr_vector(graph, "a", method="power", max_iter=500)

    def test_bad_restart_prob(self):
        aug = small_augmented()
        with pytest.raises(ValueError):
            ppr_vector(aug.graph, "q", restart_prob=1.0)


class TestInversePDistance:
    def test_matches_enumeration(self, fig1_aug, fig1_expected_a3):
        value = inverse_pdistance_single(fig1_aug.graph, "q", "a3", max_length=5)
        assert value == pytest.approx(fig1_expected_a3)

    def test_unreachable_scores_zero(self, fig1_aug):
        fig1_aug.graph.add_node("island")
        scores = inverse_pdistance(fig1_aug.graph, "q", ["island"])
        assert scores["island"] == 0.0

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        length=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=15, deadline=None)
    def test_property_dp_equals_walk_sum(self, seed, length):
        """The DP equals the explicit truncated walk sum of Eq. 7."""
        graph = random_digraph(9, 2.0, seed=seed, out_mass=0.9)
        graph.strict = False
        nodes = list(graph.nodes())
        source, target = nodes[0], nodes[-1]
        c = 0.15
        walks = enumerate_walks(graph, source, target, length)[target]
        expected = sum(
            walk_probability(graph, walk) * c * (1 - c) ** (len(walk) - 1)
            for walk in walks
        )
        value = inverse_pdistance_single(
            graph, source, target, max_length=length
        )
        assert value == pytest.approx(expected, rel=1e-10, abs=1e-15)

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=10, deadline=None)
    def test_property_theorem1_convergence(self, seed):
        """Φ_L -> π as L grows (Theorem 1), monotonically from below."""
        graph = random_digraph(10, 2.0, seed=seed, out_mass=0.9)
        nodes = list(graph.nodes())
        source, target = nodes[0], nodes[-1]
        exact = ppr_vector(graph, source, method="solve")[target]
        previous = -1.0
        for length in (2, 4, 8, 16, 64):
            value = inverse_pdistance_single(
                graph, source, target, max_length=length
            )
            assert value >= previous - 1e-15  # monotone non-decreasing
            previous = value
        assert previous == pytest.approx(exact, abs=1e-6)

    def test_profile_matches_individual_lengths(self, fig1_aug):
        profile = similarity_profile(fig1_aug.graph, "q", ["a3"], lengths=[2, 4, 5])
        for length, snapshot in profile.items():
            direct = inverse_pdistance(
                fig1_aug.graph, "q", ["a3"], max_length=length
            )
            assert snapshot["a3"] == pytest.approx(direct["a3"])

    def test_profile_bad_lengths(self, fig1_aug):
        with pytest.raises(ValueError):
            similarity_profile(fig1_aug.graph, "q", ["a3"], lengths=[0, 2])


class TestRandomWalkBaseline:
    def test_equals_ppr(self):
        aug = small_augmented()
        baseline = random_walk_similarity(aug.graph, "q", ["a1", "a2"])
        reference = ppr_scores(aug.graph, "q", ["a1", "a2"], method="solve")
        for answer in baseline:
            assert baseline[answer] == pytest.approx(reference[answer], abs=1e-9)

    def test_monte_carlo_agrees_with_exact(self):
        # MC sampling needs a sub-stochastic graph, so use the bare KG
        # (out-mass 0.85) rather than an augmented graph with unit links.
        graph = random_digraph(12, 2.0, seed=3, out_mass=0.85)
        nodes = list(graph.nodes())
        source, targets = nodes[0], [nodes[5], nodes[7]]
        exact = ppr_scores(graph, source, targets, method="solve")
        estimate = monte_carlo_similarity(
            graph, source, targets, num_walks=30_000, seed=7
        )
        for answer in exact:
            assert estimate[answer] == pytest.approx(exact[answer], abs=0.01)

    def test_monte_carlo_rejects_super_stochastic_graph(self):
        from repro.errors import SimilarityError

        aug = small_augmented()  # unit answer links => super-stochastic
        with pytest.raises(SimilarityError):
            monte_carlo_similarity(aug.graph, "q", ["a1"], num_walks=10)

    def test_monte_carlo_deterministic_with_seed(self):
        graph = random_digraph(12, 2.0, seed=3, out_mass=0.85)
        nodes = list(graph.nodes())
        e1 = monte_carlo_similarity(graph, nodes[0], [nodes[5]], num_walks=500, seed=1)
        e2 = monte_carlo_similarity(graph, nodes[0], [nodes[5]], num_walks=500, seed=1)
        assert e1 == e2

    def test_monte_carlo_bad_args(self):
        graph = random_digraph(5, 2.0, seed=3, out_mass=0.85)
        nodes = list(graph.nodes())
        with pytest.raises(ValueError):
            monte_carlo_similarity(graph, nodes[0], [nodes[1]], num_walks=0)


class TestTopK:
    def test_rank_answers_sorted_desc(self):
        aug = small_augmented()
        ranked = rank_answers(aug, "q", params=SimilarityParams(k=2))
        assert len(ranked) == 2
        assert ranked[0][1] >= ranked[1][1]

    def test_rank_answers_respects_k(self):
        aug = small_augmented()
        assert len(rank_answers(aug, "q", params=SimilarityParams(k=1))) == 1

    def test_rank_answers_non_query_rejected(self):
        aug = small_augmented()
        with pytest.raises(EvaluationError):
            rank_answers(aug, "a1")

    def test_rank_answers_bad_k(self):
        aug = small_augmented()
        with pytest.raises(ValueError):
            rank_answers(aug, "q", params=SimilarityParams(k=0))

    def test_rank_answers_explicit_answer_subset_ok(self):
        aug = small_augmented()
        ranked = rank_answers(aug, "q", params=SimilarityParams(k=5), answers=["a2"])
        assert [answer for answer, _ in ranked] == ["a2"]

    def test_rank_answers_rejects_entity_candidate(self):
        # Regression: entities score plausibly under inverse P-distance,
        # so an entity smuggled in via answers= used to pollute the
        # top-k silently.
        aug = small_augmented()
        entity = sorted(aug.entity_nodes)[0]
        with pytest.raises(EvaluationError, match=repr(entity)):
            rank_answers(aug, "q", params=SimilarityParams(k=5), answers=["a1", entity])

    def test_rank_answers_rejects_query_candidate(self):
        aug = small_augmented()
        with pytest.raises(EvaluationError, match="'q'"):
            rank_answers(aug, "q", params=SimilarityParams(k=5), answers=["q", "a1"])

    def test_rank_position(self):
        ranked = [("a", 0.9), ("b", 0.5), ("c", 0.1)]
        assert rank_position(ranked, "a") == 1
        assert rank_position(ranked, "c") == 3
        assert rank_position(["a", "b"], "b") == 2

    def test_rank_position_missing_raises(self):
        with pytest.raises(EvaluationError):
            rank_position([("a", 0.9)], "zzz")

    def test_deterministic_tie_break(self):
        ranked = scores_to_ranked_list({"b": 0.5, "a": 0.5, "c": 0.5})
        assert [answer for answer, _ in ranked] == ["a", "b", "c"]


#: Few distinct scores, so most draws tie; ``0.0`` and ``-0.0`` compare
#: equal and must tie too.
TIE_SCORES = (0.0, -0.0, 0.25, 0.5, 0.5 + 2**-53, 1.0)
#: Node ids whose ``repr`` order differs from their natural order
#: (``10`` before ``9``; ``1`` before ``"1"``).
NODE_IDS = st.one_of(st.integers(-2, 12), st.sampled_from(["1", "10", "9", "a", "B"]))


def reference_ranking(pairs, k):
    return sorted(pairs, key=lambda p: (-p[1], repr(p[0])))[:k]


def exact(ranked):
    return [(type(node), node, float(score).hex()) for node, score in ranked]


class TestRankVector:
    @settings(max_examples=300, deadline=None)
    @given(nodes=st.lists(NODE_IDS, unique=True, max_size=14), data=st.data())
    def test_matches_reference_sort(self, nodes, data):
        scores = data.draw(
            st.lists(
                st.sampled_from(TIE_SCORES), min_size=len(nodes), max_size=len(nodes)
            )
        )
        k = data.draw(st.integers(1, len(nodes) + 2))
        pairs = list(zip(nodes, scores))
        expected = exact(reference_ranking(pairs, k))
        by_node = dict(pairs)
        targets = repr_order(nodes + nodes[:3])  # repeats are dropped
        in_order = [by_node[node] for node in targets]
        assert exact(rank_vector(targets, in_order, k)) == expected
        assert exact(scores_to_ranked_list(by_node)[:k]) == expected
