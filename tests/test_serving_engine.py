"""Tests for the versioned similarity serving subsystem.

The load-bearing property: scores served by :class:`SimilarityEngine`
from its incrementally maintained matrix are **bitwise** equal to a cold
:func:`inverse_pdistance` recompute on the live graph, no matter how
weight updates, query attach/detach, and document additions interleave.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EvaluationError, NodeNotFoundError
from repro.graph.augmented import AugmentedGraph
from repro.graph.generators import random_digraph
from repro.optimize.multi_vote import MultiVoteReport
from repro.optimize.parallel import _init_pool, _pool_worker
from repro.optimize.report import OptimizeReport
from repro.optimize.single_vote import SingleVoteReport, VoteOutcome
from repro.optimize.split_merge import SplitMergeReport
from repro.serving import Patch, SimilarityEngine, SimilarityParams
from repro.similarity.inverse_pdistance import (
    inverse_pdistance,
    inverse_pdistance_batch,
)
from repro.similarity.top_k import rank_answers
from tests.engine_series import engine_series

PARAMS = SimilarityParams(k=5, max_length=6, restart_prob=0.2)


def build_aug(seed=3, num_entities=12):
    kg = random_digraph(num_entities, avg_degree=3.0, seed=seed, out_mass=0.9)
    aug = AugmentedGraph(kg)
    entities = sorted(kg.nodes())
    for i in range(4):
        aug.add_answer(
            f"a{i}",
            {
                entities[(i + j) % len(entities)]: 1.0 + j
                for j in range(3)
            },
        )
    for i in range(3):
        aug.add_query(
            f"q{i}",
            {
                entities[i]: 1.0,
                entities[(i + 5) % len(entities)]: 2.0,
            },
        )
    return aug, entities


def bits(ranked):
    """A ranked list with each score as its exact bit pattern."""
    return [(answer, float(score).hex()) for answer, score in ranked]


def assert_engine_matches_cold(engine, aug, params=PARAMS):
    """Every attached query: engine == cold recompute, batch == single,
    and every ranked list == the cold ranked list."""
    targets = sorted(aug.answer_nodes, key=repr)
    queries = sorted(aug.query_nodes, key=repr)
    if not targets or not queries:
        return
    batch = engine.score_batch(queries, targets, params=params)
    every = params.replace(k=len(targets))
    for query in queries:
        served = engine.scores_for_query(query, targets, params=params)
        default = engine.scores_for_query(query, params=params)
        cold = inverse_pdistance(aug.graph, query, targets, params=params)
        assert list(default) == targets  # every answer, in repr order
        for target in targets:
            assert served[target] == cold[target]  # bitwise, not approx
            assert batch[query][target] == cold[target]
            assert default[target] == cold[target]
        ranked = bits(rank_answers(aug, query, params=every))
        assert ranked == bits(
            sorted(cold.items(), key=lambda item: (-item[1], repr(item[0])))
        )
        assert bits(engine.top_k(query, k=len(targets), params=params)) == ranked
        # Explicit targets, unsorted and repeated: ranked the same.
        shuffled = targets[::-1] + targets[:2]
        assert (
            bits(engine.top_k(query, k=len(targets), targets=shuffled, params=params))
            == ranked
        )
        assert (
            bits(rank_answers(aug, query, params=params, engine=engine))
            == ranked[: params.k]
        )


class TestSimilarityParams:
    def test_defaults_and_replace(self):
        params = SimilarityParams()
        assert params.k >= 1
        tweaked = params.replace(k=3)
        assert tweaked.k == 3
        assert tweaked.max_length == params.max_length

    @pytest.mark.parametrize(
        "kwargs",
        [dict(k=0), dict(max_length=0), dict(restart_prob=0.0),
         dict(restart_prob=1.5)],
    )
    def test_validation(self, kwargs):
        with pytest.raises((ValueError, Exception)):
            SimilarityParams(**kwargs)


class TestEngineBitwise:
    def test_fresh_engine_matches_cold(self):
        aug, _ = build_aug()
        engine = SimilarityEngine(aug, params=PARAMS)
        assert_engine_matches_cold(engine, aug)

    def test_batch_matches_cold_batch(self):
        aug, _ = build_aug()
        engine = SimilarityEngine(aug, params=PARAMS)
        targets = sorted(aug.answer_nodes, key=repr)
        queries = sorted(aug.query_nodes, key=repr)
        served = engine.score_batch(queries, targets, params=PARAMS)
        cold = inverse_pdistance_batch(
            aug.graph, queries, targets, params=PARAMS
        )
        for query in queries:
            for target in targets:
                assert served[query][target] == cold[query][target]

    def test_weight_patch_matches_cold(self, forced_delta_fallback):
        # The forced density fallback pins the cold-invalidation path:
        # this test asserts *bitwise* equality after patches, which only
        # the full-repropagation path guarantees (the delta path is
        # tolerance-equal and covered in test_serving_delta.py).
        aug, _ = build_aug()
        engine = SimilarityEngine(aug, params=PARAMS)
        assert_engine_matches_cold(engine, aug)
        edges = sorted(
            ((e.head, e.tail) for e in aug.kg_edges()), key=repr
        )

        def reweight():
            for i, (head, tail) in enumerate(edges[:10]):
                aug.set_kg_weight(head, tail, 0.05 + 0.01 * i)
            return Patch(edges=edges[:10])

        engine.publish(reweight)
        assert_engine_matches_cold(engine, aug)
        stats = engine_series(engine)
        assert stats["engine_weight_patches_total"] == 10
        assert stats["engine_builds_total"] == 1  # no rebuild for weight updates

    def test_answer_append_matches_cold(self):
        aug, entities = build_aug()
        engine = SimilarityEngine(aug, params=PARAMS)
        assert_engine_matches_cold(engine, aug)
        # Sorts before every existing answer, so the appended default
        # target list must be re-sorted, not extended.

        def attach():
            aug.add_answer("_a_new", {entities[0]: 2.0, entities[4]: 1.0})
            return Patch(answers=["_a_new"])

        engine.publish(attach)
        assert_engine_matches_cold(engine, aug)
        stats = engine_series(engine)
        assert stats["engine_rows_appended_total"] == 1
        assert stats["engine_builds_total"] == 1  # appended, not rebuilt

    def test_query_churn_is_free(self):
        aug, entities = build_aug()
        engine = SimilarityEngine(aug, params=PARAMS)
        assert_engine_matches_cold(engine, aug)
        engine.scores_for_query("q1")
        hits_before = engine_series(engine)["engine_cache_hits_total"]
        aug.add_query("q_new", {entities[2]: 1.0})
        aug.remove_query("q0")
        # The matrix is untouched, so the cached vector is still valid.
        engine.scores_for_query("q1")
        assert engine_series(engine)["engine_cache_hits_total"] == hits_before + 1
        assert_engine_matches_cold(engine, aug)
        # Query churn never rebuilds.
        assert engine_series(engine)["engine_builds_total"] == 1

    @settings(max_examples=25, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(
                    [
                        "weight",
                        "query_attach",
                        "query_detach",
                        "answer_add",
                        "answer_remove",
                        "serve",
                    ]
                ),
                st.integers(min_value=0, max_value=10**6),
                st.floats(min_value=0.05, max_value=0.95),
            ),
            min_size=1,
            max_size=25,
        )
    )
    def test_interleaved_mutations_stay_bitwise(self, ops):
        # Bitwise property of the cold-invalidation path; the delta
        # path's tolerance-equality property lives in
        # test_serving_delta.py.  The mutations bypass publish, so every
        # persistent one is caught by the version and rebuilt.
        aug, entities = build_aug(seed=11)
        engine = SimilarityEngine(aug, params=PARAMS)
        kg_edges = sorted(
            ((e.head, e.tail) for e in aug.kg_edges()), key=repr
        )
        counter = {"q": 0, "a": 0}
        for kind, idx, value in ops:
            if kind == "weight":
                head, tail = kg_edges[idx % len(kg_edges)]
                aug.set_kg_weight(head, tail, value)
            elif kind == "query_attach":
                qid = f"hq{counter['q']}"
                counter["q"] += 1
                aug.add_query(
                    qid,
                    {
                        entities[idx % len(entities)]: 1.0,
                        entities[(idx + 3) % len(entities)]: value,
                    },
                )
            elif kind == "query_detach":
                attached = sorted(aug.query_nodes, key=repr)
                if attached:
                    aug.remove_query(attached[idx % len(attached)])
            elif kind == "answer_add":
                aid = f"ha{counter['a']}"
                counter["a"] += 1
                aug.add_answer(
                    aid,
                    {
                        entities[idx % len(entities)]: value,
                        entities[(idx + 1) % len(entities)]: 1.0,
                    },
                )
            elif kind == "answer_remove":
                extra = sorted(
                    a for a in aug.answer_nodes if str(a).startswith("ha")
                )
                if extra:
                    aug.remove_answer(extra[idx % len(extra)])
            else:  # mid-sequence serve to exercise the flush paths
                assert_engine_matches_cold(engine, aug)
        assert_engine_matches_cold(engine, aug)


class TestEngineBehaviour:
    def test_cache_hits_and_version_invalidation(self):
        # A weight write nobody announced moves the version, so the next
        # serve rebuilds and starts from an empty cache.
        aug, _ = build_aug()
        engine = SimilarityEngine(aug, params=PARAMS)
        engine.scores_for_query("q0")
        before = engine_series(engine)
        engine.scores_for_query("q0")
        after = engine_series(engine)
        hits, misses = "engine_cache_hits_total", "engine_cache_misses_total"
        assert after[hits] == before[hits] + 1
        edge = next(iter(aug.kg_edges()))
        aug.set_kg_weight(edge.head, edge.tail, 0.42)
        engine.scores_for_query("q0")
        latest = engine_series(engine)
        assert latest[hits] == after[hits]  # new version
        assert latest[misses] > after[misses]

    def test_cache_size_zero_disables(self):
        aug, _ = build_aug()
        engine = SimilarityEngine(aug, params=PARAMS, cache_size=0)
        engine.scores_for_query("q0")
        engine.scores_for_query("q0")
        stats = engine_series(engine)
        assert stats["engine_cache_hits_total"] == 0
        assert stats["engine_cache_entries"] == 0

    def test_cache_is_bounded(self):
        aug, _ = build_aug()
        engine = SimilarityEngine(aug, params=PARAMS, cache_size=2)
        for query in sorted(aug.query_nodes, key=repr):
            engine.scores_for_query(query)
        assert engine_series(engine)["engine_cache_entries"] <= 2

    def test_stats_snapshot_fields(self):
        aug, _ = build_aug()
        engine = SimilarityEngine(aug, params=PARAMS)
        engine.score_batch(sorted(aug.query_nodes, key=repr))
        stats = engine_series(engine)
        assert stats["engine_builds_total"] == 1
        assert stats["engine_batch_serves_total"] == 1
        assert engine.version == aug.version
        # One build and one stacked propagation; no patch, so no delta.
        assert stats["engine_build_seconds"]["count"] == 1
        assert stats["engine_propagate_seconds"]["count"] == 1
        assert stats["engine_delta_seconds"]["count"] == 0

    def test_non_query_raises(self):
        aug, _ = build_aug()
        engine = SimilarityEngine(aug, params=PARAMS)
        with pytest.raises(EvaluationError):
            engine.scores_for_query("a0")
        # A bad k is refused before anything is built, served or cached.
        with pytest.raises(ValueError, match="k must be at least 1"):
            engine.top_k("q0", k=0)
        stats = engine_series(engine)
        assert stats["engine_serves_total"] == 0
        assert stats["engine_cache_misses_total"] == 0
        assert stats["engine_builds_total"] == 0
        assert stats["engine_cache_entries"] == 0
        assert engine.epoch == 0

    def test_unknown_link_entity_raises(self):
        aug, _ = build_aug()
        engine = SimilarityEngine(aug, params=PARAMS)
        with pytest.raises(NodeNotFoundError):
            engine.scores({"nonexistent": 1.0})

    def test_serve_after_close_sees_later_writes(self):
        # close() drops the epoch; the serve after it rebuilds, and
        # writes made after that must still reach later serves.
        aug, _ = build_aug()
        engine = SimilarityEngine(aug, params=PARAMS)
        engine.scores_for_query("q0")
        engine.close()
        engine.scores_for_query("q0")
        for edge in sorted(aug.kg_edges(), key=lambda e: repr(e.key))[:6]:
            aug.set_kg_weight(edge.head, edge.tail, edge.weight * 0.3)
        targets = sorted(aug.answer_nodes, key=repr)
        served = engine.scores_for_query("q0", targets)
        cold = inverse_pdistance(aug.graph, "q0", targets, params=PARAMS)
        assert served == cold

    def test_publish_before_first_build_only_applies(self):
        aug, entities = build_aug()
        engine = SimilarityEngine(aug, params=PARAMS)

        def attach():
            aug.add_answer("a_new", {entities[0]: 1.0})
            return Patch(answers=["a_new"])

        assert engine.publish(attach) == 0
        assert engine_series(engine)["engine_builds_total"] == 0
        assert "a_new" in engine.scores_for_query("q0")
        assert engine_series(engine)["engine_builds_total"] == 1

    def test_unannounced_write_before_publish_rebuilds(self):
        aug, _ = build_aug()
        engine = SimilarityEngine(aug, params=PARAMS)
        engine.scores_for_query("q0")
        first, second = sorted(e.key for e in aug.kg_edges())[:2]
        aug.set_kg_weight(*first, 0.2)  # nobody tells the engine

        def announced():
            aug.set_kg_weight(*second, 0.3)
            return Patch(edges=[second])

        assert engine.publish(announced) == 2
        stats = engine_series(engine)
        assert stats["engine_builds_total"] == 2
        assert stats["engine_weight_patches_total"] == 0
        assert_engine_matches_cold(engine, aug)

    def test_empty_patch_publishes_nothing_unless_the_graph_moved(self):
        aug, _ = build_aug()
        engine = SimilarityEngine(aug, params=PARAMS)
        engine.scores_for_query("q0")
        assert engine.publish(lambda: None) == 1
        edge = next(iter(aug.kg_edges())).key
        # A write the patch does not announce: the publish rebuilds.
        assert engine.publish(lambda: aug.set_kg_weight(*edge, 0.2)) == 2
        assert engine_series(engine)["engine_builds_total"] == 2
        assert_engine_matches_cold(engine, aug)

    def test_failed_apply_publishes_nothing(self):
        aug, _ = build_aug()
        engine = SimilarityEngine(aug, params=PARAMS)
        engine.scores_for_query("q0")
        edge = next(iter(aug.kg_edges())).key

        def apply():
            aug.set_kg_weight(*edge, 0.2)
            raise RuntimeError("solver died")

        with pytest.raises(RuntimeError):
            engine.publish(apply)
        assert engine.epoch == 1
        assert_engine_matches_cold(engine, aug)  # the serve rebuilt
        assert engine_series(engine)["engine_builds_total"] == 2

    def test_patch_naming_an_answer_twice_appends_one_row(self):
        aug, entities = build_aug()
        engine = SimilarityEngine(aug, params=PARAMS)
        engine.scores_for_query("q0")

        def attach():
            aug.add_answer("a_twice", {entities[1]: 1.0, entities[6]: 2.0})
            return Patch(answers=["a_twice", "a_twice"])

        assert engine.publish(attach) == 2
        stats = engine_series(engine)
        assert stats["engine_rows_appended_total"] == 1
        assert stats["engine_builds_total"] == 1
        # The appended epoch serves the answer bitwise like a cold build,
        # without the rebuild a failed publish would leave behind.
        assert "a_twice" in engine.scores_for_query("q0")
        assert_engine_matches_cold(engine, aug)
        assert engine_series(engine)["engine_builds_total"] == 1
        assert engine.epoch == 2

    def test_patch_naming_a_new_edge_rebuilds(self):
        aug, entities = build_aug()
        engine = SimilarityEngine(aug, params=PARAMS)
        engine.scores_for_query("q0")
        head, tail = next(
            (h, t) for h in entities for t in entities
            if h != t and not aug.graph.has_edge(h, t)
        )

        def grow():
            aug.graph.add_edge(head, tail, 0.01)
            return Patch(edges=[(head, tail)])

        engine.publish(grow)
        assert engine_series(engine)["engine_builds_total"] == 2
        assert_engine_matches_cold(engine, aug)

    def test_virtual_query_scores(self):
        aug, entities = build_aug()
        engine = SimilarityEngine(aug, params=PARAMS)
        links = {entities[0]: 0.5, entities[1]: 0.5}
        served = engine.scores(links)
        aug.add_query("q_virtual", {entities[0]: 1.0, entities[1]: 1.0})
        cold = inverse_pdistance(
            aug.graph,
            "q_virtual",
            sorted(aug.answer_nodes, key=repr),
            params=PARAMS,
        )
        for target, score in served.items():
            assert score == cold[target]


class TestOptimizeReportContract:
    @pytest.mark.parametrize(
        "report",
        [SingleVoteReport(), MultiVoteReport(), SplitMergeReport()],
        ids=["single", "multi", "split-merge"],
    )
    def test_common_surface(self, report):
        assert isinstance(report, OptimizeReport)
        assert report.elapsed == 0.0
        assert report.solve_time == 0.0
        assert report.num_changed_edges == 0
        assert report.strategy in report.summary()
        assert "0 edge(s) changed" in report.summary()

    def test_single_vote_changed_edges_merge(self):
        report = SingleVoteReport(
            outcomes=[
                VoteOutcome(
                    vote=None, solution=None,
                    changed_edges={("a", "b"): (0.1, 0.2)},
                ),
                VoteOutcome(
                    vote=None, solution=None,
                    changed_edges={("a", "b"): (0.2, 0.3),
                                   ("b", "c"): (0.4, 0.5)},
                ),
            ]
        )
        # Later votes win; the alias stays available.
        assert report.changed_edges[("a", "b")] == (0.2, 0.3)
        assert report.num_changed_edges == 2
        assert report.all_changed_edges() == report.changed_edges


class TestParallelPayloads:
    def test_pool_worker_uses_initializer_graph(self):
        aug, _ = build_aug()
        votes = []
        _init_pool(aug)
        # The payload carries no graph — the worker must find it in the
        # per-process global installed by the initializer.
        result = _pool_worker((votes, 7, {"params": PARAMS}))
        assert result.index == 7
        assert result.num_votes == 0
