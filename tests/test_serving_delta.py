"""Tests for delta-propagation cache revalidation (repro/serving/delta.py).

The load-bearing property: after a sparse optimizer weight patch, the
engine's delta-corrected cached score vectors agree with a full cold
:func:`inverse_pdistance` recompute within the contract tolerance — and
the serve right after the patch is a cache *hit*, not a repropagation.
When the patch is too dense for localization (density fallback), the
engine cold-invalidates and results stay bitwise equal to the cold path.

The whole module runs with runtime contracts armed (see
``tests/conftest.py``), so every delta revalidation is additionally
checked against the engine's own reference DP at the seam.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devtools.contracts import DELTA_SCORE_TOL, contracts_enabled
from repro.graph.augmented import AugmentedGraph
from repro.graph.generators import random_digraph
from repro.serving import (
    DeltaCorrector,
    DeltaFallbackError,
    Patch,
    SimilarityEngine,
    SimilarityParams,
)
from repro.similarity.inverse_pdistance import inverse_pdistance
from tests.engine_series import engine_series

PARAMS = SimilarityParams(k=5, max_length=6, restart_prob=0.2)


def build_aug(seed=3, num_entities=14, num_answers=4, num_queries=3):
    kg = random_digraph(num_entities, avg_degree=3.0, seed=seed, out_mass=0.9)
    aug = AugmentedGraph(kg)
    entities = sorted(kg.nodes())
    for i in range(num_answers):
        aug.add_answer(
            f"a{i}",
            {
                entities[(i + j) % len(entities)]: 1.0 + j
                for j in range(3)
            },
        )
    for i in range(num_queries):
        aug.add_query(
            f"q{i}",
            {
                entities[i]: 1.0,
                entities[(i + 5) % len(entities)]: 2.0,
            },
        )
    return aug, entities


def kg_edges_sorted(aug):
    return sorted(((e.head, e.tail) for e in aug.kg_edges()), key=repr)


def patch_edges(engine, aug, edges, scale=0.7):
    """Publish a few scaled knowledge-graph weights as one patch.

    Scaling down keeps every out-sum sub-stochastic.
    """

    def apply():
        for head, tail in edges:
            aug.set_kg_weight(head, tail, aug.kg_weight(head, tail) * scale)
        return Patch(edges=edges)

    return engine.publish(apply)


def attach_answer(engine, aug, answer, links):
    """Publish one attached answer as one patch."""

    def apply():
        aug.add_answer(answer, links)
        return Patch(answers=[answer])

    return engine.publish(apply)


def assert_matches_cold(served, aug, query, targets, params=PARAMS):
    cold = inverse_pdistance(
        aug.graph,
        query,
        targets,
        max_length=params.max_length,
        restart_prob=params.restart_prob,
    )
    for target in targets:
        assert served[target] == pytest.approx(
            cold[target], abs=DELTA_SCORE_TOL, rel=DELTA_SCORE_TOL
        )


class TestDeltaRevalidation:
    def test_patch_keeps_cache_warm(self):
        aug, _ = build_aug()
        engine = SimilarityEngine(aug, params=PARAMS)
        targets = sorted(aug.answer_nodes, key=repr)
        engine.scores_for_query("q0", targets)
        hits_before = engine_series(engine)["engine_cache_hits_total"]

        patch_edges(engine, aug, kg_edges_sorted(aug)[:4])
        served = engine.scores_for_query("q0", targets)

        stats = engine_series(engine)
        # Warm, not recomputed.
        assert stats["engine_cache_hits_total"] == hits_before + 1
        assert stats["engine_delta_revalidations_total"] == 1
        assert stats["engine_delta_entries_patched_total"] == 1
        assert stats["engine_delta_fallbacks_total"] == 0
        assert_matches_cold(served, aug, "q0", targets)

    def test_all_cached_entries_revalidated(self):
        aug, _ = build_aug()
        engine = SimilarityEngine(aug, params=PARAMS)
        targets = sorted(aug.answer_nodes, key=repr)
        queries = sorted(aug.query_nodes, key=repr)
        for query in queries:
            engine.scores_for_query(query, targets)

        patch_edges(engine, aug, kg_edges_sorted(aug)[:6], scale=0.5)
        for query in queries:
            served = engine.scores_for_query(query, targets)
            assert_matches_cold(served, aug, query, targets)

        stats = engine_series(engine)
        assert stats["engine_delta_revalidations_total"] == 1
        assert stats["engine_delta_entries_patched_total"] == len(queries)
        assert stats["engine_cache_misses_total"] == len(queries)  # only the cold fills

    def test_repeated_patch_serve_cycles_stay_correct(self):
        aug, _ = build_aug(seed=9)
        engine = SimilarityEngine(aug, params=PARAMS)
        targets = sorted(aug.answer_nodes, key=repr)
        edges = kg_edges_sorted(aug)
        engine.scores_for_query("q1", targets)
        for round_index in range(5):
            chunk = edges[round_index::5][:3]
            patch_edges(engine, aug, chunk, scale=0.7 + 0.05 * round_index)
            served = engine.scores_for_query("q1", targets)
            assert_matches_cold(served, aug, "q1", targets)
        stats = engine_series(engine)
        assert stats["engine_delta_revalidations_total"] == 5
        assert stats["engine_cache_misses_total"] == 1

    def test_batch_serve_hits_after_patch(self):
        aug, _ = build_aug()
        engine = SimilarityEngine(aug, params=PARAMS)
        targets = sorted(aug.answer_nodes, key=repr)
        queries = sorted(aug.query_nodes, key=repr)
        engine.score_batch(queries, targets)
        misses_before = engine_series(engine)["engine_cache_misses_total"]

        patch_edges(engine, aug, kg_edges_sorted(aug)[:3])
        batch = engine.score_batch(queries, targets)

        assert engine_series(engine)["engine_cache_misses_total"] == misses_before
        for query in queries:
            assert_matches_cold(batch[query], aug, query, targets)

    def test_zero_delta_patch_rekeys_verbatim(self):
        aug, _ = build_aug()
        engine = SimilarityEngine(aug, params=PARAMS)
        targets = sorted(aug.answer_nodes, key=repr)
        before = engine.scores_for_query("q0", targets)
        edge = kg_edges_sorted(aug)[0]
        patch_edges(engine, aug, [edge], scale=1.0)  # same value
        after = engine.scores_for_query("q0", targets)
        stats = engine_series(engine)
        assert stats["engine_cache_hits_total"] == 1
        assert stats["engine_delta_rekeys_total"] == 1
        assert stats["engine_delta_revalidations_total"] == 0
        assert after == before  # carried verbatim, bitwise

    def test_answer_append_rekeys_cache(self):
        aug, entities = build_aug()
        engine = SimilarityEngine(aug, params=PARAMS)
        targets = sorted(aug.answer_nodes, key=repr)
        before = engine.scores_for_query("q0", targets)
        attach_answer(engine, aug, "a_late", {entities[0]: 1.0, entities[3]: 2.0})
        # Same explicit targets: appending an answer row cannot change
        # any of these scores (answers have no out-edges).
        after = engine.scores_for_query("q0", targets)
        stats = engine_series(engine)
        assert stats["engine_cache_hits_total"] == 1
        assert stats["engine_delta_rekeys_total"] == 1
        assert after == before

    def test_patch_then_append_in_one_flush(self):
        aug, entities = build_aug()
        engine = SimilarityEngine(aug, params=PARAMS)
        targets = sorted(aug.answer_nodes, key=repr)
        engine.scores_for_query("q0", targets)
        edges = kg_edges_sorted(aug)[:3]

        def apply():
            # Both mutations in one patch, published as one epoch.
            for head, tail in edges:
                aug.set_kg_weight(head, tail, aug.kg_weight(head, tail) * 0.7)
            aug.add_answer("a_late", {entities[1]: 1.0})
            return Patch(edges=edges, answers=["a_late"])

        engine.publish(apply)
        served = engine.scores_for_query("q0", targets)
        stats = engine_series(engine)
        assert stats["engine_cache_hits_total"] == 1
        assert stats["engine_delta_revalidations_total"] == 1
        assert stats["engine_delta_rekeys_total"] == 1
        assert_matches_cold(served, aug, "q0", targets)

    def test_density_fallback_cold_invalidates_bitwise(
        self, forced_delta_fallback
    ):
        aug, _ = build_aug()
        engine = SimilarityEngine(aug, params=PARAMS)
        targets = sorted(aug.answer_nodes, key=repr)
        engine.scores_for_query("q0", targets)
        patch_edges(engine, aug, kg_edges_sorted(aug)[:2])
        served = engine.scores_for_query("q0", targets)
        stats = engine_series(engine)
        assert stats["engine_delta_fallbacks_total"] == 1
        assert stats["engine_delta_revalidations_total"] == 0
        assert stats["engine_cache_misses_total"] == 2  # the fallback dropped the entry
        cold = inverse_pdistance(
            aug.graph,
            "q0",
            targets,
            max_length=PARAMS.max_length,
            restart_prob=PARAMS.restart_prob,
        )
        assert all(served[t] == cold[t] for t in targets)

    def test_revalidate_folds_burst_off_serve_path(self):
        aug, _ = build_aug()
        engine = SimilarityEngine(aug, params=PARAMS)
        targets = sorted(aug.answer_nodes, key=repr)
        engine.scores_for_query("q0", targets)
        # What the optimizer flush paths do: the solve runs inside publish.
        patch_edges(engine, aug, kg_edges_sorted(aug)[:5])
        assert engine_series(engine)["engine_delta_revalidations_total"] == 1
        served = engine.scores_for_query("q0", targets)
        assert engine_series(engine)["engine_cache_hits_total"] == 1
        assert_matches_cold(served, aug, "q0", targets)


class TestStalePreRebuildVector:
    """A vector cached before a rebuild is never served after it.

    Serve ``q0``, remove a KG edge out of its first entity, serve ``q1``
    (which rebuilds), publish an incremental matrix change, serve ``q0``
    again.  The rebuilt epoch starts with an empty LRU, so the second
    ``q0`` serve can only see a vector computed after the removal.
    """

    def rebuilt(self):
        aug, entities = build_aug()
        engine = SimilarityEngine(aug, params=PARAMS)
        targets = sorted(aug.answer_nodes, key=repr)
        engine.scores_for_query("q0", targets)
        removed = next(
            edge for edge in kg_edges_sorted(aug) if edge[0] == entities[0]
        )
        aug.graph.remove_edge(*removed)
        engine.scores_for_query("q1", targets)
        assert engine_series(engine)["engine_builds_total"] == 2
        return aug, entities, engine, targets, removed

    def test_answer_append_after_rebuild(self):
        aug, entities, engine, targets, _ = self.rebuilt()
        attach_answer(engine, aug, "a_late", {entities[2]: 1.0})
        assert engine_series(engine)["engine_rows_appended_total"] == 1
        served = engine.scores_for_query("q0", targets)
        cold = inverse_pdistance(
            aug.graph,
            "q0",
            targets,
            max_length=PARAMS.max_length,
            restart_prob=PARAMS.restart_prob,
        )
        assert all(served[t] == cold[t] for t in targets)

    def test_weight_patch_after_rebuild(self):
        aug, _, engine, targets, removed = self.rebuilt()
        patch_edges(
            engine,
            aug,
            [next(e for e in kg_edges_sorted(aug) if e != removed)],
        )
        assert engine_series(engine)["engine_weight_patches_total"] == 1
        # Contracts are armed: a delta-corrected stale vector would raise
        # ContractViolation here.
        served = engine.scores_for_query("q0", targets)
        assert_matches_cold(served, aug, "q0", targets)


class TestCacheBugfixes:
    def test_cache_key_ignores_link_insertion_order(self):
        # Regression: tuple(links.items()) keyed on dict insertion
        # order, so permuted-but-identical out-links repropagated.
        aug, entities = build_aug()
        engine = SimilarityEngine(aug, params=PARAMS)
        links_fwd = {entities[0]: 0.4, entities[1]: 0.6}
        links_rev = {entities[1]: 0.6, entities[0]: 0.4}
        first = engine.scores(links_fwd)
        second = engine.scores(links_rev)
        stats = engine_series(engine)
        assert stats["engine_cache_misses_total"] == 1
        assert stats["engine_cache_hits_total"] == 1
        assert second == first

    def test_cached_vectors_are_read_only(self):
        # Regression: _cache_get handed back the cached ndarray itself;
        # a caller mutating it poisoned every later hit for that key.
        aug, _ = build_aug()
        engine = SimilarityEngine(aug, params=PARAMS)
        targets = sorted(aug.answer_nodes, key=repr)
        engine.scores_for_query("q0", targets)
        key = engine._cache_key(
            engine._seed_links("q0"), tuple(targets), PARAMS
        )
        cached = engine._current.lookup(key)
        assert cached is not None
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0] = 123.0
        again = engine._current.lookup(key)
        assert again[0] != 123.0

    def test_mutated_result_cannot_poison_cache(self):
        aug, _ = build_aug()
        engine = SimilarityEngine(aug, params=PARAMS)
        targets = sorted(aug.answer_nodes, key=repr)
        first = engine.scores_for_query("q0", targets)
        first[targets[0]] = 999.0  # the served dict is the caller's own
        second = engine.scores_for_query("q0", targets)
        assert second[targets[0]] != 999.0
        assert engine_series(engine)["engine_cache_hits_total"] == 1

    def test_revalidated_vectors_stay_read_only(self):
        aug, _ = build_aug()
        engine = SimilarityEngine(aug, params=PARAMS)
        targets = sorted(aug.answer_nodes, key=repr)
        engine.scores_for_query("q0", targets)
        patch_edges(engine, aug, kg_edges_sorted(aug)[:3])
        key = engine._cache_key(
            engine._seed_links("q0"), tuple(targets), PARAMS
        )
        cached = engine._current.lookup(key)
        assert cached is not None
        assert not cached.flags.writeable


class TestDeltaCorrectorUnit:
    def test_empty_patch_correction_is_zero(self):
        aug, _ = build_aug()
        engine = SimilarityEngine(aug, params=PARAMS)
        engine.scores_for_query("q0")  # force a build
        corrector = DeltaCorrector(
            engine._current.matrix,
            np.array([], dtype=np.int64),
            np.array([], dtype=np.int64),
            np.array([], dtype=float),
            max_length=PARAMS.max_length,
        )
        out = corrector.correction(
            np.array([0]),
            np.array([1.0]),
            np.array([1, 2]),
            max_length=PARAMS.max_length,
            restart_prob=PARAMS.restart_prob,
        )
        assert np.array_equal(out, np.zeros(2))

    def test_too_deep_entry_rejected(self):
        aug, _ = build_aug()
        engine = SimilarityEngine(aug, params=PARAMS)
        engine.scores_for_query("q0")
        corrector = DeltaCorrector(
            engine._current.matrix,
            np.array([0], dtype=np.int64),
            np.array([1], dtype=np.int64),
            np.array([0.01]),
            max_length=3,
        )
        with pytest.raises(ValueError):
            corrector.correction(
                np.array([0]),
                np.array([1.0]),
                np.array([1]),
                max_length=9,
                restart_prob=0.2,
            )

    def test_zero_threshold_raises_fallback(self):
        aug, _ = build_aug()
        engine = SimilarityEngine(aug, params=PARAMS)
        engine.scores_for_query("q0")
        with pytest.raises(DeltaFallbackError):
            DeltaCorrector(
                engine._current.matrix,
                np.array([0], dtype=np.int64),
                np.array([1], dtype=np.int64),
                np.array([0.01]),
                max_length=PARAMS.max_length,
                density_threshold=0.0,
            )


class TestDeltaProperty:
    """Satellite: hypothesis property across random graphs + patches."""

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        rounds=st.lists(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=10_000),
                    st.floats(min_value=0.3, max_value=0.999),
                ),
                min_size=1,
                max_size=4,
            ),
            min_size=1,
            max_size=3,
        ),
    )
    def test_delta_equals_cold_across_random_patch_sequences(
        self, seed, rounds
    ):
        assert contracts_enabled()  # the suite runs REPRO_CONTRACTS-armed
        aug, _ = build_aug(seed=seed % 50, num_entities=12)
        engine = SimilarityEngine(aug, params=PARAMS)
        targets = sorted(aug.answer_nodes, key=repr)
        queries = sorted(aug.query_nodes, key=repr)
        edges = kg_edges_sorted(aug)
        for query in queries:
            engine.scores_for_query(query, targets)
        for round_patches in rounds:

            def apply(round_patches=round_patches):
                picked = []
                for edge_pick, scale in round_patches:
                    head, tail = edges[edge_pick % len(edges)]
                    aug.set_kg_weight(
                        head, tail, aug.kg_weight(head, tail) * scale
                    )
                    picked.append((head, tail))
                return Patch(edges=picked)

            engine.publish(apply)
            for query in queries:
                served = engine.scores_for_query(query, targets)
                assert_matches_cold(served, aug, query, targets)
        # The LRU stayed warm the whole time: one miss per query, ever.
        assert engine_series(engine)["engine_cache_misses_total"] == len(queries)

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        edge_pick=st.integers(min_value=0, max_value=10_000),
        scale=st.floats(min_value=0.3, max_value=0.999),
    )
    def test_forced_fallback_is_bitwise_cold(self, seed, edge_pick, scale):
        aug, _ = build_aug(seed=seed % 50, num_entities=12)
        engine = SimilarityEngine(aug, params=PARAMS)
        targets = sorted(aug.answer_nodes, key=repr)
        engine.scores_for_query("q0", targets)
        edges = kg_edges_sorted(aug)
        # A function-scoped fixture would span every hypothesis example.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                "repro.serving.engine.DEFAULT_DELTA_DENSITY_THRESHOLD", 0.0
            )
            patch_edges(
                engine, aug, [edges[edge_pick % len(edges)]], scale=scale
            )
        served = engine.scores_for_query("q0", targets)
        assert engine_series(engine)["engine_delta_fallbacks_total"] == 1
        cold = inverse_pdistance(
            aug.graph,
            "q0",
            targets,
            max_length=PARAMS.max_length,
            restart_prob=PARAMS.restart_prob,
        )
        assert all(served[t] == cold[t] for t in targets)
