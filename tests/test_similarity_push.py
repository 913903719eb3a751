"""The push propagation backend and the backend registry.

Three layers are covered here:

- the name -> kernel table: ``get_backend`` returns the two kernels and
  refuses every other name, as ``SimilarityParams`` does;
- the push kernel itself against the dense reference — the paper's
  Fig. 1 worked example, exact mode, and a hypothesis property that
  push agrees with dense within the derived error budget on random
  graphs — and against the vectorized kernel it replaced
  (``tests/push_reference.py``), bitwise;
- the serving engine's push path — cache hits, the rekey-vs-repush
  decision under weight patches, answer appends, and batches — with
  the runtime contracts armed (conftest),
  so every engine-served push vector is checked against a cold dense
  recompute.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.errors import NodeNotFoundError, UnknownBackendError
from repro.graph.augmented import AugmentedGraph
from repro.graph.digraph import WeightedDiGraph
from repro.graph.generators import random_digraph
from repro.serving import Patch, SimilarityEngine, SimilarityParams
from repro.similarity.backend import DenseBackend, PushBackend, get_backend
from repro.similarity.inverse_pdistance import inverse_pdistance
from repro.similarity.push import (
    PropagationResult,
    amplification_bound,
    out_adjacency,
    push_propagate,
    remaining_gain,
)
from tests import push_reference
from tests.engine_series import engine_series

#: Float-comparison slop on top of the analytic error budget: push and
#: dense sum the same products in different orders.
FP_SLOP = 1e-12

PUSH_PARAMS = SimilarityParams(
    k=5, max_length=6, restart_prob=0.2, backend="push"
)


def build_aug(seed=3, num_entities=12):
    kg = random_digraph(num_entities, avg_degree=3.0, seed=seed, out_mass=0.9)
    aug = AugmentedGraph(kg)
    entities = sorted(kg.nodes())
    for i in range(4):
        aug.add_answer(
            f"a{i}",
            {entities[(i + j) % len(entities)]: 1.0 + j for j in range(3)},
        )
    for i in range(3):
        aug.add_query(
            f"q{i}",
            {entities[i]: 1.0, entities[(i + 5) % len(entities)]: 2.0},
        )
    return aug, entities


def assert_push_matches_dense(aug, params):
    """Each attached query: |push − dense| ≤ ε per target, both APIs."""
    targets = sorted(aug.answer_nodes, key=repr)
    queries = sorted(aug.query_nodes, key=repr)
    budget = params.push_tolerance + FP_SLOP
    push = get_backend("push")
    dense = get_backend("dense")
    batch = push.scores_batch(aug.graph, queries, targets, params=params)
    for query in queries:
        got = push.scores(aug.graph, query, targets, params=params)
        want = dense.scores(aug.graph, query, targets, params=params)
        for target in targets:
            assert got[target] == pytest.approx(want[target], abs=budget)
            assert batch[query][target] == pytest.approx(
                want[target], abs=budget
            )


# ----------------------------------------------------------------------
# the name -> kernel table
# ----------------------------------------------------------------------
class TestRegistry:
    """``get_backend``'s fixed two-name table and the params check in
    front of it."""

    def test_builtin_backends_present(self):
        assert isinstance(get_backend("dense"), DenseBackend)
        assert isinstance(get_backend("push"), PushBackend)

    def test_unknown_name_raises(self):
        for name in ("no_such_kernel", "ppr", "random_walk", "", "Dense"):
            with pytest.raises(UnknownBackendError, match=repr(name)):
                get_backend(name)

    def test_unknown_backend_via_params(self):
        # PPR and the random-walk baseline have no kernel the engine
        # could serve with, so params refuse them with the typos.
        for name in ("ppr", "random_walk", "", "dnese", "not_yet_registered"):
            with pytest.raises(ValueError, match="'dense' or 'push'"):
                SimilarityParams(backend=name)
        assert SimilarityParams(backend="push").backend == "push"


# ----------------------------------------------------------------------
# the push kernel against the dense reference
# ----------------------------------------------------------------------
class TestPushKernel:
    def test_fig1_worked_example(self, fig1_aug, fig1_expected_a3):
        params = SimilarityParams(
            max_length=5, restart_prob=0.15, backend="push"
        )
        scores = get_backend("push").scores(
            fig1_aug.graph, "q", ["a3"], params=params
        )
        assert scores["a3"] == pytest.approx(fig1_expected_a3, rel=1e-12)

    def test_exact_mode_matches_dense_tightly(self):
        aug, _ = build_aug()
        assert_push_matches_dense(
            aug, PUSH_PARAMS.replace(push_tolerance=0.0)
        )

    def test_coarse_tolerance_still_within_budget(self):
        aug, _ = build_aug()
        assert_push_matches_dense(
            aug, PUSH_PARAMS.replace(push_tolerance=1e-3)
        )

    def test_max_length_one_scores_only_direct_links(self, fig1_aug):
        params = SimilarityParams(
            max_length=1, restart_prob=0.15, backend="push"
        )
        graph = fig1_aug.graph
        scores = get_backend("push").scores(
            graph, "q", ["Outbox", "Email", "a3"], params=params
        )
        c = 0.15
        assert scores["Outbox"] == pytest.approx(0.33 * c * (1 - c))
        assert scores["Email"] == pytest.approx(0.33 * c * (1 - c))
        assert scores["a3"] == 0.0

    def test_unknown_source_or_target_raises(self, fig1_aug):
        push = get_backend("push")
        params = SimilarityParams(backend="push")
        with pytest.raises(NodeNotFoundError):
            push.scores(fig1_aug.graph, "ghost", ["a3"], params=params)
        with pytest.raises(NodeNotFoundError):
            push.scores(fig1_aug.graph, "q", ["ghost"], params=params)

    def test_error_bound_accounting(self):
        aug, _ = build_aug()
        graph = aug.graph
        matrix = graph.adjacency_matrix()
        out_matrix = out_adjacency(matrix)
        index = graph.node_index()
        successors = graph.successors("q0")
        seed_idx = np.array([index[n] for n in successors], dtype=np.int64)
        seed_weights = np.array(list(successors.values()))
        target_idx = np.array(
            [index[a] for a in sorted(aug.answer_nodes, key=repr)],
            dtype=np.int64,
        )
        tolerance = 1e-4
        result = push_propagate(
            out_matrix,
            seed_idx,
            seed_weights,
            target_idx,
            max_length=6,
            restart_prob=0.2,
            tolerance=tolerance,
        )
        exact = push_propagate(
            out_matrix,
            seed_idx,
            seed_weights,
            target_idx,
            max_length=6,
            restart_prob=0.2,
            tolerance=0.0,
        )
        assert 0.0 <= result.error_bound <= tolerance
        assert exact.error_bound == 0.0
        assert np.all(
            np.abs(result.scores - exact.scores)
            <= result.error_bound + FP_SLOP
        )
        assert result.edges_touched <= exact.edges_touched
        assert result.touched_nodes is not None
        assert result.rho >= 1.0

    def test_validation(self):
        out_matrix = out_adjacency(
            WeightedDiGraph.from_edges([("a", "b", 0.5)]).adjacency_matrix()
        )
        seed = np.array([0], dtype=np.int64)
        weights = np.array([1.0])
        targets = np.array([1], dtype=np.int64)
        with pytest.raises(ValueError):
            push_propagate(
                out_matrix, seed, weights, targets,
                max_length=0, restart_prob=0.15,
            )
        with pytest.raises(ValueError):
            push_propagate(
                out_matrix, seed, weights, targets,
                max_length=5, restart_prob=1.0,
            )
        with pytest.raises(ValueError):
            push_propagate(
                out_matrix, seed, weights, targets,
                max_length=5, restart_prob=0.15, tolerance=-1e-9,
            )
        with pytest.raises(ValueError):
            push_propagate(
                out_matrix, seed, weights, targets,
                max_length=5, restart_prob=0.15, rho=0.5,
            )
        with pytest.raises(ValueError, match="seed index shape"):
            push_propagate(
                out_matrix, np.array([0, 1], dtype=np.int64), weights, targets,
                max_length=5, restart_prob=0.15,
            )

    def test_remaining_gain_zero_at_last_level(self):
        assert (
            remaining_gain(4, max_length=5, restart_prob=0.15, rho=1.0)
            == 0.0
        )

    def test_amplification_bound_floor(self):
        sub = WeightedDiGraph.from_edges([("a", "b", 0.3)])
        assert amplification_bound(
            out_adjacency(sub.adjacency_matrix())
        ) == 1.0

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_entities=st.integers(min_value=5, max_value=25),
        tolerance=st.sampled_from([0.0, 1e-12, 1e-8, 1e-4]),
        max_length=st.integers(min_value=1, max_value=7),
    )
    def test_push_matches_dense_within_budget(
        self, seed, num_entities, tolerance, max_length
    ):
        aug, _ = build_aug(seed=seed, num_entities=num_entities)
        assert_push_matches_dense(
            aug,
            PUSH_PARAMS.replace(
                push_tolerance=tolerance, max_length=max_length
            ),
        )


def random_out_csr(rng, num_nodes, max_degree, sink_share, row_mass):
    """An out-edge CSR with ``row_mass``-summing rows, some of them sinks.

    Raw weights spread over four orders of magnitude before each row is
    scaled, and a tenth are zero; a row may draw one column twice
    (summed into one entry).  ``row_mass`` above 1 makes the graph
    super-stochastic (ρ > 1).
    """
    degrees = rng.integers(0, max_degree + 1, size=num_nodes)
    degrees[rng.random(num_nodes) < sink_share] = 0
    rows = np.repeat(np.arange(num_nodes), degrees)
    cols = rng.integers(0, num_nodes, size=rows.size)
    weights = 10.0 ** rng.uniform(-4.0, 0.0, size=rows.size)
    weights[rng.random(rows.size) < 0.1] = 0.0
    sums = np.bincount(rows, weights=weights, minlength=num_nodes)
    weights = row_mass * weights / np.maximum(sums[rows], 1e-300)
    return sparse.csr_matrix(
        (weights, (rows, cols)), shape=(num_nodes, num_nodes)
    )


def assert_bitwise_equal(got, want):
    """Two :class:`PropagationResult` values agree to the last bit."""
    assert got.scores.dtype == want.scores.dtype
    assert got.scores.shape == want.scores.shape
    assert got.scores.tobytes() == want.scores.tobytes()
    assert got.edges_touched == want.edges_touched
    assert got.touched_nodes.dtype == want.touched_nodes.dtype
    assert got.touched_nodes.shape == want.touched_nodes.shape
    assert got.touched_nodes.tobytes() == want.touched_nodes.tobytes()
    assert float(got.error_bound).hex() == float(want.error_bound).hex()
    assert float(got.rho).hex() == float(want.rho).hex()


class TestPushMatchesVectorizedKernel:
    """The loop kernel adds in the vectorized kernel's order, so every
    result is bitwise the one ``tests/push_reference.py`` returns.

    Seed weights spread over twelve orders of magnitude and the coarse
    tolerances drop most of a frontier, so many levels drop eight or
    more entries: from there numpy's pairwise sum and a left-to-right
    sum part ways, which is what pins the dropped-mass order.
    """

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        num_nodes=st.integers(min_value=1, max_value=60),
        max_degree=st.integers(min_value=0, max_value=8),
        sink_share=st.sampled_from([0.0, 0.3, 1.0]),
        row_mass=st.sampled_from([0.5, 0.9, 1.0, 3.0]),
        num_seeds=st.integers(min_value=0, max_value=32),
        num_targets=st.integers(min_value=0, max_value=12),
        tolerance=st.sampled_from([0.0, 1e-8, 1e-6, 1e-4, 1e-2, 1.0]),
        max_length=st.integers(min_value=1, max_value=6),
        index_dtype=st.sampled_from([np.int32, np.int64]),
        read_only=st.booleans(),
    )
    def test_bitwise_equal_to_reference(
        self,
        seed,
        num_nodes,
        max_degree,
        sink_share,
        row_mass,
        num_seeds,
        num_targets,
        tolerance,
        max_length,
        index_dtype,
        read_only,
    ):
        rng = np.random.default_rng(seed)
        out_matrix = random_out_csr(
            rng, num_nodes, max_degree, sink_share, row_mass
        )
        out_matrix.indptr = out_matrix.indptr.astype(index_dtype)
        out_matrix.indices = out_matrix.indices.astype(index_dtype)
        # Seeds and targets repeat freely on graphs this small.
        seed_idx = rng.integers(0, num_nodes, size=num_seeds).astype(index_dtype)
        seed_weights = row_mass * 10.0 ** rng.uniform(-12.0, 0.0, size=num_seeds)
        target_idx = rng.integers(0, num_nodes, size=num_targets).astype(
            index_dtype
        )
        arrays = (
            out_matrix.indptr,
            out_matrix.indices,
            out_matrix.data,
            seed_idx,
            seed_weights,
            target_idx,
        )
        if read_only:
            for array in arrays:
                array.flags.writeable = False
        kwargs = dict(
            max_length=max_length, restart_prob=0.15, tolerance=tolerance
        )
        got = push_propagate(
            out_matrix, seed_idx, seed_weights, target_idx, **kwargs
        )
        want = push_reference.push_propagate(
            out_matrix, seed_idx, seed_weights, target_idx, **kwargs
        )
        assert_bitwise_equal(got, want)


# ----------------------------------------------------------------------
# the serving engine's push path
# ----------------------------------------------------------------------
def two_component_aug():
    """Queries live in one component; the other is never touched.

    Component 1 (``A → B → C``, plus a back-edge) carries the query and
    the answer; component 2 (``X ↔ Y``) exists so a weight patch can be
    provably disjoint from every served push's touched set.
    """
    kg = WeightedDiGraph.from_edges(
        [
            ("A", "B", 0.5),
            ("B", "C", 0.4),
            ("C", "A", 0.3),
            ("X", "Y", 0.6),
            ("Y", "X", 0.6),
        ],
        strict=False,
    )
    aug = AugmentedGraph(kg)
    aug.add_query("q", {"A": 1.0})
    aug.add_answer("ans", {"C": 1.0})
    return aug


def reweight(engine, aug, head, tail, weight):
    """Publish one knowledge-graph weight as a one-edge patch."""

    def apply():
        aug.graph.set_weight(head, tail, weight)
        return Patch(edges=[(head, tail)])

    return engine.publish(apply)


class TestEnginePush:
    def test_served_scores_match_cold_dense(self):
        aug, _ = build_aug()
        engine = SimilarityEngine(aug, params=PUSH_PARAMS)
        targets = sorted(aug.answer_nodes, key=repr)
        budget = PUSH_PARAMS.push_tolerance + FP_SLOP
        for query in sorted(aug.query_nodes, key=repr):
            served = engine.scores_for_query(query, targets)
            cold = inverse_pdistance(
                aug.graph, query, targets, params=PUSH_PARAMS
            )
            for target in targets:
                assert served[target] == pytest.approx(
                    cold[target], abs=budget
                )
        assert engine_series(engine)["engine_push_serves_total"] == len(aug.query_nodes)
        assert engine_series(engine)["engine_push_edges_touched"]["sum"] > 0
        engine.close()

    def test_cache_hit_skips_push(self):
        aug = two_component_aug()
        engine = SimilarityEngine(aug, params=PUSH_PARAMS)
        first = engine.scores_for_query("q", ["ans"])
        second = engine.scores_for_query("q", ["ans"])
        assert first == second
        stats = engine_series(engine)
        assert stats["engine_push_serves_total"] == 1
        assert stats["engine_cache_hits_total"] == 1
        engine.close()

    def test_disjoint_patch_rekeys_cached_push(self):
        aug = two_component_aug()
        engine = SimilarityEngine(aug, params=PUSH_PARAMS)
        before = engine.scores_for_query("q", ["ans"])
        # Lowering a weight keeps ρ valid; X is unreachable from q.
        reweight(engine, aug, "X", "Y", 0.1)
        after = engine.scores_for_query("q", ["ans"])
        assert after == before  # carried verbatim, not recomputed
        stats = engine_series(engine)
        assert stats["engine_push_rekeys_total"] == 1
        assert stats["engine_push_repushes_total"] == 0
        assert stats["engine_push_serves_total"] == 1
        engine.close()

    def test_intersecting_patch_repushes(self):
        aug = two_component_aug()
        engine = SimilarityEngine(aug, params=PUSH_PARAMS)
        engine.scores_for_query("q", ["ans"])
        reweight(engine, aug, "B", "C", 0.2)
        served = engine.scores_for_query("q", ["ans"])
        cold = inverse_pdistance(
            aug.graph, "q", ["ans"], params=PUSH_PARAMS
        )
        assert served["ans"] == pytest.approx(
            cold["ans"], abs=PUSH_PARAMS.push_tolerance + FP_SLOP
        )
        stats = engine_series(engine)
        assert stats["engine_push_repushes_total"] == 1
        assert stats["engine_push_serves_total"] == 1  # the repair is not a serve
        engine.close()

    def test_answer_append_keeps_push_cache_valid(self):
        aug, entities = build_aug()
        engine = SimilarityEngine(aug, params=PUSH_PARAMS)
        targets = sorted(aug.answer_nodes, key=repr)
        engine.scores_for_query("q0", targets)

        def attach():
            aug.add_answer("a_new", {entities[0]: 1.0})
            return Patch(answers=["a_new"])

        engine.publish(attach)
        assert engine_series(engine)["engine_rows_appended_total"] == 1
        served = engine.scores_for_query(
            "q0", targets + ["a_new"]
        )
        cold = inverse_pdistance(
            aug.graph, "q0", targets + ["a_new"], params=PUSH_PARAMS
        )
        for target in targets + ["a_new"]:
            assert served[target] == pytest.approx(
                cold[target], abs=PUSH_PARAMS.push_tolerance + FP_SLOP
            )
        engine.close()

    @pytest.mark.parametrize("first_backend", ["push", "dense"])
    def test_push_miss_after_publish_ignores_serve_history(
        self, first_backend
    ):
        """An epoch's push state (out-CSR and ρ) comes from its own
        matrix, so a push miss after a publish equals a fresh engine's
        bitwise, whichever kernel served the epoch before it."""
        aug, entities = build_aug(num_entities=20)
        params = PUSH_PARAMS.replace(push_tolerance=5e-2)
        graph = aug.graph
        kg_out = {
            node: [
                (node, tail)
                for tail in sorted(graph.successors(node))
                if aug.is_kg_edge(node, tail)
            ]
            for node in entities
        }
        hub_edges = kg_out[max(entities, key=lambda n: (len(kg_out[n]), n))]
        # A super-stochastic hub: ρ is its out-weight sum.
        for edge in hub_edges:
            graph.set_weight(*edge, 3 * graph.weight(*edge))
        engine = SimilarityEngine(aug, params=params)
        engine.scores_for_query("q0", params=params.replace(backend=first_backend))

        def restore():
            for edge in hub_edges:
                graph.set_weight(*edge, graph.weight(*edge) / 3)
            return Patch(edges=hub_edges)

        engine.publish(restore)
        fresh = SimilarityEngine(aug, params=params)
        for query in ("q1", "q2"):
            served = engine.scores_for_query(query)
            want = fresh.scores_for_query(query)
            assert {t: s.hex() for t, s in served.items()} == {
                t: s.hex() for t, s in want.items()
            }, query
        engine.close()
        fresh.close()

    def test_batch_routes_through_push(self):
        aug, _ = build_aug()
        engine = SimilarityEngine(aug, params=PUSH_PARAMS)
        queries = sorted(aug.query_nodes, key=repr)
        targets = sorted(aug.answer_nodes, key=repr)
        batch = engine.score_batch(queries, targets)
        budget = PUSH_PARAMS.push_tolerance + FP_SLOP
        for query in queries:
            cold = inverse_pdistance(
                aug.graph, query, targets, params=PUSH_PARAMS
            )
            for target in targets:
                assert batch[query][target] == pytest.approx(
                    cold[target], abs=budget
                )
        assert engine_series(engine)["engine_push_serves_total"] == len(queries)
        engine.close()

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        tolerance=st.sampled_from([0.0, 1e-8, 1e-4]),
        patches=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10_000),
                st.floats(min_value=0.05, max_value=0.9),
            ),
            max_size=3,
        ),
    )
    def test_push_survives_patch_sequences(self, seed, tolerance, patches):
        """Engine-served push tracks the mutating graph within budget.

        Each step patches one KG edge (chosen pseudo-randomly from the
        patch seed), re-serves every query, and compares against a cold
        dense recompute on the *current* graph.  Contracts are armed by
        conftest, so the engine additionally self-checks every push.
        """
        aug, _ = build_aug(seed=seed, num_entities=10)
        params = PUSH_PARAMS.replace(push_tolerance=tolerance)
        budget = tolerance + FP_SLOP
        engine = SimilarityEngine(aug, params=params)
        queries = sorted(aug.query_nodes, key=repr)
        targets = sorted(aug.answer_nodes, key=repr)
        kg_edges = sorted(
            (
                (e.tail, e.head)
                for e in aug.graph.edges()
                if aug.is_kg_edge(e.tail, e.head)
            ),
        )
        try:
            for step, (edge_pick, weight) in enumerate(
                [(None, None)] + patches
            ):
                if edge_pick is not None and kg_edges:
                    tail, head = kg_edges[edge_pick % len(kg_edges)]
                    reweight(engine, aug, tail, head, weight)
                for query in queries:
                    served = engine.scores_for_query(query, targets)
                    cold = inverse_pdistance(
                        aug.graph, query, targets, params=params
                    )
                    for target in targets:
                        assert served[target] == pytest.approx(
                            cold[target], abs=budget
                        ), f"step {step}, query {query}"
        finally:
            engine.close()
