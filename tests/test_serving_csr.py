"""Differential tests for the vectorized CSR builder and the offset lookup.

The engine's matrix comes from :meth:`WeightedDiGraph.csr` and is kept
current by published answer-row appends and weight patches; a patched
edge's data offset is found by binary search over its row.  Both are checked against the simple
per-edge constructions they replaced, kept here as references: the
per-row list builder with its ``(head, tail) -> offset`` dict, and the
COO construction ``adjacency_matrix()`` used to hand to scipy.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.graph import AugmentedGraph, WeightedDiGraph
from repro.serving import Patch, SimilarityEngine
from tests.engine_series import engine_series


def reference_engine_csr(aug):
    """The per-row builder: (index, matrix, (head, tail) -> data offset)."""
    graph = aug.graph
    queries = aug.query_nodes
    nodes = [node for node in graph.nodes() if node not in queries]
    index = {node: i for i, node in enumerate(nodes)}
    per_row = [[] for _ in nodes]
    for head in nodes:
        j = index[head]
        for tail, weight in graph.successors(head).items():
            if tail in queries:
                continue
            per_row[index[tail]].append((j, weight, (head, tail)))
    data, indices, indptr = [], [], [0]
    positions = {}
    for row in per_row:
        row.sort(key=lambda entry: entry[0])
        for j, weight, key in row:
            positions[key] = len(data)
            indices.append(j)
            data.append(weight)
        indptr.append(len(data))
    n = len(nodes)
    matrix = sparse.csr_matrix(
        (
            np.asarray(data, dtype=float),
            np.asarray(indices, dtype=np.int32),
            np.asarray(indptr, dtype=np.int32),
        ),
        shape=(n, n),
    )
    return index, matrix, positions


def reference_adjacency(graph):
    """``adjacency_matrix()`` as a COO triple handed to scipy."""
    index = graph.node_index()
    n = len(index)
    rows, cols, data = [], [], []
    for edge in graph.edges():
        rows.append(index[edge.tail])
        cols.append(index[edge.head])
        data.append(edge.weight)
    return sparse.csr_matrix(
        (np.asarray(data), (np.asarray(rows), np.asarray(cols))), shape=(n, n)
    )


def assert_same_csr(actual, expected):
    assert actual.shape == expected.shape
    for name in ("data", "indices", "indptr"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


def assert_engine_matches_reference(engine, aug):
    epoch = engine._serving_epoch()
    index, matrix, positions = reference_engine_csr(aug)
    assert list(epoch.index.items()) == list(index.items())
    assert_same_csr(epoch.matrix, matrix)
    assert_same_csr(aug.graph.adjacency_matrix(), reference_adjacency(aug.graph))
    # Every node pair in one batch, present and absent entries interleaved,
    # query edges included: each is the dict's offset or None.
    nodes = list(aug.graph.nodes())
    edges = [(head, tail) for head in nodes for tail in nodes]
    assert epoch.offsets(edges) == [positions.get(edge) for edge in edges]
    assert epoch.offsets([]) == []


@st.composite
def scenarios(draw):
    num_entities = draw(st.integers(min_value=1, max_value=9))
    pair = st.tuples(
        st.integers(0, num_entities - 1), st.integers(0, num_entities - 1)
    )
    weight = st.floats(min_value=0.01, max_value=1.0)
    edges = draw(st.dictionaries(pair, weight, max_size=3 * num_entities))
    links = st.dictionaries(
        st.integers(0, num_entities - 1),
        st.integers(1, 3),
        min_size=1,
        max_size=3,
    )
    return {
        "num_entities": num_entities,
        "edges": edges,
        "queries": draw(st.lists(links, max_size=3)),
        "answers": draw(st.lists(links, max_size=3)),
        "late_answers": draw(st.lists(links, max_size=3)),
        "late_queries": draw(st.lists(links, max_size=2)),
        "drop": draw(st.integers(min_value=0, max_value=100)),
    }


def build(scenario):
    kg = WeightedDiGraph(strict=False)
    # Every entity is a node even without edges: isolated rows/columns.
    for i in range(scenario["num_entities"]):
        kg.add_node(f"e{i}")
    for (head, tail), weight in scenario["edges"].items():
        kg.add_edge(f"e{head}", f"e{tail}", weight)
    aug = AugmentedGraph(kg)
    for i, links in enumerate(scenario["answers"]):
        aug.add_answer(f"a{i}", {f"e{e}": c for e, c in links.items()})
    for i, links in enumerate(scenario["queries"]):
        aug.add_query(f"q{i}", {f"e{e}": c for e, c in links.items()})
    return aug


class TestEngineCsrDifferential:
    @settings(max_examples=60, deadline=None)
    @given(scenarios())
    def test_build_append_rebuild_match_reference(self, scenario):
        aug = build(scenario)
        engine = SimilarityEngine(aug)
        try:
            assert_engine_matches_reference(engine, aug)
            builds = engine_series(engine)["engine_builds_total"]
            # Answers attached after the build append rows in place.

            def attach():
                late = []
                for i, links in enumerate(scenario["late_answers"]):
                    aug.add_answer(
                        f"late{i}", {f"e{e}": c for e, c in links.items()}
                    )
                    late.append(f"late{i}")
                return Patch(answers=late)

            engine.publish(attach)
            for i, links in enumerate(scenario["late_queries"]):
                aug.add_query(f"lq{i}", {f"e{e}": c for e, c in links.items()})
            assert_engine_matches_reference(engine, aug)
            assert engine_series(engine)["engine_builds_total"] == builds
            # Patched weights keep the layout; every offset still lines up.
            kg_edges = sorted(edge.key for edge in aug.kg_edges())

            def halve():
                for head, tail in kg_edges[::2]:
                    aug.set_kg_weight(head, tail, aug.kg_weight(head, tail) / 2)
                return Patch(edges=kg_edges[::2])

            engine.publish(halve)
            assert_engine_matches_reference(engine, aug)
            assert engine_series(engine)["engine_builds_total"] == builds
            # Removing an entity edge moves the version: a full rebuild.
            if kg_edges:
                head, tail = kg_edges[scenario["drop"] % len(kg_edges)]
                aug.graph.remove_edge(head, tail)
                assert_engine_matches_reference(engine, aug)
                assert engine_series(engine)["engine_builds_total"] == builds + 1
        finally:
            engine.close()


class TestOffsetsLongRow:
    def test_long_row_patches_in_one_flush(self):
        # ``hub`` has 300 in-edges whose columns interleave with the
        # hub's own index, next to an empty row: the batched search takes
        # several halvings and must stop inside each row's bounds.
        kg = WeightedDiGraph(strict=False)
        kg.add_node("empty")
        for i in reversed(range(300)):
            kg.add_edge(f"e{i:03d}", "hub", 0.5)
        kg.add_edge("hub", "e000", 0.5)
        aug = AugmentedGraph(kg)
        engine = SimilarityEngine(aug)
        try:
            assert_engine_matches_reference(engine, aug)
            edges = [(f"e{i:03d}", "hub") for i in range(0, 300, 3)]

            def reweight():
                for head, tail in edges:
                    aug.set_kg_weight(head, tail, 0.25)
                return Patch(edges=edges)

            engine.publish(reweight)
            assert_engine_matches_reference(engine, aug)
            stats = engine_series(engine)
            assert stats["engine_builds_total"] == 1
            assert stats["engine_weight_patches_total"] == 100
        finally:
            engine.close()


class TestAdjacencyMatrixDifferential:
    @settings(max_examples=60, deadline=None)
    @given(scenarios())
    def test_matches_coo_construction(self, scenario):
        aug = build(scenario)
        assert_same_csr(aug.graph.adjacency_matrix(), reference_adjacency(aug.graph))
        kg = aug.kg_view()
        assert_same_csr(kg.adjacency_matrix(), reference_adjacency(kg))
