"""Unit tests for the base weighted digraph."""

import numpy as np
import pytest

from repro.errors import EdgeNotFoundError, InvalidWeightError, NodeNotFoundError
from repro.graph import WeightedDiGraph


@pytest.fixture
def triangle():
    """a -> b -> c -> a with distinct weights."""
    return WeightedDiGraph.from_edges(
        [("a", "b", 0.5), ("b", "c", 0.7), ("c", "a", 0.9)]
    )


class TestConstruction:
    def test_empty_graph(self):
        graph = WeightedDiGraph()
        assert graph.num_nodes == 0
        assert graph.num_edges == 0
        assert graph.average_degree() == 0.0

    def test_add_edge_creates_endpoints(self):
        graph = WeightedDiGraph()
        graph.add_edge("x", "y", 0.3)
        assert graph.has_node("x") and graph.has_node("y")
        assert graph.num_edges == 1
        assert graph.weight("x", "y") == 0.3

    def test_add_node_idempotent(self):
        graph = WeightedDiGraph()
        graph.add_node("a")
        graph.add_node("a")
        assert graph.num_nodes == 1

    def test_overwrite_edge_keeps_edge_count(self, triangle):
        triangle.add_edge("a", "b", 0.6)
        assert triangle.num_edges == 3
        assert triangle.weight("a", "b") == 0.6

    def test_from_edges(self, triangle):
        assert triangle.num_nodes == 3
        assert triangle.num_edges == 3

    def test_self_loop_allowed(self):
        graph = WeightedDiGraph()
        graph.add_edge("a", "a", 0.4)
        assert graph.has_edge("a", "a")


class TestWeightValidation:
    @pytest.mark.parametrize("bad", [0.0, -0.1, float("nan"), float("inf")])
    def test_rejects_nonpositive_or_nonfinite(self, bad):
        graph = WeightedDiGraph()
        with pytest.raises(InvalidWeightError):
            graph.add_edge("a", "b", bad)

    def test_strict_rejects_weight_above_one(self):
        graph = WeightedDiGraph(strict=True)
        with pytest.raises(InvalidWeightError):
            graph.add_edge("a", "b", 1.5)

    def test_nonstrict_allows_weight_above_one(self):
        graph = WeightedDiGraph(strict=False)
        graph.add_edge("a", "b", 1.5)
        assert graph.weight("a", "b") == 1.5

    def test_strict_rejects_out_sum_above_one(self):
        graph = WeightedDiGraph(strict=True)
        graph.add_edge("a", "b", 0.7)
        with pytest.raises(InvalidWeightError):
            graph.add_edge("a", "c", 0.5)

    def test_strict_set_weight_respects_out_sum(self):
        graph = WeightedDiGraph(strict=True)
        graph.add_edge("a", "b", 0.5)
        graph.add_edge("a", "c", 0.5)
        with pytest.raises(InvalidWeightError):
            graph.set_weight("a", "b", 0.6)
        graph.set_weight("a", "b", 0.4)  # lowering is always fine
        assert graph.weight("a", "b") == 0.4

    def test_overwriting_edge_replaces_mass_not_adds(self):
        graph = WeightedDiGraph(strict=True)
        graph.add_edge("a", "b", 0.9)
        graph.add_edge("a", "b", 0.95)  # replaces, sum stays <= 1
        assert graph.out_weight_sum("a") == pytest.approx(0.95)


class TestQueries:
    def test_weight_missing_edge_raises(self, triangle):
        with pytest.raises(EdgeNotFoundError):
            triangle.weight("a", "c")

    def test_weight_or_zero(self, triangle):
        assert triangle.weight_or_zero("a", "c") == 0.0
        assert triangle.weight_or_zero("a", "b") == 0.5
        assert triangle.weight_or_zero("ghost", "b") == 0.0

    def test_successors_predecessors(self, triangle):
        assert triangle.successors("a") == {"b": 0.5}
        assert triangle.predecessors("a") == {"c": 0.9}

    def test_successors_returns_copy(self, triangle):
        succ = triangle.successors("a")
        succ["b"] = 99.0
        assert triangle.weight("a", "b") == 0.5

    def test_degrees(self, triangle):
        assert triangle.out_degree("a") == 1
        assert triangle.in_degree("a") == 1
        assert triangle.average_degree() == pytest.approx(1.0)

    def test_missing_node_raises(self, triangle):
        for method in ("successors", "predecessors", "out_degree", "in_degree",
                       "out_weight_sum"):
            with pytest.raises(NodeNotFoundError):
                getattr(triangle, method)("ghost")

    def test_contains_and_len(self, triangle):
        assert "a" in triangle
        assert "ghost" not in triangle
        assert len(triangle) == 3

    def test_edges_iteration(self, triangle):
        edges = {(e.head, e.tail): e.weight for e in triangle.edges()}
        assert edges == {("a", "b"): 0.5, ("b", "c"): 0.7, ("c", "a"): 0.9}

    def test_edge_keys(self, triangle):
        assert set(triangle.edge_keys()) == {("a", "b"), ("b", "c"), ("c", "a")}


class TestMutation:
    def test_remove_edge(self, triangle):
        triangle.remove_edge("a", "b")
        assert not triangle.has_edge("a", "b")
        assert triangle.num_edges == 2
        assert triangle.has_node("a")

    def test_remove_missing_edge_raises(self, triangle):
        with pytest.raises(EdgeNotFoundError):
            triangle.remove_edge("a", "c")

    def test_remove_node_removes_incident_edges(self, triangle):
        triangle.remove_node("b")
        assert triangle.num_nodes == 2
        assert triangle.num_edges == 1  # only c -> a survives
        assert triangle.has_edge("c", "a")

    def test_remove_missing_node_raises(self, triangle):
        with pytest.raises(NodeNotFoundError):
            triangle.remove_node("ghost")

    def test_set_weight_missing_edge_raises(self, triangle):
        with pytest.raises(EdgeNotFoundError):
            triangle.set_weight("a", "c", 0.1)

    def test_set_weight_updates_both_directions(self, triangle):
        triangle.set_weight("a", "b", 0.25)
        assert triangle.successors("a")["b"] == 0.25
        assert triangle.predecessors("b")["a"] == 0.25


class TestDerivedViews:
    def test_copy_is_independent(self, triangle):
        clone = triangle.copy()
        clone.set_weight("a", "b", 0.1)
        assert triangle.weight("a", "b") == 0.5
        clone.add_edge("a", "z", 0.2)
        assert not triangle.has_node("z")

    def test_adjacency_matrix_of_edgeless_graphs(self):
        assert WeightedDiGraph().adjacency_matrix().shape == (0, 0)
        graph = WeightedDiGraph()
        graph.add_node("a")
        graph.add_node("b")
        matrix = graph.adjacency_matrix()
        assert matrix.shape == (2, 2)
        assert matrix.nnz == 0
        assert matrix.indptr.tolist() == [0, 0, 0]

    def test_csr_leaves_out_nodes_outside_the_index(self, triangle):
        matrix = triangle.csr({"c": 0, "a": 1})
        # Only c -> a survives: a -> b and b -> c touch b.
        assert matrix.toarray().tolist() == [[0.0, 0.0], [0.9, 0.0]]

    def test_node_index_is_stable_and_cached(self, triangle):
        idx1 = triangle.node_index()
        idx2 = triangle.node_index()
        assert idx1 is idx2
        assert sorted(idx1.values()) == [0, 1, 2]

    def test_node_index_invalidated_by_node_changes(self, triangle):
        idx1 = triangle.node_index()
        triangle.add_node("d")
        idx2 = triangle.node_index()
        assert idx1 is not idx2
        assert "d" in idx2

    def test_adjacency_matrix_transposes_weights(self, triangle):
        index = triangle.node_index()
        matrix = triangle.adjacency_matrix().toarray()
        # M[i, j] = w(v_j, v_i) per the PPR equation in the paper.
        assert matrix[index["b"], index["a"]] == 0.5
        assert matrix[index["c"], index["b"]] == 0.7
        assert matrix[index["a"], index["c"]] == 0.9
        assert np.count_nonzero(matrix) == 3

    def test_subgraph(self, triangle):
        sub = triangle.subgraph(["a", "b"])
        assert sub.num_nodes == 2
        assert sub.num_edges == 1
        assert sub.weight("a", "b") == 0.5

    def test_subgraph_missing_node_raises(self, triangle):
        with pytest.raises(NodeNotFoundError):
            triangle.subgraph(["a", "ghost"])

    def test_networkx_round_trip(self, triangle):
        nx_graph = triangle.to_networkx()
        back = WeightedDiGraph.from_networkx(nx_graph)
        assert {(e.head, e.tail, e.weight) for e in back.edges()} == {
            (e.head, e.tail, e.weight) for e in triangle.edges()
        }


def _succ_rows(graph):
    return [(node, list(graph.successors(node).items())) for node in graph.nodes()]


def _pred_rows(graph):
    return [(node, list(graph.predecessors(node).items())) for node in graph.nodes()]


def _replayed(source):
    """The graph ``add_node``/``add_edge`` build from ``source``, one by one."""
    graph = WeightedDiGraph()
    for node in source.nodes():
        graph.add_node(node)
    for edge in source.edges():
        graph.add_edge(edge.head, edge.tail, edge.weight)
    return graph


@pytest.fixture
def reordered():
    """A graph whose in-edge order differs from successor-iteration order.

    ``a`` precedes ``b`` as a node, but ``b -> x`` was inserted first, so
    ``x``'s predecessors read ``b, a`` while walking successors meets
    ``a -> x`` first.  One weight update leaves a non-zero weight version.
    """
    graph = WeightedDiGraph()
    graph.add_node("a")
    graph.add_edge("b", "x", 0.5)
    graph.add_edge("a", "x", 0.25)
    graph.add_edge("a", "y", 0.5)
    graph.add_node("lonely")
    graph.set_weight("b", "x", 0.4)
    assert list(graph.predecessors("x")) == ["b", "a"]
    return graph


class TestCopySemantics:
    def test_succ_kept_and_pred_in_successor_order(self, reordered):
        clone = reordered.copy()
        assert list(clone.nodes()) == list(reordered.nodes())
        assert _succ_rows(clone) == _succ_rows(reordered)
        assert list(clone.predecessors("x")) == ["a", "b"]
        assert _pred_rows(clone) == _pred_rows(_replayed(reordered))

    def test_counts_versions_and_strictness(self, reordered):
        clone = reordered.copy()
        assert clone.num_edges == reordered.num_edges == 3
        assert clone.num_nodes == reordered.num_nodes
        # One structure version per node, no weight versions: the same
        # counters as copying node by node.
        assert clone.structure_version == reordered.num_nodes
        assert clone.weight_version == 0
        assert clone.strict
        lax = WeightedDiGraph(strict=False)
        lax.add_edge("a", "b", 1.5)
        assert not lax.copy().strict

    def test_clone_writes_leave_source_version(self, reordered):
        version = reordered.version
        clone = reordered.copy()
        clone.set_weight("a", "x", 0.3)
        clone.add_edge("y", "a", 0.1)
        assert reordered.version == version

    def test_no_inner_dict_shared(self, reordered):
        before_succ = _succ_rows(reordered)
        before_pred = _pred_rows(reordered)
        clone = reordered.copy()
        clone.set_weight("a", "x", 0.3)
        clone.remove_edge("b", "x")
        clone.add_edge("lonely", "x", 0.2)
        clone.remove_node("y")
        assert _succ_rows(reordered) == before_succ
        assert _pred_rows(reordered) == before_pred
        assert reordered.num_edges == 3
