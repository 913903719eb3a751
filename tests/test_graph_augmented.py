"""Unit tests for query/answer augmentation."""

import pytest

from repro.errors import AugmentationError, NodeNotFoundError
from repro.graph import AugmentedGraph, WeightedDiGraph
from repro.graph.augmented import attach_queries_and_answers


@pytest.fixture
def kg():
    return WeightedDiGraph.from_edges(
        [
            ("email", "outbox", 0.4),
            ("email", "send", 0.5),
            ("outbox", "send", 0.6),
            ("send", "outlook", 0.3),
            ("outlook", "email", 0.2),
        ]
    )


@pytest.fixture
def aug(kg):
    graph = AugmentedGraph(kg)
    graph.add_query("q1", {"email": 1, "outbox": 1, "send": 2})
    graph.add_answer("a1", {"outlook": 3})
    graph.add_answer("a2", {"send": 1, "outlook": 1})
    return graph


class TestRoles:
    def test_entity_nodes(self, aug, kg):
        assert aug.entity_nodes == frozenset(kg.nodes())

    def test_query_and_answer_nodes(self, aug):
        assert aug.query_nodes == frozenset({"q1"})
        assert aug.answer_nodes == frozenset({"a1", "a2"})

    def test_role_predicates(self, aug):
        assert aug.is_entity("email")
        assert aug.is_query("q1")
        assert aug.is_answer("a1")
        assert not aug.is_entity("q1")
        assert not aug.is_query("a1")


class TestAttachment:
    def test_query_links_normalized(self, aug):
        links = aug.query_links("q1")
        assert links == pytest.approx({"email": 0.25, "outbox": 0.25, "send": 0.5})
        assert sum(links.values()) == pytest.approx(1.0)

    def test_answer_links_normalized_per_answer(self, aug):
        assert aug.answer_links("a1") == pytest.approx({"outlook": 1.0})
        assert aug.answer_links("a2") == pytest.approx({"send": 0.5, "outlook": 0.5})

    def test_answers_are_sinks(self, aug):
        assert aug.graph.out_degree("a1") == 0
        assert aug.graph.out_degree("a2") == 0

    def test_duplicate_id_rejected(self, aug):
        with pytest.raises(AugmentationError):
            aug.add_query("q1", {"email": 1})
        with pytest.raises(AugmentationError):
            aug.add_answer("email", {"send": 1})

    def test_unknown_entity_rejected(self, aug):
        with pytest.raises(AugmentationError):
            aug.add_query("q2", {"ghost": 1})

    def test_empty_counts_rejected(self, aug):
        with pytest.raises(AugmentationError):
            aug.add_query("q2", {})

    def test_nonpositive_counts_rejected(self, aug):
        with pytest.raises(AugmentationError):
            aug.add_query("q2", {"email": 0})

    def test_remove_query(self, aug):
        aug.remove_query("q1")
        assert "q1" not in aug.query_nodes
        assert not aug.graph.has_node("q1")

    def test_remove_answer(self, aug):
        aug.remove_answer("a2")
        assert not aug.graph.has_node("a2")
        assert aug.graph.out_degree("send") == 1  # only the KG edge remains

    def test_remove_missing_raises(self, aug):
        with pytest.raises(NodeNotFoundError):
            aug.remove_query("ghost")
        with pytest.raises(NodeNotFoundError):
            aug.remove_answer("q1")


class TestKgEdgeAccess:
    def test_is_kg_edge(self, aug):
        assert aug.is_kg_edge("email", "outbox")
        assert not aug.is_kg_edge("q1", "email")
        assert not aug.is_kg_edge("send", "a2")
        assert not aug.is_kg_edge("email", "send") or aug.graph.has_edge("email", "send")

    def test_kg_edges_excludes_links(self, aug, kg):
        kg_edges = {(e.head, e.tail) for e in aug.kg_edges()}
        assert kg_edges == set(kg.edge_keys())

    def test_set_kg_weight(self, aug):
        aug.set_kg_weight("email", "outbox", 0.35)
        assert aug.kg_weight("email", "outbox") == 0.35
        assert aug.graph.weight("email", "outbox") == 0.35

    def test_set_link_weight_rejected(self, aug):
        with pytest.raises(AugmentationError):
            aug.set_kg_weight("q1", "email", 0.5)
        with pytest.raises(AugmentationError):
            aug.set_kg_weight("send", "a2", 0.5)

    def test_kg_view_is_detached(self, aug, kg):
        view = aug.kg_view()
        assert view.num_nodes == kg.num_nodes
        assert view.num_edges == kg.num_edges
        view.set_weight("email", "outbox", 0.01)
        assert aug.kg_weight("email", "outbox") == 0.4

    def test_original_kg_not_mutated(self, aug, kg):
        aug.set_kg_weight("email", "outbox", 0.1)
        assert kg.weight("email", "outbox") == 0.4


class TestCopy:
    def test_copy_independent(self, aug):
        clone = aug.copy()
        clone.set_kg_weight("email", "outbox", 0.05)
        assert aug.kg_weight("email", "outbox") == 0.4
        assert clone.query_nodes == aug.query_nodes


class TestPersistentVersion:
    def test_query_churn_leaves_it(self, aug):
        version = aug.persistent_version
        aug.add_query("q2", {"send": 1})
        aug.remove_query("q1")
        assert aug.persistent_version == version
        assert aug.version > version  # the graph itself did move

    @pytest.mark.parametrize(
        "write",
        [
            lambda aug: aug.set_kg_weight("email", "outbox", 0.1),
            lambda aug: aug.add_answer("a3", {"email": 1}),
            lambda aug: aug.remove_answer("a1"),
            # Direct graph writes move it, query links included.
            lambda aug: aug.graph.set_weight("q1", "send", 0.9),
            lambda aug: aug.graph.remove_edge("email", "send"),
        ],
    )
    def test_every_other_write_moves_it(self, aug, write):
        version = aug.persistent_version
        write(aug)
        assert aug.persistent_version != version

    def test_unknown_while_churn_runs(self, aug):
        # What a reader on another thread sees mid attach or detach.
        seen = []
        add_edge, remove_edge = aug.graph.add_edge, aug.graph.remove_edge
        aug.graph.add_edge = lambda *args: (
            seen.append(aug.persistent_version), add_edge(*args)
        )
        aug.graph.remove_edge = lambda *args: (
            seen.append(aug.persistent_version), remove_edge(*args)
        )
        version = aug.persistent_version
        aug.add_query("q2", {"send": 1, "email": 1})
        aug.remove_query("q2")
        assert len(seen) == 4 and set(seen) == {None}
        assert aug.persistent_version == version

    def test_failed_attach_keeps_count(self, aug):
        version = aug.persistent_version
        with pytest.raises(AugmentationError):
            aug.add_query("q2", {"nowhere": 1})
        assert aug.persistent_version == version

    def test_copy_counts_its_own(self, aug):
        clone = aug.copy()
        version = clone.persistent_version
        assert version is not None
        clone.add_query("q2", {"send": 1})
        assert clone.persistent_version == version


class TestBulkAttach:
    def test_attach_queries_and_answers(self, kg):
        aug = attach_queries_and_answers(
            kg,
            queries={"q1": {"email": 1}},
            answers={"a1": {"send": 2}},
        )
        assert aug.query_nodes == frozenset({"q1"})
        assert aug.answer_nodes == frozenset({"a1"})

    def test_skip_unlinkable(self, kg):
        aug = attach_queries_and_answers(
            kg,
            queries={"q1": {"ghost": 1}, "q2": {"email": 1}},
            answers={"a1": {"nothing": 5}},
            skip_unlinkable=True,
        )
        assert aug.query_nodes == frozenset({"q2"})
        assert aug.answer_nodes == frozenset()

    def test_unlinkable_raises_without_skip(self, kg):
        with pytest.raises(AugmentationError):
            attach_queries_and_answers(
                kg, queries={"q1": {"ghost": 1}}, answers={}
            )

    def test_skip_unlinkable_keeps_only_known_entities(self, kg):
        aug = attach_queries_and_answers(
            kg,
            queries={"q1": {"email": 1, "ghost": 3}, "q2": {"ghost": 2}},
            answers={"a1": {"send": 1, "nowhere": 1}, "a2": {"nothing": 5}},
            skip_unlinkable=True,
        )
        assert aug.query_nodes == frozenset({"q1"})
        assert aug.answer_nodes == frozenset({"a1"})
        # Unknown entities are dropped before normalising.
        assert aug.query_links("q1") == {"email": 1.0}
        assert aug.answer_links("a1") == {"send": 1.0}
        assert aug.entity_nodes == frozenset(kg.nodes())

    def test_query_ids_are_not_entities_for_later_links(self, kg):
        # A query attached earlier must not count as a linkable entity.
        aug = attach_queries_and_answers(
            kg,
            queries={"q1": {"email": 1}},
            answers={"a1": {"q1": 1}},
            skip_unlinkable=True,
        )
        assert aug.answer_nodes == frozenset()


def _rows(graph, neighbours):
    return [(node, list(neighbours(node).items())) for node in graph.nodes()]


class TestConstructionFromKg:
    """``AugmentedGraph(kg)`` equals inserting kg node by node, edge by edge."""

    @pytest.fixture
    def source(self):
        # ``outbox`` precedes ``send`` as a node, but ``send -> outlook``
        # is inserted before ``outbox -> outlook``: kg's in-edge order
        # at ``outlook`` differs from its successor-iteration order.
        graph = WeightedDiGraph()
        graph.add_node("email")
        graph.add_node("outbox")
        graph.add_edge("send", "outlook", 0.3)
        graph.add_edge("outbox", "outlook", 0.6)
        graph.add_edge("email", "outbox", 0.4)
        graph.add_node("isolated")
        graph.set_weight("send", "outlook", 0.35)
        return graph

    def test_matches_replay(self, source):
        replay = WeightedDiGraph(strict=False)
        for node in source.nodes():
            replay.add_node(node)
        for edge in source.edges():
            replay.add_edge(edge.head, edge.tail, edge.weight)
        aug = AugmentedGraph(source)
        graph = aug.graph
        assert _rows(graph, graph.successors) == _rows(replay, replay.successors)
        assert _rows(graph, graph.predecessors) == _rows(
            replay, replay.predecessors
        )
        assert list(graph.predecessors("outlook")) == ["outbox", "send"]
        assert graph.num_edges == replay.num_edges == 3
        assert aug.version == replay.version
        assert graph.structure_version == replay.structure_version
        assert graph.weight_version == 0
        assert not graph.strict
        assert source.strict
        assert aug.entity_nodes == frozenset(source.nodes())
        assert aug.query_nodes == aug.answer_nodes == frozenset()

    def test_detached_from_kg(self, source):
        version = source.version
        before = (
            _rows(source, source.successors),
            _rows(source, source.predecessors),
        )
        aug = AugmentedGraph(source)
        aug.set_kg_weight("email", "outbox", 0.1)
        aug.graph.remove_edge("outbox", "outlook")
        aug.add_answer("a1", {"outlook": 1})
        assert source.version == version
        assert (
            _rows(source, source.successors),
            _rows(source, source.predecessors),
        ) == before
        assert source.num_edges == 3
