"""The runtime contract checker: each contract fires on a seeded
violation, stays silent on valid data, and costs nothing when disabled.

The whole suite runs with contracts armed (``tests/conftest.py``), so
every other test doubles as a no-false-positive proof; this module adds
the direct positive/negative evidence per contract plus property-based
coverage that the optimizer's normalize path keeps the row-stochastic
contract green on random graphs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devtools.contracts import (
    ContractViolation,
    check_finite_csr_data,
    check_monotone_deviations,
    check_row_stochastic,
    check_weight_bounds,
    contracts_enabled,
    disable_contracts,
    enable_contracts,
)
from repro.errors import ReproError
from repro.graph import AugmentedGraph, WeightedDiGraph
from repro.graph.normalize import out_weight_sums
from repro.optimize.apply import apply_edge_weights


@pytest.fixture(autouse=True)
def _contracts_on():
    """Arm contracts for every test here, restoring the prior state.

    Restores in *both* directions: tests here flip the switch mid-test
    (e.g. ``test_disabled_checks_are_noops``), and leaving it off would
    silently disarm every contract seam for the rest of the suite.
    """
    was_enabled = contracts_enabled()
    enable_contracts()
    yield
    if was_enabled:
        enable_contracts()
    else:
        disable_contracts()


def _sub_stochastic_graph():
    return WeightedDiGraph.from_edges(
        [("a", "b", 0.4), ("a", "c", 0.5), ("b", "c", 1.0)]
    )


# ----------------------------------------------------------------------
# the switch
# ----------------------------------------------------------------------
class TestSwitch:
    def test_enable_disable_roundtrip(self):
        enable_contracts()
        assert contracts_enabled()
        disable_contracts()
        assert not contracts_enabled()
        enable_contracts()
        assert contracts_enabled()

    def test_disabled_checks_are_noops(self):
        disable_contracts()
        # Flagrant violations pass silently when the switch is off.
        check_weight_bounds(np.array([5.0]), 0.1, 1.0)
        check_monotone_deviations(np.array([np.inf]))
        check_finite_csr_data(np.array([np.nan]))

    def test_violation_is_repro_and_assertion_error(self):
        with pytest.raises(ContractViolation) as excinfo:
            check_weight_bounds(np.array([5.0]), 0.1, 1.0, seam="test")
        assert isinstance(excinfo.value, ReproError)
        assert isinstance(excinfo.value, AssertionError)
        assert "test" in str(excinfo.value)


# ----------------------------------------------------------------------
# check_row_stochastic
# ----------------------------------------------------------------------
class TestRowStochastic:
    def test_valid_graph_passes(self):
        check_row_stochastic(_sub_stochastic_graph())

    def test_mass_above_one_fires(self):
        graph = WeightedDiGraph.from_edges(
            [("a", "b", 0.9), ("a", "c", 0.9)], strict=False
        )
        with pytest.raises(ContractViolation, match="exceeds 1"):
            check_row_stochastic(graph, seam="seeded")

    def test_expected_reference_mismatch_fires(self):
        graph = _sub_stochastic_graph()
        with pytest.raises(ContractViolation, match="drifted"):
            check_row_stochastic(
                graph, nodes=["a"], expected={"a": 0.5}, seam="seeded"
            )

    def test_expected_reference_match_passes(self):
        graph = _sub_stochastic_graph()
        check_row_stochastic(graph, nodes=["a"], expected={"a": 0.9})

    def test_edge_filter_excludes_mass(self):
        graph = WeightedDiGraph.from_edges(
            [("a", "b", 0.9), ("a", "qlink", 0.9)], strict=False
        )
        with pytest.raises(ContractViolation):
            check_row_stochastic(graph, seam="seeded")
        # Filtering out the non-KG edge restores validity.
        check_row_stochastic(
            graph, edge_filter=lambda head, tail: tail != "qlink"
        )


# ----------------------------------------------------------------------
# check_weight_bounds
# ----------------------------------------------------------------------
class TestWeightBounds:
    def test_inside_box_passes(self):
        check_weight_bounds(np.array([0.2, 0.5, 1.0]), 0.1, 1.0)

    def test_below_lower_fires(self):
        with pytest.raises(ContractViolation, match="below"):
            check_weight_bounds(np.array([0.05]), 0.1, 1.0, seam="seeded")

    def test_above_upper_fires(self):
        with pytest.raises(ContractViolation, match="above"):
            check_weight_bounds(np.array([1.5]), 0.1, 1.0, seam="seeded")

    def test_non_finite_fires(self):
        with pytest.raises(ContractViolation, match="not finite"):
            check_weight_bounds(np.array([np.nan]), 0.1, 1.0, seam="seeded")

    def test_non_positive_lower_fires(self):
        with pytest.raises(ContractViolation, match="strictly positive"):
            check_weight_bounds(np.array([0.5]), 0.0, 1.0, seam="seeded")

    def test_inverted_bounds_fire(self):
        with pytest.raises(ContractViolation, match="inverted"):
            check_weight_bounds(np.array([0.5]), 0.9, 0.1, seam="seeded")

    @given(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16),
        st.floats(1e-6, 0.4),
        st.floats(0.6, 1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_clipping_always_satisfies_box(self, values, lower, upper):
        x = np.clip(np.asarray(values), lower, upper)
        check_weight_bounds(x, lower, upper)


# ----------------------------------------------------------------------
# check_monotone_deviations
# ----------------------------------------------------------------------
class TestDeviations:
    def test_small_deviations_pass(self):
        check_monotone_deviations(np.array([-0.3, 0.0, 0.7]))

    def test_empty_passes(self):
        check_monotone_deviations(np.zeros(0))

    def test_beyond_cap_fires(self):
        with pytest.raises(ContractViolation, match="exceeds the encoder cap"):
            check_monotone_deviations(np.array([2e6]), seam="seeded")

    def test_non_finite_fires(self):
        with pytest.raises(ContractViolation, match="not finite"):
            check_monotone_deviations(np.array([np.nan]), seam="seeded")


# ----------------------------------------------------------------------
# check_finite_csr_data
# ----------------------------------------------------------------------
class TestCsrData:
    def test_positive_buffer_passes(self):
        check_finite_csr_data(np.array([0.1, 0.9, 1.0]))

    def test_nan_entry_fires(self):
        with pytest.raises(ContractViolation, match="CSR data"):
            check_finite_csr_data(np.array([0.1, np.nan]), seam="seeded")

    def test_zero_entry_fires(self):
        with pytest.raises(ContractViolation, match="CSR data"):
            check_finite_csr_data(np.array([0.0]), seam="seeded")

    def test_positions_scope_the_check(self):
        data = np.array([np.nan, 0.5, 0.7])
        # Only the patched positions are inspected...
        check_finite_csr_data(data, positions=[1, 2])
        # ...and a bad patched position still fires.
        with pytest.raises(ContractViolation):
            check_finite_csr_data(data, positions=[0], seam="seeded")


# ----------------------------------------------------------------------
# property: the optimizer's normalize path keeps the contract green
# ----------------------------------------------------------------------
@st.composite
def _graph_and_patch(draw):
    """A small augmented graph plus a random patch of its KG weights."""
    num_nodes = draw(st.integers(3, 7))
    nodes = [f"n{i}" for i in range(num_nodes)]
    edges = []
    for head_idx, head in enumerate(nodes):
        num_out = draw(st.integers(1, min(3, num_nodes - 1)))
        tails = draw(
            st.permutations(
                [n for n in nodes if n != head]
            ).map(lambda p, k=num_out: p[:k])
        )
        raw = [draw(st.floats(0.05, 1.0)) for _ in tails]
        mass = draw(st.floats(0.3, 1.0))
        scale = mass / sum(raw)
        edges.extend(
            (head, tail, weight * scale) for tail, weight in zip(tails, raw)
        )
    patch = {
        (head, tail): draw(st.floats(0.01, 2.0))
        for head, tail, _ in edges
        if draw(st.booleans())
    }
    return edges, patch


class TestNormalizePathProperty:
    @given(_graph_and_patch())
    @settings(max_examples=40, deadline=None)
    def test_apply_edge_weights_preserves_mass(self, graph_and_patch):
        edges, patch = graph_and_patch
        kg = WeightedDiGraph.from_edges(edges, strict=False)
        aug = AugmentedGraph(kg)
        before = out_weight_sums(
            aug.graph,
            {head for head, _ in patch},
            edge_filter=aug.is_kg_edge,
        )
        # The row-stochastic contract runs inside apply_edge_weights
        # (contracts are armed by the autouse fixture): no raise means
        # NormalizeEdges conserved every touched node's mass.
        apply_edge_weights(aug, patch, normalize=True)
        after = out_weight_sums(
            aug.graph, before.keys(), edge_filter=aug.is_kg_edge
        )
        for node, mass in before.items():
            assert after[node] == pytest.approx(mass, rel=1e-9)

    def test_engine_patch_contract_fires_on_corruption(self):
        """A seeded NaN reaching the engine's patch path is caught."""
        from repro.serving.engine import SimilarityEngine

        kg = _sub_stochastic_graph()
        aug = AugmentedGraph(kg)
        aug.add_answer("ans", {"c": 1})
        aug.add_query("q", {"a": 1})
        engine = SimilarityEngine(aug)
        engine.scores_for_query("q", ["ans"])  # build the matrix
        kg.set_weight("a", "b", 0.40001)  # valid in-place weight patch
        engine.scores_for_query("q", ["ans"])  # flushes the patch: must pass
        with pytest.raises(ContractViolation):
            # Corrupt the cached buffer directly (bypassing the graph's
            # own validation) and force a re-check.
            engine._current.matrix.data[0] = np.nan  # noqa - test-only corruption
            check_finite_csr_data(engine._current.matrix.data, seam="seeded")
