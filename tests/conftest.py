"""Shared fixtures: the paper's Fig. 1 worked example and small graphs."""

import os

import pytest

from repro.graph import AugmentedGraph, WeightedDiGraph

# Run the whole suite with runtime contracts armed (unless the caller
# explicitly disabled them): the tier-1 tests double as the contracts'
# no-false-positive proof.  Set REPRO_CONTRACTS=0 to measure baselines.
if os.environ.get("REPRO_CONTRACTS", "") not in ("0", "false", "no", "off"):
    from repro.devtools.contracts import enable_contracts

    enable_contracts()


@pytest.fixture
def fig1_kg():
    """The entity graph of the paper's Fig. 1 / Section IV-A example.

    Edge weights are the ones used in the worked similarity computation
    for S(v_q, v_a3): Outbox->Email 0.3, Outbox->SendMessage 0.5,
    Email->Outbox 0.4, Email->SendMessage 0.6, SendMessage->Outlook 0.3.
    """
    return WeightedDiGraph.from_edges(
        [
            ("Outbox", "Email", 0.3),
            ("Outbox", "SendMessage", 0.5),
            ("Email", "Outbox", 0.4),
            ("Email", "SendMessage", 0.6),
            ("SendMessage", "Outlook", 0.3),
        ],
        strict=False,
    )


@pytest.fixture
def fig1_aug(fig1_kg):
    """Fig. 1 knowledge graph augmented with the example query and answer.

    The query links to Outbox and Email with weight 0.33 each (the paper
    rounds 1/3 to 0.33 and we follow it so the worked numbers match);
    answer a3 hangs off Outlook with weight 1.
    """
    aug = AugmentedGraph(fig1_kg)
    # add_query normalizes counts; equal counts give 0.5 each, so instead
    # attach with explicit counts then rescale to the paper's 0.33.
    aug.add_query("q", {"Outbox": 1, "Email": 1})
    graph = aug.graph
    graph.set_weight("q", "Outbox", 0.33)
    graph.set_weight("q", "Email", 0.33)
    aug.add_answer("a3", {"Outlook": 1})
    return aug


@pytest.fixture
def fig1_expected_a3():
    """Hand-computed S(v_q, v_a3) truncated at L = 5 (Section IV-A).

    Exactly four walks of at most five edges reach a3; the paper lists
    all four (its trailing "+ ..." covers longer, pruned walks).
    """
    c = 0.15
    return (
        (0.33 * 0.3 * 0.6 * 0.3 * 1.0) * c * (1 - c) ** 5
        + (0.33 * 0.5 * 0.3 * 1.0) * c * (1 - c) ** 4
        + (0.33 * 0.4 * 0.5 * 0.3 * 1.0) * c * (1 - c) ** 5
        + (0.33 * 0.6 * 0.3 * 1.0) * c * (1 - c) ** 4
    )


@pytest.fixture
def forced_delta_fallback(monkeypatch):
    """Every delta revalidation falls back for the test's duration.

    A density budget of 0 refuses every nonzero weight patch, so the
    engine drops its dense cache entries and the next serve recomputes
    them: the bitwise cold path.
    """
    monkeypatch.setattr(
        "repro.serving.engine.DEFAULT_DELTA_DENSITY_THRESHOLD", 0.0
    )
