"""Shared workload builders for the table/figure benchmarks.

Every benchmark regenerates one table or figure of the paper on a
scaled-down workload (the paper's runs take minutes to hours on a 2015
laptop with MATLAB; these finish in seconds) and prints the reproduced
rows with ``report()`` so they survive pytest's capture settings.
Absolute numbers differ from the paper — synthetic data, scipy instead
of ``fmincon``, smaller graphs — but each bench prints the *shape* the
paper claims next to the measurement so the comparison is one glance.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.graph import AugmentedGraph, helpdesk_graph
from repro.graph.generators import perturb_weights
from repro.votes import GroundTruthOracle, generate_votes_from_oracle


#: Reproduced tables accumulated during the run; flushed to the real
#: terminal by :func:`pytest_terminal_summary` (pytest captures stdout at
#: the file-descriptor level, so printing directly would be swallowed).
_REPORTS: list[str] = []


def report(text: str) -> None:
    """Queue a reproduced table for the end-of-run summary."""
    _REPORTS.append(text)


def engine_series(engine) -> dict[str, object]:
    """Snapshot of ``engine``'s ``engine_*`` registry series, by name.

    Counters and gauges read as floats; a histogram as its
    ``count``/``sum``/``buckets`` dict.
    """
    label = engine.engine_label
    return {
        metric.name: metric.snapshot_value()
        for metric in engine.registry.series().values()
        if metric.labels.get("engine") == label
    }


def pytest_terminal_summary(terminalreporter):
    if not _REPORTS:
        return
    terminalreporter.section("reproduced tables & figures")
    for text in _REPORTS:
        terminalreporter.write_line("")
        for line in text.splitlines():
            terminalreporter.write_line(line)


def attach_queries_answers(kg, *, num_queries, num_answers, seed):
    """Attach random queries/answers (identical layout across variants)."""
    aug = AugmentedGraph(kg)
    entities = sorted(kg.nodes())
    rng = np.random.default_rng(seed)
    for i in range(num_answers):
        picks = rng.choice(len(entities), size=3, replace=False)
        aug.add_answer(f"a{i}", {entities[int(p)]: 1 for p in picks})
    for i in range(num_queries):
        picks = rng.choice(len(entities), size=2, replace=False)
        aug.add_query(f"q{i}", {entities[int(p)]: 1 for p in picks})
    return aug


class EffectivenessWorkload:
    """The Taobao-style effectiveness scenario shared by Tables III-V / Fig. 5.

    A ground-truth helpdesk KG generates user judgments; the deployed
    graph is a noise-corrupted copy; votes come from an oracle over the
    truth; a held-out split provides expert test pairs.
    """

    def __init__(self, *, seed=11, noise=1.5, num_vote_queries=24,
                 num_test_queries=30, num_answers=16, k=8):
        truth_kg, _ = helpdesk_graph(
            num_topics=6, entities_per_topic=10, seed=seed
        )
        corrupted = perturb_weights(truth_kg, noise=noise, seed=seed + 1)
        total = num_vote_queries + num_test_queries
        self.truth = attach_queries_answers(
            truth_kg, num_queries=total, num_answers=num_answers, seed=seed + 2
        )
        self.deployed = attach_queries_answers(
            corrupted, num_queries=total, num_answers=num_answers, seed=seed + 2
        )
        self.k = k
        vote_queries = [f"q{i}" for i in range(num_vote_queries)]
        self.test_queries = [f"q{i}" for i in range(num_vote_queries, total)]
        self.oracle = GroundTruthOracle(self.truth)
        self.votes = generate_votes_from_oracle(
            self.deployed, self.oracle, queries=vote_queries, k=k, seed=seed + 3
        )
        candidates = sorted(self.truth.answer_nodes, key=repr)
        self.test_pairs = {
            q: self.oracle.best_answer(q, candidates) for q in self.test_queries
        }


@pytest.fixture(scope="session")
def effectiveness_workload():
    """One shared effectiveness scenario for the quality benchmarks."""
    return EffectivenessWorkload()
