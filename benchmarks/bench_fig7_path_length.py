"""Fig. 7 — impact of the path-pruning threshold L.

(a) ``PD(L_i, L_{i+1})`` — the relative gain in summed top-k similarity
    when the pruning threshold grows — for (2,3), (3,4), (4,5), (5,6);
    the paper observes it "becomes slim when L_i is 5", justifying
    L = 5.
(b) elapsed optimization time vs L ∈ {2..6}: the walk enumeration (and
    hence the SGP constraint size) grows as ``O(d^L)``, so the cost
    accelerates with L.

The workload follows the paper's setting (one query, top-20 answers,
Section VII-E) on a denser graph whose per-step mass decay makes the
tail behaviour visible at laptop scale: long walks carry vanishing
probability because every step multiplies by ``(1 − c) · out_mass``.
"""

import time

from conftest import report

import numpy as np

from repro.eval.metrics import percentage_difference
from repro.graph import AugmentedGraph, random_digraph
from repro.optimize import solve_multi_vote
from repro.serving import SimilarityParams
from repro.similarity import similarity_profile
from repro.utils.tables import format_table
from repro.votes import generate_synthetic_votes

L_PAIRS = ((2, 3), (3, 4), (4, 5), (5, 6))
L_SWEEP = (2, 3, 4, 5, 6)
TOP_K = 20
NUM_QUERIES = 8
SEED = 29

#: (graph label, node count, avg degree, out_mass) — three profiles in
#: the spirit of the paper's three datasets, differing in density.
PROFILES = (
    ("dense", 400, 6.0, 0.7),
    ("medium", 700, 4.0, 0.7),
    ("sparse", 1000, 3.0, 0.7),
)


def _build(nodes, degree, out_mass, *, num_answers=60, num_queries=NUM_QUERIES,
           seed=SEED):
    kg = random_digraph(nodes, degree, seed=seed, out_mass=out_mass)
    aug = AugmentedGraph(kg)
    labels = sorted(kg.nodes())
    rng = np.random.default_rng(seed + 1)
    for a in range(num_answers):
        picks = rng.choice(len(labels), size=3, replace=False)
        aug.add_answer(f"ans{a}", {labels[int(i)]: 1 for i in picks})
    for q in range(num_queries):
        picks = rng.choice(len(labels), size=2, replace=False)
        aug.add_query(f"qry{q}", {labels[int(i)]: 1 for i in picks})
    return aug


def bench_fig7a_percentage_difference(benchmark):
    """Average PD(L_i, L_{i+1}) over several queries per graph profile."""
    results = {}

    def run_all():
        lengths = sorted({l for pair in L_PAIRS for l in pair})
        for label, nodes, degree, out_mass in PROFILES:
            aug = _build(nodes, degree, out_mass)
            answers = sorted(aug.answer_nodes, key=repr)
            pd_sums = {pair: [] for pair in L_PAIRS}
            for q in range(NUM_QUERIES):
                profile = similarity_profile(
                    aug.graph, f"qry{q}", answers, lengths=lengths
                )
                sums = {
                    length: sum(sorted(s.values(), reverse=True)[:TOP_K])
                    for length, s in profile.items()
                }
                for li, lj in L_PAIRS:
                    if sums[li] > 0:
                        pd_sums[(li, lj)].append(
                            percentage_difference(sums[li], sums[lj])
                        )
            results[label] = {
                pair: float(np.mean(values)) if values else float("nan")
                for pair, values in pd_sums.items()
            }
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = [
        [label] + [f"{pd[pair]:.2%}" for pair in L_PAIRS]
        for label, pd in results.items()
    ]
    report(
        format_table(
            ["Graph"] + [f"PD{pair}" for pair in L_PAIRS],
            rows,
            title=(
                "Fig. 7(a): mean percentage difference of summed top-20 "
                "similarity between pruning thresholds (paper: shrinking, "
                "slim by (5,6))"
            ),
        )
    )
    for label, pd in results.items():
        # The marginal gain shrinks with L and is small by (5, 6).
        assert pd[(5, 6)] <= pd[(2, 3)] + 1e-9, label
        assert pd[(5, 6)] < 0.10, label


def bench_fig7b_elapsed_vs_length(benchmark):
    """Optimization time vs L: encoding is O(d^L), so cost accelerates."""
    timings = {}

    def run_all():
        aug = _build(400, 6.0, 0.7, num_answers=40, num_queries=3)
        votes = generate_synthetic_votes(
            aug, k=6, negative_fraction=1.0, avg_negative_position=3,
            seed=SEED + 2,
        )
        for length in L_SWEEP:
            start = time.perf_counter()
            solve_multi_vote(
                aug,
                votes,
                params=SimilarityParams(max_length=length),
                feasibility_filter=False,
            )
            timings[length] = time.perf_counter() - start
        return timings

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = [[f"L = {length}", f"{elapsed:.2f}s"] for length, elapsed in timings.items()]
    report(
        format_table(
            ["Pruning threshold", "Elapsed"],
            rows,
            title=(
                "Fig. 7(b): graph-optimization time vs L (paper: accelerated "
                "growth, impractical beyond L = 5)"
            ),
        )
    )
    # Accelerated growth: each step up in L costs at least as much, and
    # the largest L is decisively the most expensive.
    assert timings[6] > timings[2] * 3
    assert timings[6] >= timings[5] >= timings[4] * 0.8
