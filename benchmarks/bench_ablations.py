"""Ablations of the design choices DESIGN.md calls out.

Not a paper table — these quantify the knobs the paper fixes by fiat:

- sigmoid steepness w (paper: 300);
- λ1/λ2 preference trade-off (paper: 0.5/0.5);
- feasibility filter on/off with erroneous votes injected;
- merge rule: the paper's vote-count-weighted extremum vs plain
  averaging;
- AP clustering vs fixed-size chunking for the split step.
"""

from conftest import EffectivenessWorkload, report

import numpy as np

from repro.clustering.similarity import vote_edge_sets, vote_similarity_matrix
from repro.eval.harness import vote_omega_avg
from repro.optimize import (
    merge_changes,
    solve_multi_vote,
    solve_split_merge,
)
from repro.utils.tables import format_table


def _workload(**kwargs):
    return EffectivenessWorkload(
        num_vote_queries=14, num_test_queries=6, **kwargs
    )


def bench_ablation_sigmoid_w(benchmark):
    """Sigmoid steepness under *conflicting* votes.

    Every negative vote is paired with its contradiction (a second user
    confirming the original top answer), so the SGP cannot satisfy
    everything and the sigmoid term must arbitrate.  The steepness w
    controls how sharply "violated" is counted.
    """
    from repro.votes import Vote, VoteSet

    workload = _workload(seed=5)
    conflicted = VoteSet(list(workload.votes))
    for vote in workload.votes.negative:
        conflicted.add(
            Vote(
                query=vote.query,
                ranked_answers=vote.ranked_answers,
                best_answer=vote.ranked_answers[0],
            )
        )
    results = {}

    def run_all():
        for w in (5.0, 50.0, 300.0, 1000.0):
            graph, rep = solve_multi_vote(
                workload.deployed, conflicted, sigmoid_w=w,
                feasibility_filter=False,
            )
            results[w] = (vote_omega_avg(graph, workload.votes),
                          rep.num_violated_deviations)
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = [
        [f"w = {w:g}", f"{omega:+.3f}", violated]
        for w, (omega, violated) in results.items()
    ]
    report(
        format_table(
            ["Steepness", "Omega_avg (orig. votes)", "violated deviations"],
            rows,
            title=(
                "Ablation: sigmoid steepness w with contradictory votes "
                "(paper default 300)"
            ),
        )
    )
    # Conflicts exist by construction: some deviations must stay positive.
    assert any(violated > 0 for _omega, violated in results.values())


def bench_ablation_lambda_tradeoff(benchmark):
    """λ1 (small edits) vs λ2 (vote satisfaction)."""
    workload = _workload(seed=7)
    results = {}

    def run_all():
        for lambda1, lambda2 in ((0.9, 0.1), (0.5, 0.5), (0.1, 0.9)):
            graph, rep = solve_multi_vote(
                workload.deployed, workload.votes,
                lambda1=lambda1, lambda2=lambda2,
            )
            drift = sum(
                (new - old) ** 2 for old, new in rep.changed_edges.values()
            )
            results[(lambda1, lambda2)] = (
                vote_omega_avg(graph, workload.votes), drift
            )
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = [
        [f"λ1={l1}, λ2={l2}", f"{omega:+.3f}", f"{drift:.4f}"]
        for (l1, l2), (omega, drift) in results.items()
    ]
    report(
        format_table(
            ["Preferences", "Omega_avg", "sq. weight drift"],
            rows,
            title="Ablation: Eq. 19 preference weights (paper uses 0.5/0.5)",
        )
    )
    # Leaning toward satisfaction must not drift less than leaning
    # toward minimal edits.
    assert results[(0.1, 0.9)][1] >= results[(0.9, 0.1)][1] - 1e-9


def bench_ablation_feasibility_filter(benchmark):
    """The filter on a sparse graph, where random votes are often
    unsatisfiable (the paper's motivation for the judgment).
    """
    from repro.graph import AugmentedGraph, konect_like
    from repro.votes import generate_synthetic_votes

    kg = konect_like("twitter", scale=0.01, seed=17)
    aug = AugmentedGraph(kg)
    nodes = sorted(kg.nodes())
    rng = np.random.default_rng(18)
    for a in range(40):
        picks = rng.choice(len(nodes), size=3, replace=False)
        aug.add_answer(f"ans{a}", {nodes[int(i)]: 1 for i in picks})
    for q in range(12):
        picks = rng.choice(len(nodes), size=2, replace=False)
        aug.add_query(f"qry{q}", {nodes[int(i)]: 1 for i in picks})
    votes = generate_synthetic_votes(
        aug, k=8, negative_fraction=0.8, avg_negative_position=5, seed=19
    )
    results = {}

    def run_all():
        for label, filt in (("filter on", True), ("filter off", False)):
            graph, rep = solve_multi_vote(aug, votes, feasibility_filter=filt)
            results[label] = (
                vote_omega_avg(graph, votes),
                len(rep.discarded_votes),
                rep.num_constraints,
                rep.elapsed,
            )
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = [
        [label, f"{omega:+.3f}", discarded, constraints, f"{elapsed:.2f}s"]
        for label, (omega, discarded, constraints, elapsed) in results.items()
    ]
    report(
        format_table(
            ["Setting", "Omega_avg", "discarded", "constraints", "time"],
            rows,
            title=(
                "Ablation: extreme-condition feasibility filter on a sparse "
                "graph with random (often unsatisfiable) votes"
            ),
        )
    )
    # The filter must actually fire on this workload, shrinking the SGP.
    on = results["filter on"]
    off = results["filter off"]
    assert on[1] > 0, "filter should discard some random votes"
    assert on[2] <= off[2], "filter should shrink the program"


def bench_ablation_merge_rule(benchmark):
    """The paper's merge rule vs plain (vote-weighted) averaging."""
    rng = np.random.default_rng(13)
    clusters = []
    for _ in range(6):
        deltas = {
            f"e{i}": float(rng.normal(0.02, 0.03)) for i in rng.integers(0, 12, 5)
        }
        clusters.append((deltas, int(rng.integers(2, 10))))

    def average_merge(cluster_deltas):
        acc, weights = {}, {}
        for deltas, votes in cluster_deltas:
            for edge, delta in deltas.items():
                acc[edge] = acc.get(edge, 0.0) + votes * delta
                weights[edge] = weights.get(edge, 0) + votes
        return {edge: acc[edge] / weights[edge] for edge in acc}

    def run_both():
        return merge_changes(clusters), average_merge(clusters)

    paper_merge, avg_merge = benchmark(run_both)

    shared = sorted(set(paper_merge) & set(avg_merge))
    rows = [
        [edge, f"{paper_merge[edge]:+.4f}", f"{avg_merge[edge]:+.4f}"]
        for edge in shared[:8]
    ]
    report(
        format_table(
            ["Edge", "paper rule (extremum)", "weighted average"],
            rows,
            title=(
                "Ablation: merge rules — the paper's rule commits to the "
                "majority side's extreme; averaging dilutes it"
            ),
        )
    )
    # The paper's rule never produces a smaller magnitude than the
    # average on edges where all clusters agree in sign.
    for edge in shared:
        contributions = [
            d[edge] for d, _ in clusters if edge in d
        ]
        if len(contributions) > 1 and (
            all(c > 0 for c in contributions) or all(c < 0 for c in contributions)
        ):
            assert abs(paper_merge[edge]) >= abs(avg_merge[edge]) - 1e-12


def bench_ablation_vote_trust_weights(benchmark):
    """Trust-weighted votes: the heavier camp wins a pure conflict.

    Extension beyond the paper (its intro notes Q&A sites weight
    feedback by vote counts): a vote of weight w scales its violation
    penalty by w, so conflicting camps are resolved by total trust.
    """
    from repro.graph import AugmentedGraph, WeightedDiGraph
    from repro.similarity import inverse_pdistance
    from repro.votes import Vote

    def build():
        kg = WeightedDiGraph.from_edges(
            [("x", "y", 0.45), ("x", "z", 0.45)], strict=False
        )
        aug = AugmentedGraph(kg)
        aug.add_query("q", {"x": 1})
        aug.add_answer("a1", {"y": 1})
        aug.add_answer("a2", {"z": 1})
        return aug

    results = {}

    def run_all():
        for label, w_a2, w_a1 in (
            ("a2 camp 5x trusted", 5.0, 1.0),
            ("equal trust", 1.0, 1.0),
            ("a1 camp 5x trusted", 1.0, 5.0),
        ):
            aug = build()
            votes = [
                Vote("q", ("a1", "a2"), "a2", weight=w_a2),
                Vote("q", ("a1", "a2"), "a1", weight=w_a1),
            ]
            optimized, _ = solve_multi_vote(
                aug, votes, feasibility_filter=False
            )
            scores = inverse_pdistance(optimized.graph, "q", ["a1", "a2"])
            results[label] = (scores["a1"], scores["a2"])
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = [
        [label, f"{s1:.5f}", f"{s2:.5f}", "a1" if s1 > s2 else "a2"]
        for label, (s1, s2) in results.items()
    ]
    report(
        format_table(
            ["Trust configuration", "S(q,a1)", "S(q,a2)", "winner"],
            rows,
            title=(
                "Ablation (extension): trust-weighted conflicting votes — "
                "the heavier camp's answer wins"
            ),
        )
    )
    assert results["a2 camp 5x trusted"][1] > results["a2 camp 5x trusted"][0]
    assert results["a1 camp 5x trusted"][0] > results["a1 camp 5x trusted"][1]


def bench_ablation_split_clustering(benchmark):
    """AP clustering vs fixed-size chunking for the split step."""
    workload = _workload(seed=15)
    results = {}

    def run_all():
        graph_ap, rep_ap = solve_split_merge(
            workload.deployed, workload.votes, preference="median"
        )
        results["AP (median preference)"] = (
            vote_omega_avg(graph_ap, workload.votes),
            rep_ap.num_clusters,
            rep_ap.elapsed,
        )
        # Fixed-size chunking baseline: same per-cluster solver, split
        # by arrival order into chunks of 5.
        votes = list(workload.votes)
        chunks = [votes[i : i + 5] for i in range(0, len(votes), 5)]
        from repro.optimize.parallel import solve_one_cluster
        from repro.optimize.merge import merged_weights
        from repro.optimize.apply import apply_edge_weights
        import time as _time

        start = _time.perf_counter()
        chunk_results = [
            solve_one_cluster(workload.deployed, chunk, i, {})
            for i, chunk in enumerate(chunks)
        ]
        merged = merge_changes(
            [(r.deltas, r.num_votes) for r in chunk_results]
        )
        target = workload.deployed.copy()
        base = {edge: target.graph.weight(*edge) for edge in merged}
        apply_edge_weights(
            target, merged_weights(base, merged), normalize=False
        )
        elapsed = _time.perf_counter() - start
        results["fixed chunks of 5"] = (
            vote_omega_avg(target, workload.votes), len(chunks), elapsed
        )
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = [
        [label, f"{omega:+.3f}", clusters, f"{elapsed:.2f}s"]
        for label, (omega, clusters, elapsed) in results.items()
    ]
    report(
        format_table(
            ["Split strategy", "Omega_avg", "clusters", "time"],
            rows,
            title=(
                "Ablation: AP clustering (edge-overlap aware) vs fixed-size "
                "chunking for the split step"
            ),
        )
    )
