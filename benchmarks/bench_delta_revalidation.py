"""Serve-after-patch latency — delta revalidation vs cold invalidation.

The interactive loop the paper describes (serve, vote, optimize, serve
again) patches a sparse set of edge weights on every optimizer pass.
Before delta revalidation, every patch cold-invalidated the engine's
score LRU, so the serve *right after* a patch — exactly when traffic is
hottest — paid a full ``O(L·|E|)`` truncated inverse-P-distance per
cached query.  The delta path (:mod:`repro.serving.delta`) corrects the
cached vectors in place with work proportional to the changed edges'
L-hop neighborhood, so the first post-patch serve is a warm cache hit.

This bench replays rounds of [patch ≤1% of edges → serve the whole
query pool] on a ~5k-edge graph twice — once as the engine ships, once
with the delta density budget at 0, which forces the cold-invalidation
fallback on every patch — and compares per-serve latency distributions
(p50/p95).  Correctness is
asserted alongside: every delta-served score must match a cold
:func:`inverse_pdistance` recompute within the contract tolerance.

Environment knobs (used by the CI smoke job):

- ``BENCH_SMOKE=1`` — shrink the workload so the bench finishes in a
  few seconds and relax the speedup floor accordingly;
- ``BENCH_OUTPUT_DIR=DIR`` — write ``BENCH_delta_revalidation.json``
  (latency percentiles + warm-cache stats) into ``DIR``.
"""

import json
import os
import time

from conftest import engine_series, report

import numpy as np
import pytest

from repro.devtools.contracts import DELTA_SCORE_TOL
from repro.graph.augmented import AugmentedGraph
from repro.graph.generators import random_digraph
from repro.obs import set_trace_sampling
from repro.serving import Patch, SimilarityEngine, SimilarityParams
from repro.similarity.inverse_pdistance import inverse_pdistance
from repro.utils.tables import format_table

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
OUTPUT_DIR = os.environ.get("BENCH_OUTPUT_DIR")

NUM_NODES = 400 if SMOKE else 1_250
AVG_DEGREE = 4.0
NUM_ANSWERS = 25 if SMOKE else 50
NUM_QUERIES = 12 if SMOKE else 24
NUM_ROUNDS = 6 if SMOKE else 12
#: Acceptance floor: p50 serve latency right after a ≤1%-of-edges patch
#: must be at least this much lower on the delta path than on the
#: cold-invalidation path.  Small smoke graphs leave less propagation
#: work to skip, so the floor relaxes with the workload.
MIN_SPEEDUP = 2.0 if SMOKE else 3.0
PARAMS = SimilarityParams(k=8, max_length=5)

set_trace_sampling(100)


def _build_workload():
    kg = random_digraph(NUM_NODES, AVG_DEGREE, seed=17, out_mass=0.9)
    aug = AugmentedGraph(kg)
    entities = sorted(kg.nodes())
    rng = np.random.default_rng(23)
    for a in range(NUM_ANSWERS):
        picks = rng.choice(len(entities), size=3, replace=False)
        aug.add_answer(f"doc{a}", {entities[int(p)]: 1 for p in picks})
    for q in range(NUM_QUERIES):
        picks = rng.choice(len(entities), size=2, replace=False)
        aug.add_query(f"q{q}", {entities[int(p)]: 1 for p in picks})
    engine = SimilarityEngine(aug, params=PARAMS)
    return kg, aug, engine


def _patch_rounds(kg, seed=41):
    """Per-round ≤1%-of-edges patches, identical across both runs.

    Weights are scaled multiplicatively into (0.8, 1.0), which keeps
    every node's out-mass sub-stochastic no matter how rounds stack.
    """
    edges = sorted(((e.head, e.tail) for e in kg.edges()), key=repr)
    rng = np.random.default_rng(seed)
    per_round = max(1, int(0.01 * len(edges)))
    rounds = []
    for _ in range(NUM_ROUNDS):
        picks = rng.choice(len(edges), size=per_round, replace=False)
        scales = 0.8 + 0.2 * rng.random(per_round)
        rounds.append(
            [(edges[int(p)], float(s)) for p, s in zip(picks, scales)]
        )
    return rounds, per_round, len(edges)


def _serve_rounds(aug, engine, rounds):
    """Apply each patch round, then serve every query; returns latencies."""
    queries = sorted(aug.query_nodes, key=repr)
    targets = sorted(aug.answer_nodes, key=repr)
    for query in queries:  # warm the LRU before the first patch
        engine.scores_for_query(query, targets)
    latencies = []
    served_last = {}
    for round_patches in rounds:

        def apply(round_patches=round_patches):
            for (head, tail), scale in round_patches:
                aug.set_kg_weight(head, tail, aug.kg_weight(head, tail) * scale)
            return Patch(edges=[edge for edge, _ in round_patches])

        engine.publish(apply)  # what the optimizer publish paths call
        for query in queries:
            start = time.perf_counter()
            served = engine.scores_for_query(query, targets)
            latencies.append(time.perf_counter() - start)
            served_last[query] = served
    return np.asarray(latencies), served_last, queries, targets


def bench_delta_revalidation(benchmark):
    results = {}

    def run_all():
        kg, cold_aug, cold_engine = _build_workload()
        rounds, per_round, num_edges = _patch_rounds(kg)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                "repro.serving.engine.DEFAULT_DELTA_DENSITY_THRESHOLD", 0.0
            )
            cold_lat, cold_served, _, _ = _serve_rounds(
                cold_aug, cold_engine, rounds
            )

        kg2, delta_aug, delta_engine = _build_workload()
        rounds2, _, _ = _patch_rounds(kg2)
        delta_lat, delta_served, queries, targets = _serve_rounds(
            delta_aug, delta_engine, rounds2
        )

        # Identical graphs + identical patch sequences: both paths must
        # serve the same scores (delta within the contract tolerance),
        # and the delta path must also match a from-scratch recompute.
        for query in queries:
            cold = inverse_pdistance(
                delta_aug.graph,
                query,
                targets,
                max_length=PARAMS.max_length,
                restart_prob=PARAMS.restart_prob,
            )
            for target in targets:
                reference = cold[target]
                budget = DELTA_SCORE_TOL * (1.0 + abs(reference))
                assert abs(delta_served[query][target] - reference) <= budget
                assert abs(cold_served[query][target] - reference) <= budget

        results.update(
            num_edges=num_edges,
            per_round=per_round,
            cold_lat=cold_lat,
            delta_lat=delta_lat,
            cold_stats=engine_series(cold_engine),
            delta_stats=engine_series(delta_engine),
        )
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    cold_lat = results["cold_lat"]
    delta_lat = results["delta_lat"]
    delta = {
        name: int(value) if name.endswith("_total") else value
        for name, value in results["delta_stats"].items()
    }
    cold = {
        name: int(value) if name.endswith("_total") else value
        for name, value in results["cold_stats"].items()
    }
    delta_seconds = delta["engine_delta_seconds"]["sum"]
    cold_p50, cold_p95 = np.percentile(cold_lat, [50, 95])
    delta_p50, delta_p95 = np.percentile(delta_lat, [50, 95])
    speedup = cold_p50 / delta_p50
    num_serves = len(delta_lat)
    rows = [
        ["cold invalidation", f"{cold_p50 * 1e6:.0f}us",
         f"{cold_p95 * 1e6:.0f}us", f"{cold['engine_cache_hits_total']}",
         f"{cold['engine_cache_misses_total']}", "1.0x"],
        ["delta revalidation", f"{delta_p50 * 1e6:.0f}us",
         f"{delta_p95 * 1e6:.0f}us", f"{delta['engine_cache_hits_total']}",
         f"{delta['engine_cache_misses_total']}", f"{speedup:.1f}x"],
    ]
    report(
        format_table(
            ["post-patch serving", "p50", "p95", "hits", "misses", "p50 gain"],
            rows,
            title=(
                f"Serve-after-patch latency: {NUM_ROUNDS} rounds x "
                f"{results['per_round']} patched edges "
                f"(~{100 * results['per_round'] / results['num_edges']:.1f}% "
                f"of {results['num_edges']}) x {NUM_QUERIES} queries "
                f"({delta['engine_delta_revalidations_total']} revalidations, "
                f"{delta['engine_delta_entries_patched_total']} entries patched, "
                f"{delta['engine_delta_fallbacks_total']} fallbacks, "
                f"delta time {delta_seconds * 1e3:.1f}ms)"
            ),
        )
    )

    if OUTPUT_DIR:
        os.makedirs(OUTPUT_DIR, exist_ok=True)
        payload = {
            "benchmark": "delta_revalidation",
            "smoke": SMOKE,
            "num_edges": results["num_edges"],
            "patched_edges_per_round": results["per_round"],
            "num_rounds": NUM_ROUNDS,
            "num_serves": num_serves,
            "cold_p50_seconds": float(cold_p50),
            "cold_p95_seconds": float(cold_p95),
            "delta_p50_seconds": float(delta_p50),
            "delta_p95_seconds": float(delta_p95),
            "p50_speedup": float(speedup),
            "delta_revalidations": delta["engine_delta_revalidations_total"],
            "delta_entries_patched": delta["engine_delta_entries_patched_total"],
            "delta_fallbacks": delta["engine_delta_fallbacks_total"],
            "delta_seconds": delta_seconds,
            "delta_cache_hits": delta["engine_cache_hits_total"],
            "delta_cache_misses": delta["engine_cache_misses_total"],
            "cold_cache_misses": cold["engine_cache_misses_total"],
        }
        with open(
            os.path.join(OUTPUT_DIR, "BENCH_delta_revalidation.json"),
            "w", encoding="utf-8",
        ) as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")

    # The delta path never repropagated after the warmup misses, while
    # the cold path missed once per query per patch round.
    assert delta["engine_cache_misses_total"] == NUM_QUERIES
    assert delta["engine_delta_revalidations_total"] == NUM_ROUNDS
    assert delta["engine_delta_fallbacks_total"] == 0
    assert cold["engine_cache_misses_total"] == NUM_QUERIES * (NUM_ROUNDS + 1)
    assert speedup >= MIN_SPEEDUP, (
        f"delta revalidation should serve ≥{MIN_SPEEDUP:g}x faster than "
        f"cold invalidation right after a sparse patch, got {speedup:.1f}x "
        f"(p50 {delta_p50 * 1e6:.0f}us vs {cold_p50 * 1e6:.0f}us)"
    )
