"""Serving throughput — the engine vs the rebuild-per-call seed path.

The seed ``QASystem.ask()`` rebuilt the full CSR adjacency matrix from
the graph's Python dicts on every question; the
:class:`~repro.serving.engine.SimilarityEngine` builds it once and keeps
it current incrementally, with an LRU of score vectors on top.  This
bench replays 500 ``ask()`` calls cycling through a fixed question pool
against a ~5k-edge graph under both configurations (scores are bitwise
identical either way) and asserts the engine path is at least 5× faster.
It also measures :meth:`QASystem.ask_many`, which shares one stacked
propagation across a whole batch.

Environment knobs (used by the CI smoke job):

- ``BENCH_SMOKE=1`` — shrink the workload so the bench finishes in a
  few seconds and relax the speedup floor accordingly;
- ``BENCH_OUTPUT_DIR=DIR`` — write ``BENCH_serving_throughput.json``
  (timings + speedups) and ``BENCH_metrics_snapshot.json`` (the full
  observability registry snapshot) into ``DIR``.
"""

import json
import os
import time

from conftest import engine_series, report

import numpy as np

from repro.graph.generators import random_digraph
from repro.obs import get_registry, set_trace_sampling
from repro.qa import EntityVocabulary, QASystem
from repro.serving import SimilarityParams
from repro.utils.tables import format_table

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
OUTPUT_DIR = os.environ.get("BENCH_OUTPUT_DIR")

NUM_NODES = 400 if SMOKE else 1_250
AVG_DEGREE = 4.0
NUM_DOCS = 30 if SMOKE else 60
NUM_QUESTIONS = 25
NUM_ASKS = 150 if SMOKE else 500
#: Small smoke graphs leave less rebuild work to amortize, so the
#: engine's edge over the seed path shrinks with the workload.
MIN_SPEEDUP = 2.0 if SMOKE else 5.0
PARAMS = SimilarityParams(k=8, max_length=5)

# The production serving configuration: metrics stay always-on (the
# snapshot artifact below still carries exact counts and latency
# histograms), but per-request trace trees are head-sampled — an
# always-on root span costs a few microseconds, which is real money at
# cache-hit serving rates.  This keeps instrumentation overhead on the
# measured ask loops under 5%.
set_trace_sampling(100)


def _build_system(*, use_engine):
    kg = random_digraph(NUM_NODES, AVG_DEGREE, seed=17, out_mass=0.9)
    nodes = sorted(kg.nodes())
    vocabulary = EntityVocabulary(nodes)
    system = QASystem(kg, vocabulary, params=PARAMS, use_engine=use_engine)
    rng = np.random.default_rng(23)
    documents = {}
    for d in range(NUM_DOCS):
        picks = rng.choice(len(nodes), size=3, replace=False)
        documents[f"doc{d}"] = " ".join(nodes[int(p)] for p in picks)
    system.add_documents(documents)
    rng = np.random.default_rng(29)
    questions = []
    for _ in range(NUM_QUESTIONS):
        picks = rng.choice(len(nodes), size=2, replace=False)
        questions.append(" ".join(nodes[int(p)] for p in picks))
    return kg, system, questions


def _ask_loop(system, questions, num_asks=NUM_ASKS):
    start = time.perf_counter()
    answers = []
    for i in range(num_asks):
        question = questions[i % len(questions)]
        answers.append(
            system.ask(question, question_id=f"bench_q{i % len(questions)}")
        )
    return time.perf_counter() - start, answers


def bench_serving_throughput(benchmark):
    results = {}

    def run_all():
        kg, cold_system, questions = _build_system(use_engine=False)
        cold_time, cold_answers = _ask_loop(cold_system, questions)

        kg2, engine_system, _ = _build_system(use_engine=True)
        assert kg.num_edges == kg2.num_edges
        engine_time, engine_answers = _ask_loop(engine_system, questions)

        # Same questions, same graph: the answers must agree bitwise.
        assert engine_answers == cold_answers

        batch = {
            f"batch_q{i}": q
            for _ in range(NUM_ASKS // NUM_QUESTIONS)
            for i, q in enumerate(questions)
        }
        start = time.perf_counter()
        for _ in range(NUM_ASKS // NUM_QUESTIONS):
            engine_system.ask_many(batch)
        batch_time = time.perf_counter() - start

        results.update(
            num_edges=kg.num_edges,
            cold_time=cold_time,
            engine_time=engine_time,
            batch_time=batch_time,
            stats=engine_series(engine_system.engine),
        )
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    cold_time = results["cold_time"]
    engine_time = results["engine_time"]
    batch_time = results["batch_time"]
    stats = {
        name: int(value)
        for name, value in results["stats"].items()
        if name.endswith("_total")
    }
    speedup = cold_time / engine_time
    rows = [
        ["rebuild per call (seed)", f"{cold_time:.3f}s",
         f"{NUM_ASKS / cold_time:.0f}", "1.0x"],
        ["SimilarityEngine", f"{engine_time:.3f}s",
         f"{NUM_ASKS / engine_time:.0f}", f"{speedup:.1f}x"],
        ["ask_many (batched)", f"{batch_time:.3f}s",
         f"{NUM_ASKS / batch_time:.0f}", f"{cold_time / batch_time:.1f}x"],
    ]
    report(
        format_table(
            ["serving path", f"{NUM_ASKS} asks", "q/s", "speedup"],
            rows,
            title=(
                f"Serving throughput on a {results['num_edges']}-edge graph "
                f"(engine: {stats['engine_builds_total']} build(s), "
                f"{stats['engine_cache_hits_total']} cache hits, "
                f"{stats['engine_rebuilds_avoided_total']} rebuilds avoided)"
            ),
        )
    )

    if OUTPUT_DIR:
        os.makedirs(OUTPUT_DIR, exist_ok=True)
        payload = {
            "benchmark": "serving_throughput",
            "smoke": SMOKE,
            "num_edges": results["num_edges"],
            "num_asks": NUM_ASKS,
            "cold_seconds": cold_time,
            "engine_seconds": engine_time,
            "batch_seconds": batch_time,
            "speedup": speedup,
            "cache_hits": stats["engine_cache_hits_total"],
            "builds": stats["engine_builds_total"],
        }
        with open(
            os.path.join(OUTPUT_DIR, "BENCH_serving_throughput.json"),
            "w", encoding="utf-8",
        ) as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        from repro.obs import write_metrics_json

        write_metrics_json(
            os.path.join(OUTPUT_DIR, "BENCH_metrics_snapshot.json"),
            get_registry(),
        )

    assert speedup >= MIN_SPEEDUP, (
        f"engine serving should be ≥{MIN_SPEEDUP:g}x the rebuild-per-call "
        f"path, got {speedup:.1f}x ({engine_time:.3f}s vs {cold_time:.3f}s)"
    )
    assert stats["engine_builds_total"] == 1  # the matrix was built exactly once
    assert stats["engine_cache_hits_total"] > 0  # repeated questions hit the LRU


#: Disarmed/armed block pairs, and cached asks per block, for the
#: recorder bench.  Alternating blocks cancel drift between the two
#: sides (frequency scaling, a busy neighbour); neither size shrinks in
#: smoke mode, because resolving a few microseconds per ask takes
#: thousands of asks a side.
RECORDER_BLOCK_PAIRS = 10
RECORDER_BLOCK_ASKS = 500
#: Bound on arming's median per-ask cost, relative to the disarmed
#: per-ask time.  On a 2-vCPU VM a cached ask took 36–40 µs disarmed and
#: arming added a median 5.3–5.7 µs (+14–16%; single blocks −0.6 to
#: 8.7 µs), so +30% leaves about 2× headroom.
MAX_RECORDER_OVERHEAD = 0.30


def bench_recorder_overhead(benchmark, tmp_path):
    """Arming the flight recorder must cost a cached ask at most +30%.

    Disarmed, an observed operation pays one global load for the
    recorder; armed, one event object, a deque append and a locked
    counter increment per event — two events per cache-hit ask.  Times
    ``RECORDER_BLOCK_PAIRS`` alternating disarmed/armed blocks of
    ``RECORDER_BLOCK_ASKS`` cached asks each and asserts that the median
    per-ask difference within a pair is at most ``MAX_RECORDER_OVERHEAD``
    of the median disarmed per-ask time.
    """
    from repro.obs.recorder import arm_recorder, disarm_recorder

    results = {}

    def per_ask(system, questions):
        seconds, _ = _ask_loop(system, questions, RECORDER_BLOCK_ASKS)
        return seconds / RECORDER_BLOCK_ASKS

    def run_all():
        _, system, questions = _build_system(use_engine=True)
        # Warm: build the matrix, fill the LRU, settle the allocator.
        _ask_loop(system, questions, RECORDER_BLOCK_ASKS)
        off, on = [], []
        for _ in range(RECORDER_BLOCK_PAIRS):
            disarm_recorder()
            off.append(per_ask(system, questions))
            # Thresholds high enough that no slow-op dump fires mid-loop:
            # the bench measures steady-state recording, not bundle writes.
            arm_recorder(
                tmp_path / "flight",
                slow_thresholds={"qa.ask": 3600.0, "engine.serve": 3600.0},
            )
            try:
                on.append(per_ask(system, questions))
            finally:
                disarm_recorder()
        results.update(off=np.array(off), on=np.array(on))
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    off, on = results["off"], results["on"]
    disarmed = float(np.median(off))
    added = float(np.median(on - off))
    overhead = added / disarmed
    blocks = f"{RECORDER_BLOCK_PAIRS} × {RECORDER_BLOCK_ASKS} asks"
    report(
        format_table(
            ["recorder", f"µs per ask ({blocks})", "min–max"],
            [
                ["disarmed", f"{disarmed * 1e6:.1f}",
                 f"{off.min() * 1e6:.1f}–{off.max() * 1e6:.1f}"],
                ["armed", f"{np.median(on) * 1e6:.1f}",
                 f"{on.min() * 1e6:.1f}–{on.max() * 1e6:.1f}"],
                ["armed − disarmed", f"{added * 1e6:+.1f}",
                 f"{(on - off).min() * 1e6:+.1f}–{(on - off).max() * 1e6:+.1f}"],
            ],
            title=f"Flight-recorder overhead: {overhead:+.1%} per cached ask",
        )
    )
    if OUTPUT_DIR:
        os.makedirs(OUTPUT_DIR, exist_ok=True)
        with open(
            os.path.join(OUTPUT_DIR, "BENCH_recorder_overhead.json"),
            "w", encoding="utf-8",
        ) as handle:
            json.dump(
                {
                    "benchmark": "recorder_overhead",
                    "smoke": SMOKE,
                    "block_pairs": RECORDER_BLOCK_PAIRS,
                    "block_asks": RECORDER_BLOCK_ASKS,
                    "disarmed_us_per_ask": disarmed * 1e6,
                    "added_us_per_ask": added * 1e6,
                    "overhead_pct": overhead * 100.0,
                },
                handle, indent=2, sort_keys=True,
            )
            handle.write("\n")

    assert overhead <= MAX_RECORDER_OVERHEAD, (
        f"armed recorder adds {added * 1e6:.1f} µs per cached ask, "
        f"{overhead:+.1%} of the disarmed {disarmed * 1e6:.1f} µs "
        f"(bound +{MAX_RECORDER_OVERHEAD:.0%})"
    )
