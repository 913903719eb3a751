"""Serve-during-optimize latency — background worker vs full stall.

The seed served and optimized on one thread: every batch solve landed
in-line in whatever ``ask()`` happened to trigger it, so a user asking a
question behind a flush waited for the whole linear program.  The
:class:`~repro.serving.worker.OptimizerWorker` moves the batch onto a
background thread against a shadow graph, runs the SGP solve itself in
a child process (so the solver's Python callbacks do not hold the GIL
the serve loop needs), and publishes results as atomic weight-patch
epochs, so serve-path reads never wait on a solve.

This bench replays the same oracle-vote workload under three
configurations and compares per-request latency percentiles:

- **idle** — the engine serving with no optimization in flight (the
  floor);
- **concurrent** — the same serve loop while an ``OptimizerWorker``
  ingests the votes and solves/publishes in the background (asks never
  block on a solve or a publish);
- **full stall** — the single-threaded ``OnlineOptimizer`` on the
  engine's graph, where a batch-triggering submit runs the solve in-line
  and the request behind it eats the whole solve latency plus the
  revalidation (the seed behaviour).

Acceptance: concurrent p50 stays within 2x of idle p50 (plus a small
absolute slack floor — sub-millisecond p50s sit inside scheduler
noise), and both optimizing runs converge to bitwise-identical final
weights (same votes, same batch boundaries, one solved on a shadow).

Environment knobs (used by the CI smoke job):

- ``BENCH_SMOKE=1`` — shrink the workload so the bench finishes in a
  few seconds and widen the slack floor accordingly;
- ``BENCH_OUTPUT_DIR=DIR`` — write ``BENCH_concurrent_serve.json``
  (latency percentiles + stall comparison) into ``DIR``.
"""

import json
import os
import time

from conftest import attach_queries_answers, report

import numpy as np

from repro.graph.generators import perturb_weights
from repro.graph import helpdesk_graph
from repro.obs import set_trace_sampling
from repro.optimize.online import OnlineOptimizer
from repro.serving import SimilarityEngine
from repro.serving.worker import OptimizerWorker
from repro.utils.tables import format_table
from repro.votes import GroundTruthOracle, generate_votes_from_oracle
from repro.votes.stream import CountPolicy

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
OUTPUT_DIR = os.environ.get("BENCH_OUTPUT_DIR")

NUM_TOPICS = 4 if SMOKE else 6
ENTITIES_PER_TOPIC = 8 if SMOKE else 10
NUM_VOTE_QUERIES = 12 if SMOKE else 24
NUM_SERVE_QUERIES = 16 if SMOKE else 24
NUM_ANSWERS = 12 if SMOKE else 16
NUM_ASKS = 400 if SMOKE else 1_200
BATCH_SIZE = 4
#: p50 ratio the worker must hold while solves run in the background.
MAX_P50_RATIO = 2.0
#: Absolute slack on the ratio check: idle cache-hit p50s are tens of
#: microseconds, where 2x is smaller than one scheduler quantum.  A
#: genuine stall regression shows up at solve scale (tens of
#: milliseconds), far outside this floor.
P50_SLACK_SECONDS = 0.005 if SMOKE else 0.002

# Production serving configuration: head-sampled trace trees, always-on
# metrics (matches the other serving benches).
set_trace_sampling(100)


def _build_workload():
    """Corrupted helpdesk deployment + oracle votes + a serve pool."""
    truth_kg, _ = helpdesk_graph(
        num_topics=NUM_TOPICS, entities_per_topic=ENTITIES_PER_TOPIC, seed=7
    )
    corrupted = perturb_weights(truth_kg, noise=1.5, seed=8)
    total = NUM_VOTE_QUERIES + NUM_SERVE_QUERIES
    truth = attach_queries_answers(
        truth_kg, num_queries=total, num_answers=NUM_ANSWERS, seed=9
    )
    deployed = attach_queries_answers(
        corrupted, num_queries=total, num_answers=NUM_ANSWERS, seed=9
    )
    vote_queries = [f"q{i}" for i in range(NUM_VOTE_QUERIES)]
    votes = list(
        generate_votes_from_oracle(
            deployed, GroundTruthOracle(truth), queries=vote_queries,
            k=8, seed=10,
        )
    )
    pool = [f"q{i}" for i in range(total)]
    return deployed, votes, pool


def _warm(engine, pool):
    """Build the matrix and fill the LRU outside the timed window."""
    for query in pool:
        engine.scores_for_query(query)


def _kg_weights(aug):
    return {edge.key: edge.weight for edge in aug.kg_edges()}


def _percentiles(latencies):
    arr = np.asarray(latencies)
    return {
        "p50": float(np.percentile(arr, 50)),
        "p95": float(np.percentile(arr, 95)),
        "max": float(arr.max()),
        "asks": len(latencies),
    }


def _run_idle():
    deployed, _, pool = _build_workload()
    engine = SimilarityEngine(deployed)
    _warm(engine, pool)
    latencies = []
    for i in range(NUM_ASKS):
        started = time.perf_counter()
        engine.scores_for_query(pool[i % len(pool)])
        latencies.append(time.perf_counter() - started)
    return _percentiles(latencies)


def _run_concurrent():
    deployed, votes, pool = _build_workload()
    engine = SimilarityEngine(deployed)
    _warm(engine, pool)
    submit_every = max(1, NUM_ASKS // (len(votes) + 1))
    expected_batches = len(votes) // BATCH_SIZE
    latencies = []
    deadline = time.monotonic() + 300.0
    with OptimizerWorker(
        deployed, engine=engine, policy=CountPolicy(BATCH_SIZE),
        poll_interval=0.005,
    ) as worker:
        asks = submitted = 0
        # Keep serving past the quota until every scheduled batch has
        # published — the whole point is measuring asks that overlap
        # solves, and the loop must not win the race by finishing early.
        while (
            asks < NUM_ASKS
            or submitted < len(votes)
            or len(worker.history) < expected_batches
        ):
            assert time.monotonic() < deadline, "optimizer worker stalled"
            if asks % submit_every == 0 and submitted < len(votes):
                worker.submit(votes[submitted])
                submitted += 1
            started = time.perf_counter()
            engine.scores_for_query(pool[asks % len(pool)])
            latencies.append(time.perf_counter() - started)
            asks += 1
        assert worker.last_error is None
    # The context exit drained the leftover partial batch (if any).
    return _percentiles(latencies), _kg_weights(deployed)


def _run_full_stall():
    deployed, votes, pool = _build_workload()
    engine = SimilarityEngine(deployed)
    _warm(engine, pool)
    # Nobody announces the batch's writes to the engine: the next serve
    # sees the graph's version moved and rebuilds, still on this thread.
    online = OnlineOptimizer(deployed, policy=CountPolicy(BATCH_SIZE))
    submit_every = max(1, NUM_ASKS // (len(votes) + 1))
    latencies = []
    submitted = 0
    for i in range(NUM_ASKS):
        # Single-threaded seed behaviour: a batch-triggering submit
        # solves in-line, so the request behind it waits the solve out.
        started = time.perf_counter()
        if i % submit_every == 0 and submitted < len(votes):
            online.submit(votes[submitted])
            submitted += 1
        engine.scores_for_query(pool[i % len(pool)])
        latencies.append(time.perf_counter() - started)
    while submitted < len(votes):
        online.submit(votes[submitted])
        submitted += 1
    online.flush()
    return _percentiles(latencies), _kg_weights(deployed)


def bench_concurrent_serve(benchmark):
    results = {}

    def run_all():
        results["idle"] = _run_idle()
        results["concurrent"], concurrent_weights = _run_concurrent()
        results["stall"], stall_weights = _run_full_stall()
        # Same votes, same batch boundaries: the background worker's
        # shadow-solve-then-publish pipeline must land on exactly the
        # weights the single-threaded path computes.
        assert concurrent_weights == stall_weights
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    idle, concurrent, stall = (
        results["idle"], results["concurrent"], results["stall"]
    )
    ratio = concurrent["p50"] / idle["p50"]
    stall_ratio = stall["p50"] / idle["p50"]

    def row(name, stats):
        return [
            name,
            f"{stats['p50'] * 1e3:.3f}ms",
            f"{stats['p95'] * 1e3:.3f}ms",
            f"{stats['max'] * 1e3:.1f}ms",
            f"{stats['asks']}",
        ]

    report(
        format_table(
            ["serve mode", "p50", "p95", "max", "asks"],
            [
                row("idle (no optimization)", idle),
                row("background worker", concurrent),
                row("full stall (in-line solve)", stall),
            ],
            title=(
                "Serve-during-optimize latency: background worker p50 "
                f"{ratio:.2f}x idle (in-line solve p50 {stall_ratio:.2f}x, "
                f"worst ask {stall['max'] * 1e3:.0f}ms)"
            ),
        )
    )

    if OUTPUT_DIR:
        os.makedirs(OUTPUT_DIR, exist_ok=True)
        payload = {
            "benchmark": "concurrent_serve",
            "smoke": SMOKE,
            "num_asks": NUM_ASKS,
            "batch_size": BATCH_SIZE,
            "idle": idle,
            "concurrent": concurrent,
            "full_stall": stall,
            "p50_ratio": ratio,
            "stall_p50_ratio": stall_ratio,
        }
        with open(
            os.path.join(OUTPUT_DIR, "BENCH_concurrent_serve.json"),
            "w", encoding="utf-8",
        ) as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")

    assert concurrent["p50"] <= (
        MAX_P50_RATIO * idle["p50"] + P50_SLACK_SECONDS
    ), (
        f"serving during background optimization should hold p50 within "
        f"{MAX_P50_RATIO:g}x idle, got {ratio:.2f}x "
        f"({concurrent['p50'] * 1e3:.3f}ms vs {idle['p50'] * 1e3:.3f}ms)"
    )
