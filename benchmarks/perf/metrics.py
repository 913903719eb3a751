"""Metric tables and the per-layer breakdown of a traced run.

``END_TO_END`` and ``PER_LAYER`` must match
``BENCHMARK.json``: same names, units and directions (the smoke test
holds them equal).  End-to-end metrics are what a user of the system
sees and are measured with tracing off; per-layer metrics come from the
spans of a traced run (:mod:`spans`) plus the runner's own timestamps.
"""

from __future__ import annotations

import bisect
from collections import defaultdict

import numpy as np

from spans import Span, self_times

#: name -> (unit, better).  Reported on every workload; none is ever 0.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ask_p50_ms": ("ms", "lower"),
    "ask_slo_ratio": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Measured on every untraced run but not gated: too noisy across seeds
#: (``ask_max_qps``, ``ask_p99_ms``), the load generator's own
#: (``gen_s``, ``ask_late_p50_ms``), 0 when nothing fails (the fail
#: ratios), or only on the ``-feedback`` workloads (the vote metrics;
#: ``mrr_heldout`` only on ``helpdesk-feedback``).  The traced run
#: reports the vote-loop ones as ``optimize.*`` layer metrics.
REPORTED = {
    "ask_max_qps": ("1/s", "higher"),
    "gen_s": ("s", "lower"),
    "ask_p99_ms": ("ms", "lower"),
    "ask_fail_ratio": ("ratio", "lower"),
    "vote_fail_ratio": ("ratio", "lower"),
    "vote_visible_p50_s": ("s", "lower"),
    "vote_visible_p90_s": ("s", "lower"),
    "vote_omega_avg": ("ranks", "higher"),
    "mrr_heldout": ("ratio", "higher"),
    "ask_late_p50_ms": ("ms", "lower"),
}

#: name -> (unit, better).  Layers are named after ``src/repro`` packages.
PER_LAYER = {
    "serving.self_s": ("s", "lower"),
    "serving.ask_ms.p50": ("ms", "lower"),
    "serving.ask_ms.p99": ("ms", "lower"),
    "serving.cache_hit_ratio": ("ratio", "higher"),
    "serving.publish_ms.p50": ("ms", "lower"),
    "serving.publish_ms.max": ("ms", "lower"),
    "serving.asks_during_publish": ("count", "lower"),
    "serving.ask_during_publish_ms.p99": ("ms", "lower"),
    "serving.delta_ms.sum": ("ms", "lower"),
    "serving.delta_calls": ("count", "lower"),
    "serving.repush_calls": ("count", "lower"),
    "similarity.self_s": ("s", "lower"),
    "similarity.dense_ms.p50": ("ms", "lower"),
    "similarity.dense_calls": ("count", "lower"),
    "similarity.push_ms.p50": ("ms", "lower"),
    "similarity.push_ms.p99": ("ms", "lower"),
    "similarity.push_calls": ("count", "lower"),
    "similarity.push_edges_touched.mean": ("edges", "lower"),
    "similarity.push_error_bound.max": ("score", "lower"),
    "optimize.self_s": ("s", "lower"),
    "optimize.batch_s.p50": ("s", "lower"),
    "optimize.batches": ("count", "lower"),
    "optimize.batch_votes.mean": ("votes", "higher"),
    "optimize.queue_wait_s.p50": ("s", "lower"),
    "optimize.encode_ms.sum": ("ms", "lower"),
    "optimize.constraints.sum": ("count", "lower"),
    "optimize.terms.sum": ("count", "lower"),
    "optimize.omega_eval_ms.sum": ("ms", "lower"),
    "optimize.apply_ms.sum": ("ms", "lower"),
    "optimize.post_solve_ms.p50": ("ms", "lower"),
    "optimize.vote_visible_s.p50": ("s", "lower"),
    "optimize.vote_visible_s.p90": ("s", "lower"),
    "optimize.vote_omega_avg": ("ranks", "higher"),
    "optimize.mrr_heldout": ("ratio", "higher"),
    "votes.filter_ms.sum": ("ms", "lower"),
    "votes.discarded": ("count", "lower"),
    "sgp.self_s": ("s", "lower"),
    "sgp.solve_ms.p50": ("ms", "lower"),
    "sgp.solve_ms.sum": ("ms", "lower"),
    "sgp.iterations.sum": ("count", "lower"),
    "sgp.vars.mean": ("count", "lower"),
    "persistence.log_vote_ms.p50": ("ms", "lower"),
    "persistence.log_vote_ms.p99": ("ms", "lower"),
    "persistence.checkpoint_ms.p50": ("ms", "lower"),
    "persistence.snapshot_bytes.mean": ("bytes", "lower"),
    "persistence.fsyncs": ("count", "lower"),
    "graph.adjacency_builds": ("count", "lower"),
    "graph.adjacency_ms.sum": ("ms", "lower"),
    "graph.copies": ("count", "lower"),
    "graph.copy_ms.sum": ("ms", "lower"),
    "bench.ask_late_ms.p50": ("ms", "lower"),
    "bench.ask_late_ms.p99": ("ms", "lower"),
    "bench.vote_late_ms.p99": ("ms", "lower"),
    "bench.trace_overhead_pct": ("%", "lower"),
    "bench.batch_coverage_pct": ("%", "higher"),
}


def pct(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation); 0 when empty."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def layer_metrics(spans: list[Span], run: dict) -> tuple[dict, dict]:
    """Per-layer values and their sample counts for one traced run.

    ``spans`` are those that started inside the measured window;
    ``run`` carries the runner's own measurements (lateness, vote
    visibility, batch membership, quality) under the keys set by
    :func:`harness.measure`.
    """
    own = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        if span.parent is not None:
            children[span.parent].append(span)
    values: dict[str, float] = {}
    samples: dict[str, int] = {}

    def put(name, value, count):
        values[name] = float(value)
        samples[name] = int(count)

    def ms(group):
        return [span.duration * 1e3 for span in group]

    def attr(group, key):
        # A span whose call raised carries only an ``error`` attribute.
        return [span.attrs[key] for span in group if key in span.attrs]

    def layer_self(layer):
        group = [span for span in spans if span.layer == layer]
        put(f"{layer}.self_s", sum(own[span.id] for span in group), len(group))

    kernels = ("similarity.dense", "similarity.push")
    asks = by_name["serving.ask"]
    publishes = by_name["serving.publish"]
    layer_self("serving")
    put("serving.ask_ms.p50", pct(ms(asks), 50), len(asks))
    put("serving.ask_ms.p99", pct(ms(asks), 99), len(asks))
    hits = [
        ask for ask in asks
        if not any(child.name in kernels for child in children[ask.id])
    ]
    put("serving.cache_hit_ratio", len(hits) / len(asks) if asks else 0, len(asks))
    put("serving.publish_ms.p50", pct(ms(publishes), 50), len(publishes))
    put("serving.publish_ms.max", max(ms(publishes), default=0.0), len(publishes))
    starts = [span.start for span in publishes]
    overlapping = []
    for ask in asks:
        # Publishes starting before this ask ends; it overlaps the last
        # of them if that one ends after the ask starts.
        i = bisect.bisect_left(starts, ask.end) - 1
        if i >= 0 and publishes[i].end > ask.start:
            overlapping.append(ask)
    put("serving.asks_during_publish", len(overlapping), len(publishes))
    put(
        "serving.ask_during_publish_ms.p99",
        pct(ms(overlapping), 99),
        len(overlapping),
    )
    deltas = by_name["serving.delta"]
    put("serving.delta_ms.sum", sum(ms(deltas)), len(deltas))
    put("serving.delta_calls", len(deltas), len(publishes))
    publish_ids = {span.id for span in publishes}
    pushes = by_name["similarity.push"]
    repushes = [span for span in pushes if span.parent in publish_ids]
    put("serving.repush_calls", len(repushes), len(publishes))

    dense = by_name["similarity.dense"]
    layer_self("similarity")
    put("similarity.dense_ms.p50", pct(ms(dense), 50), len(dense))
    put("similarity.dense_calls", len(dense), len(dense))
    put("similarity.push_ms.p50", pct(ms(pushes), 50), len(pushes))
    put("similarity.push_ms.p99", pct(ms(pushes), 99), len(pushes))
    put("similarity.push_calls", len(pushes), len(pushes))
    put(
        "similarity.push_edges_touched.mean",
        _mean(attr(pushes, "edges_touched")),
        len(pushes),
    )
    put(
        "similarity.push_error_bound.max",
        max(attr(pushes, "error_bound"), default=0.0),
        len(pushes),
    )

    # A flush with nothing pending returns no batch and records no votes.
    batches = [span for span in by_name["optimize.batch"] if "votes" in span.attrs]
    encodes = by_name["optimize.encode"]
    layer_self("optimize")
    put("optimize.batch_s.p50", pct([s.duration for s in batches], 50), len(batches))
    put("optimize.batches", len(batches), len(batches))
    put(
        "optimize.batch_votes.mean",
        _mean(attr(batches, "votes")),
        len(batches),
    )
    # Vote j joined batch run["vote_batch"][j]; flushes and publishes
    # both happen in batch order on the worker thread.
    waits = [
        batches[k].start - due
        for k, due in zip(run["vote_batch"], run["vote_due_abs"])
        if k is not None and k < len(batches)
    ]
    put("optimize.queue_wait_s.p50", pct(waits, 50), len(waits))
    put("optimize.encode_ms.sum", sum(ms(encodes)), len(encodes))
    for key in ("constraints", "terms"):
        put(
            f"optimize.{key}.sum",
            sum(attr(encodes, key)),
            len(encodes),
        )
    omegas = by_name["optimize.omega_eval"]
    put("optimize.omega_eval_ms.sum", sum(ms(omegas)), len(omegas))
    applies = by_name["optimize.apply"]
    put("optimize.apply_ms.sum", sum(ms(applies)), len(applies))
    post = [
        (publish.end - batch.end) * 1e3
        for batch, publish in zip(batches, publishes)
    ]
    put("optimize.post_solve_ms.p50", pct(post, 50), len(post))
    visible = run["vote_visible_s"]
    put("optimize.vote_visible_s.p50", pct(visible, 50), len(visible))
    put("optimize.vote_visible_s.p90", pct(visible, 90), len(visible))
    for name in ("vote_omega_avg", "mrr_heldout"):
        value, count = run["quality"].get(name, (0.0, 0))
        put(f"optimize.{name}", value, count)

    filters = by_name["votes.filter"]
    put("votes.filter_ms.sum", sum(ms(filters)), len(filters))
    put(
        "votes.discarded",
        sum(attr(filters, "discarded")),
        len(filters),
    )

    solves = by_name["sgp.solve"]
    layer_self("sgp")
    put("sgp.solve_ms.p50", pct(ms(solves), 50), len(solves))
    put("sgp.solve_ms.sum", sum(ms(solves)), len(solves))
    put(
        "sgp.iterations.sum",
        sum(attr(solves, "iterations")),
        len(solves),
    )
    put(
        "sgp.vars.mean",
        _mean(attr(solves, "vars")),
        len(solves),
    )

    logs = by_name["persistence.log_vote"]
    checkpoints = by_name["persistence.checkpoint"]
    fsyncs = by_name["persistence.fsync"]
    put("persistence.log_vote_ms.p50", pct(ms(logs), 50), len(logs))
    put("persistence.log_vote_ms.p99", pct(ms(logs), 99), len(logs))
    put("persistence.checkpoint_ms.p50", pct(ms(checkpoints), 50), len(checkpoints))
    put(
        "persistence.snapshot_bytes.mean",
        _mean(attr(checkpoints, "bytes")),
        len(checkpoints),
    )
    put("persistence.fsyncs", len(fsyncs), len(fsyncs))

    adjacency = by_name["graph.adjacency"]
    copies = by_name["graph.copy"]
    put("graph.adjacency_builds", len(adjacency), len(adjacency))
    put("graph.adjacency_ms.sum", sum(ms(adjacency)), len(adjacency))
    put("graph.copies", len(copies), len(copies))
    put("graph.copy_ms.sum", sum(ms(copies)), len(copies))

    ask_late = run["ask_late_ms"]
    vote_late = run["vote_late_ms"]
    put("bench.ask_late_ms.p50", pct(ask_late, 50), len(ask_late))
    put("bench.ask_late_ms.p99", pct(ask_late, 99), len(ask_late))
    put("bench.vote_late_ms.p99", pct(vote_late, 99), len(vote_late))
    overhead, blocks = run["trace_overhead"]
    put("bench.trace_overhead_pct", overhead, blocks)
    batch_time = sum(span.duration for span in batches)
    covered = sum(span.duration - own[span.id] for span in batches)
    put(
        "bench.batch_coverage_pct",
        100.0 * covered / batch_time if batch_time else 0.0,
        len(batches),
    )
    return values, samples
