"""The central catalog of metric and span names.

Every metric series and tracing span the codebase emits is declared
here, once, next to its kind.  The point is typo-proofing: a metric
name is a stringly-typed API, and a misspelled ``engine_cache_hit_total``
silently creates a phantom series that no dashboard reads while the
real one flatlines.  Two guards consume this catalog:

- the custom lint rule **R002** (:mod:`repro.devtools.lint`) rejects
  any string literal passed to ``registry.counter/gauge/histogram``,
  ``observe`` or ``trace_span`` that is not declared here, at lint
  time;
- the test suite asserts every catalog entry follows the naming
  conventions below, so the catalog cannot drift into chaos either.

Naming conventions (also documented in DESIGN.md):

- metric names are ``<subsystem>_<what>[_<unit>]`` with a subsystem
  prefix from :data:`METRIC_PREFIXES`; counters end in ``_total``,
  latency histograms in ``_seconds``;
- span names are ``<subsystem>.<stage>`` with a prefix from
  :data:`SPAN_PREFIXES`.

Adding a new series is a two-line change: declare it here, then use it;
the lint self-check keeps the two in sync in both directions.
"""

from __future__ import annotations

__all__ = [
    "METRIC_PREFIXES",
    "SPAN_PREFIXES",
    "COUNTERS",
    "GAUGES",
    "HISTOGRAMS",
    "METRICS",
    "SPANS",
    "METRIC_HELP",
    "metric_help",
    "is_registered_metric",
    "is_registered_span",
    "catalog_errors",
]

#: Allowed metric-name prefixes, one per instrumented subsystem.
METRIC_PREFIXES: tuple[str, ...] = (
    "qa_",
    "engine_",
    "sgp_",
    "optimize_",
    "votes_",
    "eval_",
    "wal_",
    "snapshot_",
    "obs_",
    "slo_",
)

#: Allowed span-name prefixes (dotted form of the same subsystems).
SPAN_PREFIXES: tuple[str, ...] = (
    "qa.",
    "engine.",
    "sgp.",
    "optimize.",
    "votes.",
    "eval.",
    "wal.",
    "snapshot.",
    "obs.",
)

#: Monotonic counters (must end in ``_total``).
COUNTERS: frozenset[str] = frozenset(
    {
        # serving engine (repro/serving/engine.py)
        "engine_builds_total",
        "engine_rebuilds_avoided_total",
        "engine_weight_patches_total",
        "engine_rows_appended_total",
        "engine_cache_hits_total",
        "engine_cache_misses_total",
        "engine_serves_total",
        "engine_batch_serves_total",
        "engine_delta_revalidations_total",
        "engine_delta_entries_patched_total",
        "engine_delta_fallbacks_total",
        "engine_delta_rekeys_total",
        "engine_push_serves_total",
        "engine_push_repushes_total",
        "engine_push_rekeys_total",
        # QA front end (repro/qa/system.py)
        "qa_asks_total",
        "qa_votes_total",
        # SGP solver (repro/sgp/solver.py)
        "sgp_solves_total",
        "sgp_iterations_total",
        "sgp_fallbacks_total",
        "sgp_partial_solutions_total",
        # optimization drivers (repro/optimize/report.py)
        "optimize_runs_total",
        "optimize_changed_edges_total",
        # concurrent ingest / background worker (repro/serving/worker.py)
        "optimize_ingest_votes_total",
        "optimize_ingest_blocked_total",
        "optimize_epochs_published_total",
        "optimize_worker_errors_total",
        # feasibility judgment (repro/votes/feasibility.py)
        "votes_feasible_total",
        "votes_infeasible_total",
        # durability layer (repro/persistence/)
        "wal_appends_total",
        "wal_rotations_total",
        "wal_torn_records_total",
        "wal_replayed_total",
        "snapshot_writes_total",
        "snapshot_recoveries_total",
        "snapshot_invalid_total",
        # observability internals (repro/obs/recorder.py, tracing.py)
        "obs_recorder_events_total",
        "obs_recorder_dropped_total",
        "obs_recorder_dumps_total",
        "obs_traces_dropped_total",
        # SLO watchdog (repro/obs/slo.py)
        "slo_breaches_total",
    }
)

#: Point-in-time gauges.
GAUGES: frozenset[str] = frozenset(
    {
        "engine_cache_entries",
        "wal_last_seq",
        "snapshot_last_seq",
        # durability staleness (repro/persistence/store.py): how far the
        # WAL tail has run ahead of the newest snapshot, and how old that
        # snapshot is — the two numbers a recovery-time estimate needs.
        "wal_lag_records",
        "snapshot_age_seconds",
        # concurrent ingest backpressure / staleness (repro/serving/worker.py):
        # votes parked in the ingest queue, total votes the worker has
        # not yet folded into a published epoch, and the age of the
        # oldest queued vote
        "optimize_queue_depth",
        "optimize_worker_lag_votes",
        "optimize_worker_lag_seconds",
        # SLO watchdog (repro/obs/slo.py), one series per objective
        "slo_attainment_ratio",
        "slo_budget_burn",
        "slo_latency_estimate_seconds",
    }
)

#: Histograms (latency series end in ``_seconds``; the deviation
#: magnitude series is explicitly unitless — deviations live on [0, 1)).
HISTOGRAMS: frozenset[str] = frozenset(
    {
        "engine_build_seconds",
        "engine_propagate_seconds",
        "engine_delta_seconds",
        "engine_push_edges_touched",
        "engine_push_error_bound",
        "qa_ask_seconds",
        "sgp_solve_seconds",
        "optimize_run_seconds",
        "optimize_deviation_magnitude",
        "wal_append_seconds",
        "snapshot_write_seconds",
        "snapshot_recover_seconds",
        # wall-clock cost of one atomic weight-patch publication (live
        # graph apply + engine flush under the state lock)
        "optimize_epoch_publish_seconds",
    }
)

#: Every declared metric name, any kind.
METRICS: frozenset[str] = COUNTERS | GAUGES | HISTOGRAMS

#: Every declared tracing-span name.
SPANS: frozenset[str] = frozenset(
    {
        # QA front end
        "qa.ask",
        "qa.ask_many",
        "qa.optimize",
        # serving engine: a serve (one query or a batch) and the stages
        # under it
        "engine.serve",
        "engine.serve_batch",
        "engine.rebuild",
        "engine.append_rows",
        "engine.propagate",
        "engine.push",
        "engine.delta",
        # SGP solver
        "sgp.solve",
        # optimization drivers
        "optimize.single_vote",
        "optimize.multi_vote",
        "optimize.split_merge",
        "optimize.split",
        "optimize.merge",
        "optimize.encode",
        "optimize.vote",
        "optimize.cluster",
        "optimize.solve_clusters",
        "optimize.publish",
        # votes / evaluation
        "votes.feasibility_filter",
        "eval.test_set",
        # durability layer
        "wal.append",
        "wal.replay",
        "snapshot.write",
        "snapshot.recover",
        # observability (flight-recorder bundle dumps)
        "obs.dump",
    }
)

#: Histograms exempt from the ``_seconds`` suffix rule (unitless data).
_UNITLESS_HISTOGRAMS: frozenset[str] = frozenset(
    {
        "optimize_deviation_magnitude",
        # per-query edge traversals of the push backend (a count, not a
        # latency — the series the sublinearity claim is asserted on)
        "engine_push_edges_touched",
        # per-query accounted dropped mass of the push backend (a score
        # error, not a latency — the accuracy half of the cost/accuracy
        # attribution the flight recorder captures per ask)
        "engine_push_error_bound",
    }
)

#: One-line ``# HELP`` text per metric, keyed by series name.  Optional —
#: :func:`metric_help` generates a fallback for undocumented series — but
#: the operator-facing ones (everything the ``diag`` report reads) should
#: be described here.
METRIC_HELP: dict[str, str] = {
    "engine_cache_hits_total": "Score-LRU lookups served without propagation.",
    "engine_cache_misses_total": "Score-LRU lookups that required propagation.",
    "engine_serves_total": "Single-query score requests served by the engine.",
    "engine_delta_fallbacks_total": (
        "Delta revalidations abandoned for a full cache invalidation "
        "(dense patch frontier)."
    ),
    "engine_push_edges_touched": (
        "Edges traversed per push-backend query (the cost half of the "
        "push cost/accuracy tradeoff)."
    ),
    "engine_push_error_bound": (
        "Accounted dropped-mass score error per push-backend query (the "
        "accuracy half of the push cost/accuracy tradeoff)."
    ),
    "engine_push_repushes_total": (
        "Cached push entries recomputed because an optimizer patch "
        "touched their frontier."
    ),
    "optimize_ingest_votes_total": (
        "Votes accepted by the concurrent ingest path (logged and "
        "enqueued for the background optimizer worker)."
    ),
    "optimize_ingest_blocked_total": (
        "Ingest submissions that hit a full vote queue and had to wait "
        "(backpressure events)."
    ),
    "optimize_epochs_published_total": (
        "Weight-patch epochs the background worker published atomically "
        "to the serving engine."
    ),
    "optimize_worker_errors_total": (
        "Exceptions swallowed by the background optimizer worker loop "
        "(the failed batch stays buffered for retry)."
    ),
    "optimize_epoch_publish_seconds": (
        "Latency of one atomic epoch publication: live-graph weight "
        "apply plus engine flush under the state lock."
    ),
    "optimize_queue_depth": "Votes currently parked in the ingest queue.",
    "optimize_worker_lag_votes": (
        "Ingested votes not yet folded into a published epoch (queue "
        "depth plus the worker's pending buffer)."
    ),
    "optimize_worker_lag_seconds": (
        "Age of the oldest vote still waiting in the ingest queue."
    ),
    "qa_ask_seconds": "End-to-end ask() latency.",
    "qa_asks_total": "Questions served by the QA front end.",
    "qa_votes_total": "User votes ingested by the QA front end.",
    "wal_append_seconds": "Vote-WAL fsync-append latency.",
    "wal_lag_records": (
        "WAL records past the newest snapshot (replay work a recovery "
        "would need)."
    ),
    "snapshot_age_seconds": "Age of the newest graph snapshot.",
    "obs_recorder_events_total": "Events recorded by the flight recorder.",
    "obs_recorder_dropped_total": (
        "Flight-recorder events evicted from the ring before any dump."
    ),
    "obs_recorder_dumps_total": "Diagnostic bundles written by the flight recorder.",
    "obs_traces_dropped_total": (
        "Finished traces evicted unread from the tracing ring buffer."
    ),
    "slo_breaches_total": "SLO objective evaluations that found a breach.",
    "slo_attainment_ratio": (
        "Estimated fraction of operations meeting the objective's "
        "latency threshold."
    ),
    "slo_budget_burn": (
        "Error-budget burn rate: (1 - attainment) / (1 - target "
        "quantile); > 1 means burning budget faster than allowed."
    ),
    "slo_latency_estimate_seconds": (
        "Bucket-interpolated latency estimate at the objective's target "
        "quantile."
    ),
}


def metric_help(name: str) -> str:
    """``# HELP`` text for ``name`` (generated fallback if undocumented)."""
    return METRIC_HELP.get(name, f"Series {name} (see repro/obs/catalog.py).")


def is_registered_metric(name: str) -> bool:
    """Whether ``name`` is a declared metric series."""
    return name in METRICS


def is_registered_span(name: str) -> bool:
    """Whether ``name`` is a declared tracing span."""
    return name in SPANS


def catalog_errors() -> list[str]:
    """Convention violations inside the catalog itself (empty = clean).

    Checked by the test suite so the catalog stays the single source of
    naming truth: every entry must carry a known subsystem prefix,
    counters must end in ``_total``, and latency histograms in
    ``_seconds``.
    """
    errors: list[str] = []
    for name in sorted(METRICS):
        if not name.startswith(METRIC_PREFIXES):
            errors.append(
                f"metric {name!r} has no registered subsystem prefix "
                f"{METRIC_PREFIXES}"
            )
    for name in sorted(COUNTERS):
        if not name.endswith("_total"):
            errors.append(f"counter {name!r} must end in '_total'")
    for name in sorted(GAUGES | HISTOGRAMS):
        if name.endswith("_total"):
            errors.append(f"non-counter {name!r} must not end in '_total'")
    for name in sorted(HISTOGRAMS - _UNITLESS_HISTOGRAMS):
        if not name.endswith("_seconds"):
            errors.append(
                f"histogram {name!r} must end in '_seconds' (or be declared "
                f"unitless in the catalog)"
            )
    for name in sorted(METRIC_HELP):
        if name not in METRICS:
            errors.append(f"METRIC_HELP documents undeclared series {name!r}")
    return errors
