"""Unified observability: metrics registry, tracing spans, exporters.

Everything the serving and optimization layers emit flows through this
package:

- :mod:`repro.obs.operation` — :class:`observe`, the one call that
  times an operation into its latency histogram, its tracing span and
  the flight recorder from a single pair of clock readings;
- :mod:`repro.obs.metrics` — the process-wide :class:`MetricsRegistry`
  of counters, gauges, and fixed-bucket latency histograms; hot-path
  cheap, snapshot-able as a plain dict;
- :mod:`repro.obs.tracing` — nested per-request span trees collected
  into :class:`Trace` objects (JSONL-exportable, console-renderable);
  :func:`trace_span` is the bare span :class:`observe` opens;
- :mod:`repro.obs.exporters` — JSONL writers, Prometheus text
  exposition, and :func:`summary_table` for end-of-run CLI breakdowns;
- :mod:`repro.obs.recorder` — the flight recorder: a bounded ring of
  per-operation events dumped as a self-contained diagnostic bundle
  when a contract violation, delta fallback, SLO breach, or slow query
  fires a trigger;
- :mod:`repro.obs.slo` — latency objectives graded from
  bucket-interpolated histogram quantiles, with error-budget burn
  gauges and breach-triggered dumps;
- :mod:`repro.obs.diag` — the ``repro-kg diag`` health report, rendered
  from a live snapshot or a dumped bundle alike.

See DESIGN.md § Observability for the span hierarchy and the metric
naming/label conventions.
"""

from repro.obs.catalog import (
    COUNTERS,
    GAUGES,
    HISTOGRAMS,
    METRIC_PREFIXES,
    SPAN_PREFIXES,
    SPANS,
    catalog_errors,
    is_registered_metric,
    is_registered_span,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from repro.obs.tracing import (
    Span,
    Trace,
    add_trace_listener,
    clear_traces,
    current_span,
    last_trace,
    recent_traces,
    remove_trace_listener,
    set_trace_sampling,
    trace_span,
)
from repro.obs.exporters import (
    JsonlTraceWriter,
    metrics_to_prometheus,
    summary_table,
    traces_to_jsonl,
    write_metrics_json,
    write_traces_jsonl,
)
from repro.obs.recorder import (
    FlightRecorder,
    RecorderEvent,
    active_recorder,
    arm_recorder,
    disarm_recorder,
)
from repro.obs.operation import observe
from repro.obs.slo import (
    LatencyObjective,
    SLOStatus,
    SLOWatchdog,
    default_objectives,
    evaluate_objective,
)
from repro.obs.diag import (
    DiagBundle,
    load_bundle,
    render_bundle_report,
    render_health_report,
)

__all__ = [
    "COUNTERS",
    "GAUGES",
    "HISTOGRAMS",
    "METRIC_PREFIXES",
    "SPAN_PREFIXES",
    "SPANS",
    "catalog_errors",
    "is_registered_metric",
    "is_registered_span",
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "Span",
    "Trace",
    "trace_span",
    "set_trace_sampling",
    "current_span",
    "recent_traces",
    "last_trace",
    "clear_traces",
    "add_trace_listener",
    "remove_trace_listener",
    "JsonlTraceWriter",
    "traces_to_jsonl",
    "write_traces_jsonl",
    "write_metrics_json",
    "metrics_to_prometheus",
    "summary_table",
    "FlightRecorder",
    "RecorderEvent",
    "arm_recorder",
    "disarm_recorder",
    "active_recorder",
    "observe",
    "LatencyObjective",
    "SLOStatus",
    "SLOWatchdog",
    "default_objectives",
    "evaluate_objective",
    "DiagBundle",
    "load_bundle",
    "render_bundle_report",
    "render_health_report",
]
