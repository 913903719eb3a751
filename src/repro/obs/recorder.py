"""The flight recorder: a bounded event ring with dump-on-trigger.

Aggregate counters answer "how many delta fallbacks today"; they cannot
answer "what was the engine doing in the two seconds *before* this
fallback cascade".  The flight recorder closes that gap: every
interesting operation (an ask with its backend/cache/cost attribution,
an optimize with its patch size, a WAL append, a checkpoint) appends one
small structured event to a bounded ring, and a *trigger* — a
:class:`~repro.devtools.contracts.ContractViolation`, a
:class:`~repro.serving.delta.DeltaFallbackError` fallback, an SLO
breach, or a single slow operation — freezes the story by writing a
self-contained **diagnostic bundle** to disk:

- ``events.jsonl`` — the recent event ring, oldest first;
- ``metrics.json`` — a full registry snapshot at dump time;
- ``traces.jsonl`` — the recent finished trace trees;
- ``MANIFEST.json`` — reason, trigger detail, timestamps, counts.

A bundle needs nothing from the live process: ``repro-kg diag <bundle>``
renders the post-mortem from the files alone (:mod:`repro.obs.diag`).

Cost model: an observed operation's event is one event object, one
``deque.append`` (atomic under the GIL) and one increment of the events
counter, which takes that counter's lock; no I/O until a trigger fires.
When no recorder is armed, an operation pays one module-global load.
Armed, a cache-hit ``QASystem.ask`` (two events: ``qa.ask`` and
``engine.serve``) costs about 4–6 µs more, +10–19% on
``bench_recorder_overhead``'s ask loop (5,000 asks per side in
alternating blocks, 2-vCPU VM), which bounds it at +30%.

Arming mirrors :mod:`repro.devtools.contracts`: set ``REPRO_FLIGHT_DIR``
in the environment (CI does, so a failed test run uploads its bundles),
or call :func:`arm_recorder` explicitly.  Dumps are rate-limited
(``min_dump_interval``) and capped (``max_dumps``) so a trigger storm —
the exact situation the recorder exists for — cannot fill the disk.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from collections import deque
from collections.abc import Mapping
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter

from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.tracing import recent_traces, trace_span
from repro.utils.sync import serve_exempt

__all__ = [
    "RecorderEvent",
    "FlightRecorder",
    "arm_recorder",
    "disarm_recorder",
    "active_recorder",
    "record_violation",
    "DEFAULT_CAPACITY",
    "DEFAULT_SLOW_THRESHOLDS",
    "BUNDLE_SCHEMA_VERSION",
]

logger = logging.getLogger(__name__)

#: Events the ring retains (a few minutes of busy serving).
DEFAULT_CAPACITY = 4096

#: Per-operation slow thresholds (seconds) that fire a ``slow_op`` dump.
#: Keyed by event kind; operations without an entry never self-trigger.
DEFAULT_SLOW_THRESHOLDS: Mapping[str, float] = {
    "qa.ask": 0.5,
    "engine.serve": 0.25,
    "qa.optimize": 60.0,
    "wal.append": 0.25,
}

#: Earliest seconds between two dumps (trigger-storm protection).
DEFAULT_MIN_DUMP_INTERVAL = 10.0

#: Most bundles one recorder will ever write (disk protection).
DEFAULT_MAX_DUMPS = 32

#: Bundle format version recorded in every manifest.
BUNDLE_SCHEMA_VERSION = 1

#: Bundle files (besides the manifest); the manifest lists them so a
#: reader can verify completeness.
BUNDLE_FILES = ("events.jsonl", "metrics.json", "traces.jsonl")


class RecorderEvent:
    """One recorded operation: kind, monotonic timestamp, attributes, and
    the duration in seconds of an observed one (``None`` if untimed)."""

    __slots__ = ("kind", "t", "attrs", "latency")

    def __init__(
        self,
        kind: str,
        t: float,
        attrs: dict[str, object],
        latency: "float | None" = None,
    ) -> None:
        self.kind = kind
        self.t = t
        self.attrs = attrs
        self.latency = latency

    def to_dict(self) -> dict[str, object]:
        """JSON-ready shape (``t`` is ``perf_counter`` seconds: ordering
        and spacing are meaningful, the absolute origin is not)."""
        head: dict[str, object] = {"kind": self.kind, "t": round(self.t, 6)}
        if self.latency is not None:
            head["latency"] = round(self.latency, 6)
        return {**head, **self.attrs}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<RecorderEvent {self.kind!r} {self.attrs!r}>"


def _safe_reason(reason: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in reason) or "unknown"


class FlightRecorder:
    """Bounded ring of :class:`RecorderEvent` with dump-on-trigger.

    One instance per process is the normal deployment (see
    :func:`arm_recorder`), but instances are self-contained — tests run
    throwaway recorders against throwaway registries.
    """

    def __init__(
        self,
        dump_dir: "str | os.PathLike[str]",
        *,
        capacity: int = DEFAULT_CAPACITY,
        slow_thresholds: "Mapping[str, float] | None" = None,
        min_dump_interval: float = DEFAULT_MIN_DUMP_INTERVAL,
        max_dumps: int = DEFAULT_MAX_DUMPS,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"recorder capacity must be ≥ 1, got {capacity}")
        self.dump_dir = Path(dump_dir)
        self.capacity = capacity
        self.slow_thresholds: dict[str, float] = dict(
            DEFAULT_SLOW_THRESHOLDS if slow_thresholds is None else slow_thresholds
        )
        self.min_dump_interval = min_dump_interval
        self.max_dumps = max_dumps
        self._registry = registry
        self._events: deque[RecorderEvent] = deque(maxlen=capacity)
        self._dump_lock = threading.Lock()
        self._dump_seq = 0
        self._last_dump_at: "float | None" = None
        reg = self._resolve_registry()
        self._m_events = reg.counter("obs_recorder_events_total")
        self._m_dropped = reg.counter("obs_recorder_dropped_total")
        self._m_dumps = reg.counter("obs_recorder_dumps_total")

    def _resolve_registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    # ------------------------------------------------------------------
    # recording (hot path)
    # ------------------------------------------------------------------
    def record(self, kind: str, **attrs: object) -> None:
        """Append one untimed event; observed operations append theirs
        with :meth:`append_event`."""
        self.append_event(RecorderEvent(kind, perf_counter(), attrs))

    def append_event(self, event: RecorderEvent) -> None:
        """Append ``event`` to the ring, counting it (and any eviction)."""
        events = self._events
        if len(events) == self.capacity:
            self._m_dropped.inc()
        events.append(event)
        self._m_events.inc()

    def events(self) -> list[RecorderEvent]:
        """Snapshot of the ring, oldest first."""
        return list(self._events)

    # ------------------------------------------------------------------
    # triggering and dumping
    # ------------------------------------------------------------------
    @serve_exempt(
        "failure-path diagnostics: a rate-limited, capped bundle dump is "
        "an accepted serve-path cost when an anomaly seam fires"
    )
    def trigger(self, reason: str, detail: str = "") -> "Path | None":
        """Request a dump; returns the bundle path or ``None`` if
        rate-limited / capped.  Never raises out of an instrumented
        seam: a broken dump directory must not take down serving."""
        with self._dump_lock:
            now = perf_counter()
            if self._dump_seq >= self.max_dumps:
                return None
            if (
                self._last_dump_at is not None
                and now - self._last_dump_at < self.min_dump_interval
            ):
                return None
            self._last_dump_at = now
            self._dump_seq += 1
            seq = self._dump_seq
        try:
            return self._write_bundle(seq, reason, detail)
        except OSError:
            logger.exception("flight recorder failed to write bundle (%s)", reason)
            return None

    @serve_exempt("operator escape hatch: unconditional bundle write")
    def dump(self, reason: str = "manual", detail: str = "") -> Path:
        """Write a bundle unconditionally (no rate limit, no cap).

        The escape hatch for operators and tests; automated seams go
        through :meth:`trigger`.
        """
        with self._dump_lock:
            self._dump_seq += 1
            self._last_dump_at = perf_counter()
            seq = self._dump_seq
        return self._write_bundle(seq, reason, detail)

    def _write_bundle(self, seq: int, reason: str, detail: str) -> Path:
        with trace_span("obs.dump", reason=reason) as span:
            bundle = self.dump_dir / f"flight-{seq:03d}-{_safe_reason(reason)}"
            bundle.mkdir(parents=True, exist_ok=True)
            events = self.events()
            with open(bundle / "events.jsonl", "w", encoding="utf-8") as handle:
                for event in events:
                    handle.write(json.dumps(_jsonable(event.to_dict())) + "\n")
            snapshot = self._resolve_registry().snapshot()
            with open(bundle / "metrics.json", "w", encoding="utf-8") as handle:
                json.dump(snapshot, handle, indent=2, sort_keys=True)
                handle.write("\n")
            traces = recent_traces()
            with open(bundle / "traces.jsonl", "w", encoding="utf-8") as handle:
                for trace in traces:
                    for line in trace.to_json_lines():
                        handle.write(line + "\n")
            manifest: dict[str, object] = {
                "schema_version": BUNDLE_SCHEMA_VERSION,
                "reason": reason,
                "detail": detail,
                "created_at": datetime.now(timezone.utc).isoformat(),
                "pid": os.getpid(),
                "dump_seq": seq,
                "num_events": len(events),
                "num_traces": len(traces),
                "num_series": len(snapshot),
                "events_dropped": self._m_dropped.value,
                "files": list(BUNDLE_FILES),
            }
            with open(bundle / "MANIFEST.json", "w", encoding="utf-8") as handle:
                json.dump(manifest, handle, indent=2, sort_keys=True)
                handle.write("\n")
            self._m_dumps.inc()
            span.set_attrs(bundle=str(bundle), num_events=len(events))
            logger.warning("flight recorder dumped %s (%s)", bundle, reason)
            return bundle

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<FlightRecorder dir={str(self.dump_dir)!r} "
            f"events={len(self._events)}/{self.capacity} dumps={self._dump_seq}>"
        )


def _jsonable(attrs: dict[str, object]) -> dict[str, object]:
    out: dict[str, object] = {}
    for key, value in attrs.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[key] = value
        else:
            out[key] = repr(value)
    return out


# ----------------------------------------------------------------------
# process-wide arming (mirrors devtools.contracts' enable switch)
# ----------------------------------------------------------------------
_active: "FlightRecorder | None" = None


def active_recorder() -> "FlightRecorder | None":
    """The armed process-wide recorder, or ``None`` (the default).

    Instrumented call sites do ``rec = active_recorder()`` then guard on
    ``rec is not None`` so a disarmed process pays one global load and
    one comparison per seam.
    """
    return _active


def arm_recorder(
    dump_dir: "str | os.PathLike[str]",
    *,
    capacity: int = DEFAULT_CAPACITY,
    slow_thresholds: "Mapping[str, float] | None" = None,
    min_dump_interval: float = DEFAULT_MIN_DUMP_INTERVAL,
    max_dumps: int = DEFAULT_MAX_DUMPS,
    registry: "MetricsRegistry | None" = None,
) -> FlightRecorder:
    """Arm a process-wide :class:`FlightRecorder` dumping to ``dump_dir``.

    Arguments mirror :class:`FlightRecorder`.  Re-arming replaces the
    previous recorder (its ring is discarded).
    """
    global _active
    _active = FlightRecorder(
        dump_dir,
        capacity=capacity,
        slow_thresholds=slow_thresholds,
        min_dump_interval=min_dump_interval,
        max_dumps=max_dumps,
        registry=registry,
    )
    return _active


def disarm_recorder() -> "FlightRecorder | None":
    """Disarm; returns the recorder that was active (tests restore it)."""
    global _active
    previous = _active
    _active = None
    return previous


def record_violation(seam: str, message: str) -> None:
    """Contract-violation hook: record the event and trigger a dump.

    Called by :mod:`repro.devtools.contracts` *before* the
    ``ContractViolation`` propagates, so the bundle captures the ring as
    it stood at the moment the invariant broke.  A no-op when disarmed.
    """
    rec = _active
    if rec is None:
        return
    rec.record("contract.violation", seam=seam, message=message)
    rec.trigger("contract_violation", detail=f"{seam}: {message}")


def _env_flight_dir() -> "str | None":
    value = os.environ.get("REPRO_FLIGHT_DIR", "").strip()
    return value or None


_env_dir = _env_flight_dir()
if _env_dir is not None:  # pragma: no cover - exercised via subprocess tests
    arm_recorder(_env_dir)
