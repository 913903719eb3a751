"""One instrumentation call per operation: :func:`observe`.

Every timed operation in the program is written once::

    with observe("engine.propagate", self._h_propagate, batch=1) as op:
        ...
        if op.recording:
            op.set(edges=matrix.nnz)

One pair of clock readings, ``op.elapsed``, feeds the histogram (if
given), the span ``name`` (when sampled in) and, when a flight recorder
is armed, one ``name`` event carrying the attributes and ``latency``
(past the kind's slow threshold, a ``slow_op`` dump).  The span and the
event share one attribute dict.  ``op.recording`` is false when the
span is sampled out and no recorder is armed; hot paths guard attribute
building with it.  Exceptions propagate, and the operation still closes
once, with an ``error`` attribute.  DESIGN.md § Observability has the
cost model.
"""

from __future__ import annotations

from time import perf_counter

from repro.obs import recorder as _recorder
from repro.obs.metrics import Histogram
from repro.obs.recorder import FlightRecorder, RecorderEvent
from repro.obs.tracing import _NOOP_SPAN, Span, _local, _new_span, _NoopSpan

__all__ = ["observe", "Operation", "Timer"]


def observe(
    name: str, histogram: "Histogram | None" = None, **attrs: object
) -> "Operation | Timer":
    """The context that times the operation ``name`` (a catalog span).

    ``histogram`` observes its duration; ``attrs`` are the span's and
    the event's first attributes.  When nothing would consume more than
    ``elapsed`` (no histogram, no armed recorder, the span sampled out)
    the context is a bare :class:`Timer`.
    """
    rec = _recorder._active
    span = _new_span(name, attrs)
    if rec is None and histogram is None:
        if span is None:
            return Timer()
        if span is _NOOP_SPAN:
            return _SampledOutRoot()
    return Operation(name, attrs, histogram, span, rec)


class Timer:
    """An operation nothing records: it only measures ``elapsed``."""

    __slots__ = ("_start", "elapsed")

    recording = False

    def set(self, **attrs: object) -> None:
        """Nothing reads the attributes."""

    def __enter__(self) -> "Timer":
        self._start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.elapsed = perf_counter() - self._start
        return False


class _SampledOutRoot(Timer):
    """A :class:`Timer` that also puts the no-op span on the stack, so
    what opens under this sampled-out root is skipped.

    Every direct serve is such a root.  The calls this saves (an
    ``Operation`` and the no-op span's methods) measured about 3 µs per
    helpdesk-ask ask when each ask follows a 2 ms idle wait.
    """

    __slots__ = ()

    def __enter__(self) -> "Timer":
        _local.stack.append(_NOOP_SPAN)
        self._start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.elapsed = perf_counter() - self._start
        _local.stack.pop()
        return False


class Operation:
    """One observed operation; see :func:`observe`."""

    __slots__ = (
        "name",
        "attrs",
        "elapsed",
        "recording",
        "_histogram",
        "_span",
        "_recorder",
        "_start",
    )

    def __init__(
        self,
        name: str,
        attrs: dict[str, object],
        histogram: "Histogram | None",
        span: "Span | _NoopSpan | None",
        recorder: "FlightRecorder | None",
    ) -> None:
        self.name = name
        self.attrs = attrs
        self._histogram = histogram
        self._span = span
        self._recorder = recorder
        self.recording = recorder is not None or span.__class__ is Span

    def set(self, **attrs: object) -> None:
        """Add or overwrite attributes of the span and the event."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Operation":
        start = self._start = perf_counter()
        span = self._span
        if span is not None:
            span._open(start)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = perf_counter()
        elapsed = self.elapsed = end - self._start
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        histogram = self._histogram
        if histogram is not None:
            histogram.observe(elapsed)
        span = self._span
        if span is not None:
            span._close(end, exc_type)
        rec = self._recorder
        if rec is not None:
            name = self.name
            rec.append_event(RecorderEvent(name, end, self.attrs, elapsed))
            threshold = rec.slow_thresholds.get(name)
            if threshold is not None and elapsed > threshold:
                rec.trigger(
                    "slow_op",
                    detail=f"{name} took {elapsed:.4f}s (threshold {threshold:g}s)",
                )
        return False
