"""Nested tracing spans: where did this request's time actually go?

The serving/optimization pipeline is a tree of stages — an ``ask()``
flushes the engine, propagates, ranks; an ``optimize()`` filters votes,
encodes a program, solves it (possibly once per cluster), merges.  A
flat timer dict cannot show *which solve inside which cluster* was slow;
a span tree can.

Usage::

    with trace_span("qa.ask", question_id="q0") as span:
        ...                     # nested trace_span() calls attach here
        span.set_attrs(num_answers=8)
    trace = last_trace()
    print(trace.render())       # indented console tree
    for line in trace.to_json_lines():
        ...                     # one JSON object per span

Program code times each operation with :func:`repro.obs.observe`,
which opens the same span and also feeds the operation's histogram and
the flight recorder; :func:`trace_span` is the bare span underneath.

Spans nest through a thread-local stack, so concurrently served threads
get independent traces.  When the outermost span of a thread closes,
the finished :class:`Trace` lands in a bounded ring buffer
(:func:`recent_traces`) and is offered to any registered listeners —
that is the hook the JSONL file exporter uses.  The ring and the
listener list are shared across threads and guarded by a real module
lock (``_ring_lock``, declared in
:data:`repro.utils.sync.SHARED_STATE`); listeners are invoked *outside*
the lock so a slow exporter cannot stall other threads' span exits.

The ambient API is deliberately tiny and cheap: opening a span costs a
``perf_counter`` call, a small object, and two list operations, so
per-request spans (not per-edge!) are fine on hot paths.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import deque
from collections.abc import Callable, Iterator
from time import perf_counter

__all__ = [
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
]

#: How many finished traces the in-process ring buffer retains.
TRACE_BUFFER_SIZE = 128

_trace_ids = itertools.count(1)
_span_ids = itertools.count(1)


class Span:
    """One timed, attributed node of a trace tree.

    A ``Span`` is its own context manager (``with trace_span(...)``
    enters the span directly): the per-request serving hot path pays for
    exactly one object allocation per span, not a span plus a wrapper.
    Closing the outermost span of a thread finalizes a :class:`Trace`,
    stores it in the ring buffer, and notifies listeners.  Exceptions
    propagate untouched but mark the span with an ``error`` attribute
    first, so a failed request's partial trace still tells the story.
    """

    __slots__ = ("span_id", "name", "attrs", "start", "end", "children")

    def __init__(self, name: str, attrs: dict) -> None:
        self.span_id = next(_span_ids)
        self.name = name
        self.attrs = attrs
        # Set by entering (``_open``): the clock is read once, there.
        self.start = 0.0
        self.end: "float | None" = None
        self.children: list[Span] = []

    def __enter__(self) -> "Span":
        self._open(perf_counter())
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._close(perf_counter(), exc_type)
        return False

    def _open(self, start: float) -> None:
        """Push onto this thread's stack, started at ``start`` (an
        operation passes its own clock readings here and to ``_close``)."""
        stack = _local.stack
        if stack:
            stack[-1].children.append(self)
        stack.append(self)
        self.start = start

    def _close(self, end: float, exc_type: "type[BaseException] | None") -> None:
        """Pop, ended at ``end``; the outermost span finalizes a trace."""
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.end = end
        stack = _local.stack
        stack.pop()
        if not stack:
            trace = Trace(self)
            with _ring_lock:
                dropped = len(_finished) == TRACE_BUFFER_SIZE
                _finished.append(trace)
                listeners = list(_listeners)
            if dropped:
                # The ring was full: appending evicted the oldest trace
                # unread.  Deliberate (bounded memory), but accounted —
                # a dashboard can tell "quiet" from "overwritten".
                from repro.obs.metrics import get_registry

                get_registry().counter("obs_traces_dropped_total").inc()
            for listener in listeners:
                listener(trace)

    @property
    def duration(self) -> float:
        """Wall-clock seconds (up to now while the span is still open)."""
        return (self.end if self.end is not None else perf_counter()) - self.start

    def set_attrs(self, **attrs) -> None:
        """Attach/overwrite attributes (solver iteration counts etc.)."""
        self.attrs.update(attrs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Span {self.name!r} {self.duration * 1e3:.2f}ms>"


class Trace:
    """A finished span tree rooted at one request-level span."""

    __slots__ = ("trace_id", "root")

    def __init__(self, root: Span) -> None:
        self.trace_id = next(_trace_ids)
        self.root = root

    @property
    def duration(self) -> float:
        """Total wall-clock seconds of the root span."""
        return self.root.duration

    def walk(self) -> Iterator[tuple[Span, int, "Span | None"]]:
        """Depth-first ``(span, depth, parent)`` over the tree."""
        stack: list[tuple[Span, int, Span | None]] = [(self.root, 0, None)]
        while stack:
            span, depth, parent = stack.pop()
            yield span, depth, parent
            for child in reversed(span.children):
                stack.append((child, depth + 1, span))

    def span_names(self) -> list[str]:
        """Span names in depth-first order (handy in assertions)."""
        return [span.name for span, _, _ in self.walk()]

    def find(self, name: str) -> "Span | None":
        """First span with ``name`` in depth-first order, or ``None``."""
        for span, _, _ in self.walk():
            if span.name == name:
                return span
        return None

    def to_json_lines(self) -> list[str]:
        """One compact JSON object per span (exportable as JSONL).

        Start offsets are relative to the root span, so lines are
        self-contained and diff-able across runs.
        """
        origin = self.root.start
        lines = []
        for span, depth, parent in self.walk():
            lines.append(
                json.dumps(
                    {
                        "trace_id": self.trace_id,
                        "span_id": span.span_id,
                        "parent_id": parent.span_id if parent else None,
                        "depth": depth,
                        "name": span.name,
                        "start_ms": round((span.start - origin) * 1e3, 4),
                        "duration_ms": round(span.duration * 1e3, 4),
                        "attrs": _jsonable(span.attrs),
                    },
                    sort_keys=True,
                )
            )
        return lines

    def render(self, *, min_duration: float = 0.0) -> str:
        """Indented console tree: name, duration, attributes.

        ``min_duration`` (seconds) hides sub-spans faster than the
        threshold, keeping deep traces readable.
        """
        lines = []
        for span, depth, _ in self.walk():
            if depth and span.duration < min_duration:
                continue
            attrs = " ".join(f"{k}={_fmt_attr(v)}" for k, v in span.attrs.items())
            lines.append(
                f"{'  ' * depth}{span.name}  {span.duration * 1e3:.2f}ms"
                + (f"  [{attrs}]" if attrs else "")
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Trace #{self.trace_id} root={self.root.name!r} "
            f"{self.duration * 1e3:.2f}ms>"
        )


def _fmt_attr(value: object) -> str:
    if isinstance(value, float):
        return format(value, ".4g")
    return str(value)


def _jsonable(attrs: "dict[str, object]") -> "dict[str, object]":
    out: dict[str, object] = {}
    for key, value in attrs.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[key] = value
        else:
            out[key] = repr(value)
    return out


class _ThreadState(threading.local):
    """Per-thread open-span stack (created on each thread's first use)."""

    def __init__(self) -> None:
        self.stack: list[Span | _NoopSpan] = []


_local = _ThreadState()
#: Guards the trace ring and the listener list — any thread's outermost
#: span exit publishes into both, so GIL luck is not a discipline.
_ring_lock = threading.Lock()
_finished: deque[Trace] = deque(maxlen=TRACE_BUFFER_SIZE)
_listeners: list[Callable[[Trace], None]] = []


def current_span() -> "Span | None":
    """The innermost open span on this thread, or ``None``."""
    stack = _local.stack
    top = stack[-1] if stack else None
    return top if isinstance(top, Span) else None


class _NoopSpan:
    """Stand-in for a sampled-out root span: every operation is free.

    A process-wide singleton, so skipping a trace costs one comparison
    and no allocation.  It deliberately mirrors the :class:`Span`
    surface that instrumentation sites touch (``set_attrs``,
    ``duration``) so callers never branch on sampling.
    """

    __slots__ = ()
    duration = 0.0

    def __enter__(self) -> "_NoopSpan":
        self._open(0.0)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._close(0.0, exc_type)
        return False

    def _open(self, start: float) -> None:
        # On the stack, it tells the spans opened underneath that their
        # root was sampled out.
        _local.stack.append(self)

    def _close(self, end: float, exc_type: object) -> None:
        _local.stack.pop()

    def set_attrs(self, **attrs) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<Span sampled out>"


_NOOP_SPAN = _NoopSpan()

#: Trace one in this many root spans (1 = trace every request).
_sample_every = 1
_root_seen = 0


def set_trace_sampling(every: int) -> int:
    """Trace one in ``every`` root spans; returns the previous setting.

    Head sampling for high-throughput serving: per-request root spans
    cost a few microseconds each, which an always-on tracer turns into
    measurable latency at thousands of requests per second.  With
    sampling at ``every > 1``, only every ``every``-th root span (and
    its children) is materialized — the first root after a (re)setting
    is always traced — while skipped requests pay one integer check.
    Metrics are unaffected: counters and histograms stay exact.

    Nested spans are never sampled individually: a traced root traces
    its whole tree, a skipped root skips it.
    """
    global _sample_every, _root_seen
    if every < 1:
        raise ValueError(f"sampling rate must be ≥ 1, got {every}")
    previous = _sample_every
    _sample_every = every
    _root_seen = 0
    return previous


def trace_span(name: str, **attrs) -> "Span | _NoopSpan":
    """A span ready to enter; nests under the thread's current span.

    Program code times its operations with :func:`repro.obs.observe`,
    which opens its span the same way; this bare span serves the
    observability layer itself (bundle dumps) and tests.

    Under :func:`set_trace_sampling` a would-be root span may instead
    be a free no-op singleton; spans opened inside a live span are
    always real so traced trees stay complete.
    """
    span = _new_span(name, attrs)
    return _NOOP_SPAN if span is None else span


def _new_span(name: str, attrs: dict) -> "Span | _NoopSpan | None":
    """The span an operation opens now on this thread.

    A :class:`Span` when traced, the no-op for a sampled-out root (it
    goes on the stack, so what opens underneath sees it), and ``None``
    inside a sampled-out root, where there is nothing to record.
    """
    stack = _local.stack
    if stack:
        return None if stack[-1] is _NOOP_SPAN else Span(name, attrs)
    if _sample_every != 1:
        global _root_seen
        seen = _root_seen
        _root_seen = seen + 1
        if seen % _sample_every:
            return _NOOP_SPAN
    return Span(name, attrs)


def recent_traces(n: "int | None" = None) -> list[Trace]:
    """The last ``n`` finished traces (all buffered ones by default)."""
    with _ring_lock:
        traces = list(_finished)
    return traces if n is None else traces[-n:]


def last_trace() -> "Trace | None":
    """The most recently finished trace, or ``None``."""
    with _ring_lock:
        return _finished[-1] if _finished else None


def clear_traces() -> None:
    """Empty the ring buffer and re-phase the sampler (test isolation).

    Resetting the sampling phase makes "the first root span after a
    clear is traced" deterministic regardless of what ran before.
    """
    global _root_seen
    with _ring_lock:
        _finished.clear()
    _root_seen = 0


def add_trace_listener(listener: Callable[[Trace], None]) -> None:
    """Call ``listener(trace)`` whenever a root span finishes."""
    with _ring_lock:
        _listeners.append(listener)


def remove_trace_listener(listener: Callable[[Trace], None]) -> None:
    """Detach a listener registered with :func:`add_trace_listener`."""
    with _ring_lock:
        _listeners.remove(listener)
