"""Span recording for the traced run, from outside the program.

The traced run wraps public entry points of each layer — at class level,
or under the name the consuming module looks the function up by (for
example ``repro.optimize.multi_vote.encode_votes``, because
``multi_vote`` imports the name directly; wrapping
``repro.optimize.encoder.encode_votes`` would record nothing).  Each
call becomes one :class:`Span`; parents come from a per-thread stack, so
a span's children are the wrapped calls made inside it on its thread.

Counts come from wrapper return values and call counts, never from the
program's metrics registry, so a change to the program's own
instrumentation cannot silently zero a layer here.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field

from repro.graph.digraph import WeightedDiGraph
from repro.optimize import multi_vote, online
from repro.optimize.online import OnlineOptimizer
from repro.persistence import DurableStore
from repro.serving.delta import DeltaCorrector
from repro.serving.engine import SimilarityEngine
from repro.sgp.analysis import analyze_program
from repro.similarity.backend import DenseBackend, PushBackend


@dataclass(slots=True)
class Span:
    """One wrapped call: who, where, when, under which parent."""

    id: int
    name: str
    layer: str
    thread: str
    start: float
    end: float
    parent: "int | None"
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _push_attrs(args, kwargs, result):
    return {
        "edges_touched": int(result.edges_touched),
        "error_bound": float(result.error_bound),
    }


def _flush_attrs(args, kwargs, result):
    return {"votes": result.num_votes} if result is not None else {}


def _encode_attrs(args, kwargs, result):
    # Program statistics are computed after the run (see ``finish``):
    # analysing here would bill the walk over every term to the batch.
    return {"program": result.problem}


def _filter_attrs(args, kwargs, result):
    kept, discarded = result
    return {"kept": len(kept), "discarded": len(discarded)}


def _solve_attrs(args, kwargs, result):
    return {"iterations": int(result.nit), "vars": int(args[0].num_vars)}


def _checkpoint_attrs(args, kwargs, result):
    return {"bytes": os.stat(result).st_size}


#: (owner, attribute, span name, layer, attrs-from-call) for every
#: wrapped entry point.  Attribute functions run after the span closes,
#: so their cost is not billed to it.
ENTRY_POINTS = (
    (SimilarityEngine, "top_k", "serving.ask", "serving", None),
    (SimilarityEngine, "publish", "serving.publish", "serving", None),
    (DeltaCorrector, "correction", "serving.delta", "serving", None),
    (DenseBackend, "propagate", "similarity.dense", "similarity", None),
    (DenseBackend, "propagate_batch", "similarity.dense", "similarity", None),
    (PushBackend, "propagate", "similarity.push", "similarity", _push_attrs),
    (OnlineOptimizer, "flush", "optimize.batch", "optimize", _flush_attrs),
    (multi_vote, "encode_votes", "optimize.encode", "optimize", _encode_attrs),
    (multi_vote, "apply_edge_weights", "optimize.apply", "optimize", None),
    (online, "vote_omega_avg", "optimize.omega_eval", "optimize", None),
    (multi_vote, "filter_feasible", "votes.filter", "votes", _filter_attrs),
    (multi_vote, "solve_sgp", "sgp.solve", "sgp", _solve_attrs),
    (DurableStore, "log_vote", "persistence.log_vote", "persistence", None),
    (
        DurableStore,
        "checkpoint",
        "persistence.checkpoint",
        "persistence",
        _checkpoint_attrs,
    ),
    (os, "fsync", "persistence.fsync", "persistence", None),
    (WeightedDiGraph, "adjacency_matrix", "graph.adjacency", "graph", None),
    (WeightedDiGraph, "copy", "graph.copy", "graph", None),
)


class Tracer:
    """Installs the wrappers and keeps every span in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._originals: list[tuple[object, str, object]] = []

    @property
    def installed(self) -> bool:
        return bool(self._originals)

    def install(self) -> None:
        if self.installed:
            return
        for owner, attr, name, layer, attrs_fn in ENTRY_POINTS:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, layer, attrs_fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _wrap(self, original, name, layer, attrs_fn):
        spans = self.spans
        ids = self._ids
        local = self._local
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                spans.append(
                    Span(
                        span_id, name, layer,
                        threading.current_thread().name, start, end, parent,
                        {"error": type(exc).__name__},
                    )
                )
                raise
            end = clock()
            stack.pop()
            attrs = attrs_fn(args, kwargs, result) if attrs_fn else {}
            spans.append(
                Span(
                    span_id, name, layer,
                    threading.current_thread().name, start, end, parent, attrs,
                )
            )
            return result

        traced.__wrapped__ = original
        return traced

    def finish(self) -> None:
        """Replace deferred attributes (encoded programs) by their numbers."""
        for span in self.spans:
            program = span.attrs.pop("program", None)
            if program is not None:
                stats = analyze_program(program)
                span.attrs["constraints"] = stats.num_constraints
                span.attrs["terms"] = stats.total_terms

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.id):
                handle.write(
                    json.dumps(
                        {
                            "id": span.id,
                            "name": span.name,
                            "layer": span.layer,
                            "thread": span.thread,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "attrs": span.attrs,
                        }
                    )
                    + "\n"
                )


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover.

    Children run on their parent's thread inside its interval and never
    overlap each other, so the covered time is the sum of their
    durations.
    """
    own = {span.id: span.duration for span in spans}
    for span in spans:
        if span.parent in own:
            own[span.parent] -= span.duration
    return own
