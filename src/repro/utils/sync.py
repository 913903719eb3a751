"""Concurrency annotation vocabulary: who may touch what, under which guard.

The ROADMAP's next tentpole is a concurrent serve/optimize architecture
(background optimizer thread, double-buffered matrix epochs, lock-free
reads on the serve path).  Before any thread lands, every piece of
cross-thread-visible state must be *declared*: where it lives, who owns
it, and what discipline guards it.  This module is that declaration —
a registry the static analyzer (:mod:`repro.devtools.concurrency`)
checks the whole tree against, in the spirit of Clang's thread-safety
annotations or Go's ``vet`` lock checks.

Guard disciplines (the ``guard`` field grammar):

``owner:<module>``
    Writes may only occur in the owning module (and, for attributes,
    inside the declaring class or a declared cross-module writer).
    The single-writer discipline: the future optimizer thread is the
    only mutator, readers see immutable snapshots.
``lock:<name>``
    Every write must be lexically inside ``with <holder>.<name>:`` (or
    ``with <name>:`` for module-level locks) in the owning module.
``gil-atomic``
    A single bytecode-atomic operation (``deque.append``, one ``dict``
    store, a plain rebind) in the owning module; safe today under the
    GIL and documented as needing review for free-threaded builds.

Decorators (consumed by the analyzer, free at runtime):

``@serve_path``
    Marks a function as a serve-path root: everything reachable from it
    must stay free of blocking I/O and of non-``serve_safe`` guard
    acquisition (rule R010).
``@mutator``
    Marks a declared mutation entry point — the functions allowed to
    restructure shared state.  Documentation for the reader and
    inventory metadata for ``repro-kg analyze``.
``@serve_exempt(reason)``
    A declared reachability barrier: the analyzer does not descend into
    the decorated function when walking the serve path.  Reserved for
    failure-path diagnostics (e.g. the flight recorder's dump) whose
    cost is accepted and audited; every use is listed in the analyze
    report with its reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TypeVar

__all__ = [
    "SharedState",
    "SHARED_STATE",
    "serve_path",
    "mutator",
    "serve_exempt",
    "shared_state_by_attr",
]

F = TypeVar("F", bound=Callable)


def serve_path(func: F) -> F:
    """Mark ``func`` as a serve-path root for R010 reachability."""
    func.__serve_path__ = True  # type: ignore[attr-defined]
    return func


def mutator(func: F) -> F:
    """Mark ``func`` as a declared mutation entry point for shared state."""
    func.__mutator__ = True  # type: ignore[attr-defined]
    return func


def serve_exempt(reason: str) -> Callable[[F], F]:
    """Declare ``func`` a serve-path barrier (diagnostics-only cost)."""

    def decorate(func: F) -> F:
        func.__serve_exempt__ = reason  # type: ignore[attr-defined]
        return func

    return decorate


@dataclass(frozen=True)
class SharedState:
    """One declared piece of cross-thread-visible state.

    Parameters
    ----------
    name:
        ``Class.attr`` for instance attributes, ``module_basename.name``
        for module globals (``kind`` disambiguates).
    owner:
        Fully qualified owning module, e.g. ``repro.serving.engine``.
    kind:
        ``"attribute"`` (matched against ``obj.attr`` write sites) or
        ``"module-global"`` (matched against bare-name sites in the
        owning module).
    guard:
        Discipline string — see the module docstring for the grammar.
    writers:
        Extra declared cross-module writers as ``module:Class.method``
        (the owning module is always allowed).
    serve_safe:
        For ``lock:`` guards only — acquisition is cheap and permitted
        on the serve path (R010 flags acquisition of non-serve-safe
        guards in serve-reachable code).
    description:
        Why this state is shared — rendered in the analyze inventory.
    """

    name: str
    owner: str
    guard: str
    description: str
    kind: str = "attribute"
    writers: tuple = ()
    serve_safe: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("attribute", "module-global"):
            raise ValueError(f"unknown shared-state kind: {self.kind!r}")
        ok = self.guard == "gil-atomic" or self.guard.startswith(
            ("lock:", "owner:")
        )
        if not ok:
            raise ValueError(f"unknown guard discipline: {self.guard!r}")

    @property
    def cls(self) -> "str | None":
        """Declaring class for attribute kind (``None`` for globals)."""
        if self.kind != "attribute":
            return None
        return self.name.rsplit(".", 1)[0]

    @property
    def attr(self) -> str:
        """The attribute / global name matched at write sites."""
        return self.name.rsplit(".", 1)[1]

    @property
    def lock_name(self) -> "str | None":
        """The lock attribute for ``lock:`` guards (else ``None``)."""
        if self.guard.startswith("lock:"):
            return self.guard.split(":", 1)[1]
        return None


# ----------------------------------------------------------------------
# The inventory.  Every attribute here is visible across the
# serve/optimize thread boundary; the analyzer enforces the declared
# discipline at every write site in the tree (rule R008).
# ----------------------------------------------------------------------
SHARED_STATE: "tuple[SharedState, ...]" = (
    # -- serving engine: one published epoch ------------------------------
    #
    # Everything a serve reads lives in one ``_Epoch`` object whose
    # matrix and index never change after publication.  Writers (publish,
    # or a serve that finds the graph's version moved) build the next
    # epoch under ``_state_lock`` and publish it with one assignment; a
    # serve reads ``_current`` once and holds no lock while it computes.
    SharedState(
        name="SimilarityEngine._current",
        owner="repro.serving.engine",
        guard="lock:_state_lock",
        serve_safe=True,
        description="the published epoch (matrix, index, push state, score "
        "LRU); rebound, never mutated, so a captured reference is a "
        "consistent snapshot",
    ),
    SharedState(
        name="_Epoch._lru",
        owner="repro.serving.engine",
        guard="lock:_lru_lock",
        serve_safe=True,
        description="one epoch's score LRU of frozen vectors; serves insert "
        "and reorder, a writer copies it for the successor epoch",
    ),
    SharedState(
        name="_Epoch.push",
        owner="repro.serving.engine",
        guard="gil-atomic",
        description="push-backend state built from the epoch's own matrix "
        "(out-edge CSR, rho); one rebind when the first push serve or "
        "revalidation builds it",
    ),
    SharedState(
        name="AugmentedGraph._query_bumps",
        owner="repro.graph.augmented",
        guard="gil-atomic",
        description="version bumps of query churn, subtracted from the "
        "persistent version; None while a serve-thread attach runs",
    ),
    SharedState(
        name="SimilarityEngine.params",
        owner="repro.serving.engine",
        guard="owner:repro.serving.engine",
        writers=("repro.qa.system:QASystem.params",),
        description="similarity parameters; QASystem's params setter is "
        "the declared cross-module writer (flushes on change)",
    ),
    # -- persistence: WAL sequence counter and replay buffer -------------
    #
    # The ingest side appends (log-before-enqueue) while the optimizer
    # worker rotates after a checkpoint — two threads, one file handle,
    # so both critical sections serialize on ``_wal_lock``.
    SharedState(
        name="VoteWAL._last_seq",
        owner="repro.persistence.wal",
        guard="lock:_wal_lock",
        description="monotonic durable sequence counter (log before apply)",
    ),
    SharedState(
        name="VoteWAL._records",
        owner="repro.persistence.wal",
        guard="lock:_wal_lock",
        description="in-memory mirror of the durable log for replay",
    ),
    SharedState(
        name="VoteWAL._file",
        owner="repro.persistence.wal",
        guard="lock:_wal_lock",
        description="append handle; rotation swaps it while ingest appends",
    ),
    # -- online optimizer: the vote queue the serve side feeds -----------
    SharedState(
        name="OnlineOptimizer.pending",
        owner="repro.optimize.online",
        guard="owner:repro.optimize.online",
        description="buffered votes awaiting the next optimization batch",
    ),
    SharedState(
        name="OnlineOptimizer._pending_seqs",
        owner="repro.optimize.online",
        guard="owner:repro.optimize.online",
        description="WAL sequence numbers for the pending batch",
    ),
    SharedState(
        name="OnlineOptimizer.history",
        owner="repro.optimize.online",
        guard="owner:repro.optimize.online",
        description="per-batch outcome trajectory (append-only)",
    ),
    # -- serving worker: the ingest queue between threads -----------------
    #
    # ``VoteQueue`` is the only structure both the ingest thread and the
    # optimizer worker mutate; every touch is inside ``with self._cond:``
    # (a Condition wrapping one mutex).  The worker's own optimizer and
    # shadow graph are thread-confined and deliberately *not* listed.
    SharedState(
        name="VoteQueue._items",
        owner="repro.serving.worker",
        guard="lock:_cond",
        description="bounded deque of durable, not-yet-buffered votes",
    ),
    SharedState(
        name="VoteQueue._closed",
        owner="repro.serving.worker",
        guard="lock:_cond",
        description="shutdown latch; put() refuses once set",
    ),
    SharedState(
        name="OptimizerWorker._last_error",
        owner="repro.serving.worker",
        guard="gil-atomic",
        description="newest worker-loop exception (plain rebind; readers "
        "poll it for health checks)",
    ),
    SharedState(
        name="OptimizerWorker._drain",
        owner="repro.serving.worker",
        guard="gil-atomic",
        description="stop-mode flag (plain bool rebind by stop(); the "
        "worker loop reads it after the stop event is set)",
    ),
    # -- the worker's solver process --------------------------------------
    #
    # The worker thread spawns and respawns the child; stop() on the
    # caller's thread kills it when the thread does not end in time, and
    # the interpreter-exit hook kills one nobody stopped.
    SharedState(
        name="SolverProcess._popen",
        owner="repro.sgp.process",
        guard="lock:_child_lock",
        description="the running solver child (None between a death and "
        "its respawn, and after close)",
    ),
    SharedState(
        name="SolverProcess._closed",
        owner="repro.sgp.process",
        guard="lock:_child_lock",
        description="close latch; once set no request respawns the child",
    ),
    # -- observability: registries, rings, instruments -------------------
    SharedState(
        name="MetricsRegistry._metrics",
        owner="repro.obs.metrics",
        guard="lock:_lock",
        serve_safe=True,
        description="name -> instrument map; get-or-create under _lock",
    ),
    SharedState(
        name="MetricsRegistry._types",
        owner="repro.obs.metrics",
        guard="lock:_lock",
        serve_safe=True,
        description="name -> instrument-type map, updated with _metrics",
    ),
    SharedState(
        name="Counter.value",
        owner="repro.obs.metrics",
        guard="lock:_lock",
        serve_safe=True,
        description="counter total; += is a read-modify-write, locked",
    ),
    SharedState(
        name="Gauge.value",
        owner="repro.obs.metrics",
        guard="lock:_lock",
        serve_safe=True,
        description="gauge level; inc/dec are read-modify-writes, locked",
    ),
    SharedState(
        name="Histogram.counts",
        owner="repro.obs.metrics",
        guard="lock:_lock",
        serve_safe=True,
        description="per-bucket sample counts; observe() is a three-field "
        "read-modify-write, locked",
    ),
    SharedState(
        name="Histogram.sum",
        owner="repro.obs.metrics",
        guard="lock:_lock",
        serve_safe=True,
        description="running sample sum, updated with counts",
    ),
    SharedState(
        name="Histogram.count",
        owner="repro.obs.metrics",
        guard="lock:_lock",
        serve_safe=True,
        description="total sample count, updated with counts",
    ),
    SharedState(
        name="tracing._finished",
        owner="repro.obs.tracing",
        kind="module-global",
        guard="lock:_ring_lock",
        serve_safe=True,
        description="bounded ring of completed root traces",
    ),
    SharedState(
        name="tracing._listeners",
        owner="repro.obs.tracing",
        kind="module-global",
        guard="lock:_ring_lock",
        serve_safe=True,
        description="trace-completion callbacks; mutated under the ring "
        "lock, iterated over a copy",
    ),
    SharedState(
        name="tracing._root_seen",
        owner="repro.obs.tracing",
        kind="module-global",
        guard="gil-atomic",
        description="root-span sampling counter; a lost increment only "
        "shifts which span is sampled",
    ),
    SharedState(
        name="tracing._sample_every",
        owner="repro.obs.tracing",
        kind="module-global",
        guard="gil-atomic",
        description="sampling modulus (single rebind in configure call)",
    ),
    SharedState(
        name="FlightRecorder._events",
        owner="repro.obs.recorder",
        guard="gil-atomic",
        description="bounded deque ring of flight events (single append; "
        "dumps snapshot via list() copy)",
    ),
    SharedState(
        name="FlightRecorder._dump_seq",
        owner="repro.obs.recorder",
        guard="lock:_dump_lock",
        description="dump counter for the bundle cap / rate limit",
    ),
    SharedState(
        name="FlightRecorder._last_dump_at",
        owner="repro.obs.recorder",
        guard="lock:_dump_lock",
        description="monotonic timestamp of the newest bundle",
    ),
    SharedState(
        name="recorder._active",
        owner="repro.obs.recorder",
        kind="module-global",
        guard="gil-atomic",
        description="process-wide armed recorder (plain rebind)",
    ),
)


def shared_state_by_attr(
    states: "tuple[SharedState, ...] | None" = None,
) -> "dict[str, list[SharedState]]":
    """Index a registry by write-site attribute/global name."""
    index: "dict[str, list[SharedState]]" = {}
    for state in states if states is not None else SHARED_STATE:
        index.setdefault(state.attr, []).append(state)
    return index
