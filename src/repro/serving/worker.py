"""Concurrent serve/optimize: the ingest queue and background worker.

The single-threaded loop (:class:`~repro.optimize.online.OnlineOptimizer`)
stalls every serve while a batch solves — an SGP solve takes orders of
magnitude longer than a cached ask.  This module moves the batch work
off the serve thread, and the solve itself out of the process:

- :class:`VoteQueue` — a small bounded hand-off queue between the
  ingest (serve) thread and the worker thread.  ``put`` blocks when the
  queue is full (backpressure, counted as
  ``optimize_ingest_blocked_total``) and refuses once the queue is
  closed;
- :class:`OptimizerWorker` — a daemon thread that drains the queue,
  buffers votes into an :class:`OnlineOptimizer` running against a
  private *shadow copy* of the augmented graph, and publishes each
  solved batch to the live graph and serving engine as one atomic
  weight-patch epoch (:meth:`SimilarityEngine.publish`).

Where the work runs
-------------------
The worker thread does everything of a batch except the numerical SGP
solve: vote filtering, encoding, Ω, applying the solution, the
publish, the WAL and the checkpoint.  The solve (SLSQP and its penalty
fallback) runs in one child interpreter per started worker
(:class:`~repro.sgp.process.SolverProcess`).  SLSQP calls back into
Python on every evaluation, so on the worker thread it would hold the
GIL for most of a solve and starve the asks; the worker thread's wait
for the child is a pipe read, which releases it.  :meth:`start` spawns
the child, every path out of :meth:`stop` has reaped it, and a child
that dies mid-solve is respawned once and the request resent (a second
death fails the batch like any solver error: it rolls back, goes back
to pending and lands in :attr:`last_error`).  A worker that is built
but never started spawns nothing, and :meth:`flush` on it solves
in-process.

Why a shadow graph
------------------
The solvers mutate edge weights in place over many seconds; letting
them run on the live graph would expose serves to half-applied solves.
The shadow is a deep copy taken at construction, kept current by the
worker itself: every published batch lands on both graphs, so shadow
and live knowledge-graph weights are identical between publications,
and a publish need only compare the edges the batch wrote.
Query attachments diverge by design — the worker attaches only *voted*
queries to the shadow (from the links captured at submit time), while
the live graph carries every transient serve-time question.  Query
nodes have out-links only, so they contribute nothing to each other's
constraint rows and the shadow solve is bitwise-identical to the solve
the single-threaded loop would have run on the live graph.

Crash safety composes with the WAL exactly as in durable single-thread
mode: :meth:`OptimizerWorker.submit` logs the vote (with the query's
out-links, so recovery can re-attach queries no snapshot saw or that
were re-linked since) *before* enqueueing it — log before enqueue —
and each publication checkpoints the shadow graph stamped with the
batch's last WAL sequence — snapshot on publish.  A crash between the two replays the batch
deterministically from the WAL tail.

Supported topology: one ingest/serve thread plus one worker thread.
Structural graph mutations (new entities or documents) remain
admin-time, single-threaded operations.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.devtools.contracts import check_same_csr, contracts_enabled
from repro.errors import SGPSolverError, VoteError, WorkerError
from repro.graph.augmented import AugmentedGraph
from repro.obs import MetricsRegistry, get_registry, observe
from repro.obs.recorder import active_recorder
from repro.optimize.online import BatchOutcome, OnlineOptimizer
from repro.persistence import DurableStore
from repro.serving.engine import Patch
from repro.sgp.process import SolverProcess, installed
from repro.utils.sync import mutator
from repro.votes.stream import CountPolicy
from repro.votes.types import Vote

if TYPE_CHECKING:  # annotation only; the engine is passed in, never built
    from repro.serving.engine import SimilarityEngine

__all__ = ["IngestItem", "VoteQueue", "OptimizerWorker", "DEFAULT_QUEUE_SIZE"]

logger = logging.getLogger(__name__)

#: Default bound of the ingest queue.  Small on purpose: the queue is a
#: hand-off buffer, not a spool — a deep queue only hides worker lag
#: that backpressure should surface to the caller.
DEFAULT_QUEUE_SIZE = 256


@dataclass(frozen=True)
class IngestItem:
    """One durable vote in flight between ingest and worker threads.

    Attributes
    ----------
    seq:
        WAL sequence assigned at log time (``None`` without a store).
    vote:
        The vote itself (immutable).
    links:
        The voted query's out-link mapping ``((entity, weight), ...)``
        captured on the ingest thread at submit time — the worker
        attaches the query to its shadow graph from this, and the WAL
        record carries the same links for recovery.
    enqueued_at:
        ``time.monotonic()`` at enqueue, for the staleness gauge.
    """

    seq: "int | None"
    vote: Vote
    links: "tuple[tuple, ...] | None"
    enqueued_at: float


class VoteQueue:
    """Bounded, closable hand-off queue between ingest and worker.

    One :class:`threading.Condition` (``_cond``) guards both the item
    deque and the closed latch; every waiter is woken with
    ``notify_all`` on every state change, which is the simple-and-right
    choice for a two-thread hand-off (there is at most one producer and
    one consumer to wake).
    """

    def __init__(
        self,
        maxsize: int = DEFAULT_QUEUE_SIZE,
        *,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        if maxsize < 1:
            raise WorkerError(f"queue maxsize must be >= 1, got {maxsize}")
        self._maxsize = maxsize
        self._cond = threading.Condition()
        self._items: deque[IngestItem] = deque()
        self._closed = False
        registry = registry if registry is not None else get_registry()
        self._g_depth = registry.gauge("optimize_queue_depth")
        self._m_blocked = registry.counter("optimize_ingest_blocked_total")

    @property
    def maxsize(self) -> int:
        """The queue's capacity bound."""
        return self._maxsize

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        with self._cond:
            return self._closed

    def __len__(self) -> int:
        with self._cond:
            return len(self._items)

    @mutator
    def put(self, item: IngestItem, *, timeout: "float | None" = None) -> None:
        """Enqueue ``item``, blocking while the queue is full.

        Raises :class:`~repro.errors.WorkerError` if the queue is (or
        becomes) closed, or if ``timeout`` seconds elapse against
        sustained backpressure — the vote is already durable in the WAL
        at that point, so the caller may retry or surface the pushback.
        """
        with self._cond:
            if len(self._items) >= self._maxsize and not self._closed:
                # Count the backpressure event once per blocked put, not
                # once per wakeup, so the counter reads as "submissions
                # that had to wait".
                self._m_blocked.inc()
                deadline = (
                    None if timeout is None else time.monotonic() + timeout
                )
                while len(self._items) >= self._maxsize and not self._closed:
                    remaining = (
                        None
                        if deadline is None
                        else deadline - time.monotonic()
                    )
                    if remaining is not None and remaining <= 0:
                        raise WorkerError(
                            f"vote queue full ({self._maxsize} items) for "
                            f"{timeout:.3f}s; the optimizer worker is not "
                            f"keeping up"
                        )
                    self._cond.wait(remaining)
            if self._closed:
                raise WorkerError("vote queue is closed")
            self._items.append(item)
            self._g_depth.set(float(len(self._items)))
            self._cond.notify_all()

    def get_batch(
        self, max_items: int, *, timeout: "float | None" = None
    ) -> list[IngestItem]:
        """Dequeue up to ``max_items``, waiting for at least one.

        Returns an empty list on timeout or when the queue is closed
        and drained — the two conditions the worker loop distinguishes
        via :attr:`closed`.
        """
        if max_items < 1:
            raise WorkerError(f"max_items must be >= 1, got {max_items}")
        with self._cond:
            deadline = None if timeout is None else time.monotonic() + timeout
            while not self._items and not self._closed:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return []
                self._cond.wait(remaining)
            batch: list[IngestItem] = []
            while self._items and len(batch) < max_items:
                batch.append(self._items.popleft())
            self._g_depth.set(float(len(self._items)))
            if batch:
                self._cond.notify_all()
            return batch

    def oldest_enqueued_at(self) -> "float | None":
        """Monotonic enqueue time of the head item (``None`` if empty)."""
        with self._cond:
            if not self._items:
                return None
            return self._items[0].enqueued_at

    @mutator
    def close(self) -> None:
        """Refuse further puts; wake every waiter.  Idempotent."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()


class OptimizerWorker:
    """Background thread that solves vote batches off the serve path.

    Parameters
    ----------
    aug:
        The *live* augmented graph (the one the engine serves).  The
        worker deep-copies it once for its private shadow and only ever
        touches the live graph inside :meth:`SimilarityEngine.publish`.
    engine:
        The serving engine to publish weight-patch epochs through; may
        be ``None`` (batch solves still run, patches land on the live
        graph directly — useful in tests).
    store:
        Optional :class:`~repro.persistence.DurableStore`: votes are
        WAL-logged on the ingest thread before enqueue, and each
        publication checkpoints the shadow graph.
    policy / split_merge_threshold / options:
        Forwarded to the internal :class:`OnlineOptimizer` — identical
        meaning to single-threaded durable mode, and recovery requires
        the same values.
    queue_size / max_batch / poll_interval:
        Ingest-queue bound, max items drained per loop iteration, and
        the queue-wait timeout that doubles as the lag-gauge refresh
        cadence.

    The worker owns its internal optimizer exclusively (thread-confined
    to the worker thread once started); callers interact only through
    :meth:`submit`, :meth:`stop`, and the read-only properties.  The
    SGP solves its thread issues run in the worker's solver process,
    which lives from :meth:`start` to :meth:`stop`.
    """

    def __init__(
        self,
        aug: AugmentedGraph,
        *,
        engine: "SimilarityEngine | None" = None,
        store: "DurableStore | None" = None,
        policy: "object | None" = None,
        split_merge_threshold: int = 15,
        options: "dict | None" = None,
        queue_size: int = DEFAULT_QUEUE_SIZE,
        max_batch: int = 64,
        poll_interval: float = 0.05,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        self._aug = aug
        self._engine = engine
        self._store = store
        # The shadow: solver scratch space.  Deep copy now; kept in sync
        # with the live graph's KG weights by the publications themselves.
        self._online = OnlineOptimizer(
            aug.copy(),
            policy=policy if policy is not None else CountPolicy(),
            split_merge_threshold=split_merge_threshold,
            options=options if options is not None else {},
        )
        self.registry = registry if registry is not None else get_registry()
        self.queue = VoteQueue(queue_size, registry=self.registry)
        self._max_batch = max_batch
        self._poll_interval = poll_interval
        # The child that solves this worker's SGPs: spawned by start(),
        # reaped when the worker thread ends (or by stop() on timeout).
        self._solver = SolverProcess()
        self._thread: "threading.Thread | None" = None
        self._stop_event = threading.Event()
        self._drain = True
        self._last_error: "BaseException | None" = None
        self._m_ingest = self.registry.counter("optimize_ingest_votes_total")
        self._m_epochs = self.registry.counter(
            "optimize_epochs_published_total"
        )
        self._m_errors = self.registry.counter("optimize_worker_errors_total")
        self._h_publish = self.registry.histogram(
            "optimize_epoch_publish_seconds"
        )
        self._g_lag_votes = self.registry.gauge("optimize_worker_lag_votes")
        self._g_lag_seconds = self.registry.gauge(
            "optimize_worker_lag_seconds"
        )

    # ------------------------------------------------------------------
    # construction from a recovered optimizer
    # ------------------------------------------------------------------
    @classmethod
    def from_online(
        cls,
        online: OnlineOptimizer,
        *,
        engine: "SimilarityEngine | None" = None,
        **config: object,
    ) -> "OptimizerWorker":
        """Adopt a recovered single-threaded optimizer's state.

        Builds a worker over ``online.aug`` (which *is* the live graph
        after :meth:`OnlineOptimizer.recover`) with the same policy,
        threshold, and solver options, carries the batch history over
        so ``batch_index`` keeps counting, and re-buffers the recovered
        un-flushed pending votes (with their WAL sequences) into the
        worker's shadow optimizer.  Call before :meth:`start`.
        """
        worker = cls(
            online.aug,
            engine=engine,
            store=online.store,
            policy=online.policy,
            split_merge_threshold=online.split_merge_threshold,
            options=dict(online.options),
            **config,  # type: ignore[arg-type]
        )
        worker._online.history.extend(online.history)
        seqs = online.pending_seqs
        for index, vote in enumerate(online.pending.votes):
            seq = seqs[index] if index < len(seqs) else None
            links = worker._capture_links(vote)
            worker._buffer_item(
                IngestItem(
                    seq=seq,
                    vote=vote,
                    links=links,
                    enqueued_at=time.monotonic(),
                )
            )
        return worker

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "OptimizerWorker":
        """Start the solver process and the worker thread.

        One-shot: a stopped worker stays stopped.  Raises
        :class:`~repro.errors.WorkerError` when the solver process
        cannot start.
        """
        if self._thread is not None:
            raise WorkerError("optimizer worker already started")
        if self.queue.closed:
            raise WorkerError("optimizer worker cannot restart a closed queue")
        try:
            self._solver.start()
        except SGPSolverError as exc:
            raise WorkerError(
                f"optimizer worker cannot start its solver process: {exc}"
            ) from exc
        self._thread = threading.Thread(
            target=self._run, name="repro-optimizer-worker", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, *, drain: bool = True, timeout: "float | None" = 30.0) -> None:
        """Close the queue and join the worker thread.

        With ``drain=True`` (default) the worker finishes ingesting
        everything already queued, then solves and publishes any
        leftover partial batch.  With ``drain=False`` it exits at the
        next loop check; un-ingested votes survive in the WAL and a
        recovery replays them.  Either way the solver process has been
        reaped when ``stop`` returns.  If the thread does not end within
        ``timeout``, the solver process is killed (a solve in flight
        then fails and its batch goes back to pending) and
        :class:`~repro.errors.WorkerError` is raised.
        """
        if self._thread is None:
            self.queue.close()
            return
        self._drain = drain
        self._stop_event.set()
        self.queue.close()
        self._thread.join(timeout)
        if self._thread.is_alive():
            self._solver.close()
            raise WorkerError(
                f"optimizer worker did not stop within {timeout}s"
            )
        self._thread = None

    def __enter__(self) -> "OptimizerWorker":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop(drain=True)

    # ------------------------------------------------------------------
    # ingest side (caller thread)
    # ------------------------------------------------------------------
    @mutator
    def submit(self, vote: Vote, *, timeout: "float | None" = None) -> "int | None":
        """Durably log ``vote`` and enqueue it for the worker.

        Log before enqueue: the WAL append (with the voted query's
        out-links) happens on this thread, so once ``submit`` returns —
        and even if it then raises on a full queue — no crash can lose
        the vote.  Returns the WAL sequence (``None`` without a store).
        Blocks under backpressure; see :meth:`VoteQueue.put`.
        """
        if not isinstance(vote, Vote):
            raise VoteError(f"expected a Vote, got {type(vote).__name__}")
        links = self._capture_links(vote)
        seq = (
            self._store.log_vote(vote, links=links)
            if self._store is not None
            else None
        )
        self.queue.put(
            IngestItem(
                seq=seq,
                vote=vote,
                links=links,
                enqueued_at=time.monotonic(),
            ),
            timeout=timeout,
        )
        self._m_ingest.inc()
        return seq

    def _capture_links(self, vote: Vote) -> "tuple[tuple, ...] | None":
        """Snapshot the voted query's out-links off the live graph."""
        if not self._aug.is_query(vote.query):
            return None
        return tuple(self._aug.query_links(vote.query).items())

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    def _run(self) -> None:
        try:
            with installed(self._solver):
                self._loop()
        finally:
            self._solver.close()

    def _loop(self) -> None:
        while True:
            if self._stop_event.is_set() and not self._drain:
                break
            batch = self.queue.get_batch(
                self._max_batch, timeout=self._poll_interval
            )
            if not batch:
                if self._stop_event.is_set() or self.queue.closed:
                    break
                self._refresh_lag()
                continue
            for item in batch:
                try:
                    self._buffer_item(item)
                except Exception as exc:
                    self._note_error(exc)
            self._refresh_lag()
        if self._drain:
            try:
                self.flush()
            except Exception as exc:
                self._note_error(exc)
            self._refresh_lag()

    def _buffer_item(self, item: IngestItem) -> None:
        """Buffer the vote on the shadow (attaching its query from the
        captured links), maybe publish."""
        outcome = self._online.buffer(item.vote, seq=item.seq, links=item.links)
        if outcome is not None:
            self._publish(outcome)

    @mutator
    def flush(self) -> "BatchOutcome | None":
        """Solve and publish whatever is pending in the shadow optimizer.

        Worker-thread (or stopped-worker) use only — the internal
        optimizer is thread-confined.  The drain path calls this for
        the final partial batch; tests call it on a never-started
        worker to drive batches synchronously.
        """
        outcome = self._online.flush()
        if outcome is not None:
            self._publish(outcome)
        return outcome

    def _publish(self, outcome: BatchOutcome) -> None:
        """Publish the batch's written edges that differ from live as one epoch."""
        shadow = self._online.aug
        live = self._aug
        patch = [
            (head, tail, weight)
            for head, tail in outcome.edge_keys
            if (weight := shadow.kg_weight(head, tail))
            != live.kg_weight(head, tail)
        ]
        with observe("optimize.publish", self._h_publish) as op:

            def apply() -> Patch:
                for head, tail, weight in patch:
                    live.set_kg_weight(head, tail, weight)
                # Contract seam: the written set covered the batch, so
                # live equals shadow.  No-op unless REPRO_CONTRACTS is on.
                if contracts_enabled():
                    index = {node: i for i, node in enumerate(shadow.entity_nodes)}
                    check_same_csr(
                        live.graph.csr(index),
                        shadow.graph.csr(index),
                        seam="optimize.publish",
                    )
                return Patch(edges=[(head, tail) for head, tail, _ in patch])

            if self._engine is not None:
                epoch = self._engine.publish(apply)
            else:
                apply()
                epoch = None
            if op.recording:
                op.set(
                    batch_index=outcome.batch_index,
                    edges=len(patch),
                    epoch=epoch,
                    num_votes=outcome.num_votes,
                    changed_edges=outcome.changed_edges,
                    last_seq=outcome.last_seq,
                )
        self._m_epochs.inc()
        # Snapshot the *shadow*: its KG weights now equal the live
        # graph's, and the queries it lacks (transient serve-time
        # questions) are re-attachable from the WAL links — so the
        # checkpoint never has to touch the live graph.
        if self._store is not None and outcome.last_seq is not None:
            self._store.checkpoint(shadow, outcome.last_seq)

    def _refresh_lag(self) -> None:
        depth = len(self.queue)
        self._g_lag_votes.set(float(depth + len(self._online.pending)))
        oldest = self.queue.oldest_enqueued_at()
        if oldest is None:
            self._g_lag_seconds.set(0.0)
        else:
            self._g_lag_seconds.set(max(0.0, time.monotonic() - oldest))

    def _note_error(self, exc: BaseException) -> None:
        self._last_error = exc
        self._m_errors.inc()
        logger.warning("optimizer worker batch failed: %s", exc, exc_info=exc)
        rec = active_recorder()
        if rec is not None:
            rec.trigger("worker_error", detail=f"{type(exc).__name__}: {exc}")

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def history(self) -> list[BatchOutcome]:
        """Per-batch outcomes, in publication order (shared list; GIL-read)."""
        return self._online.history

    @property
    def last_error(self) -> "BaseException | None":
        """The most recent exception the worker loop swallowed."""
        return self._last_error

    @property
    def pending_votes(self) -> int:
        """Votes buffered in the shadow optimizer, awaiting a batch boundary."""
        return len(self._online.pending)

    @property
    def shadow(self) -> AugmentedGraph:
        """The worker's private solver graph (read-only for callers)."""
        return self._online.aug

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "running" if self._thread is not None else "stopped"
        return (
            f"<OptimizerWorker {state} queue={len(self.queue)} "
            f"pending={self.pending_votes} batches={len(self.history)}>"
        )
