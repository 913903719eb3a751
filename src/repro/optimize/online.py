"""The online feedback loop: votes stream in, the graph keeps improving.

:class:`OnlineOptimizer` is the deployment-shaped wrapper around the
batch solutions: it buffers incoming votes, asks a batching policy
(:mod:`repro.votes.stream`) when to optimize, runs the configured
strategy over each batch on the *live* graph, and keeps a trajectory of
per-batch outcomes so the operator can watch quality converge.

A strategy escalation mirrors the paper's efficiency story: small
batches go to the basic multi-vote solution, large batches to
split-and-merge (whose clustering overhead only pays off at scale).

Durable mode (``store=DurableStore(...)``) makes the loop crash-safe:

- ``submit()`` appends the vote, with its query's out-links, to the
  write-ahead log (fsynced) *before* buffering it — log before apply;
- a successful ``flush()`` checkpoints: the graph is snapshotted
  atomically, stamped with the batch's last WAL sequence, and the WAL
  is rotated past it — snapshot after flush;
- :meth:`OnlineOptimizer.recover` rebuilds the pre-crash state from the
  newest snapshot plus a deterministic replay of the WAL tail through
  the same policy and solvers, reproducing the weights bit for bit.

A solver failure during ``flush()`` re-queues the batch (it is *not*
discarded), rolls the knowledge-graph weights back to their pre-flush
values (the solvers run in place, so an exception mid-apply could
otherwise leave a partial solve behind), and re-raises — the votes
survive in memory (and, in durable mode, on disk) and a retry re-runs
against exactly the state a durable recovery would rebuild.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import PersistenceError, VoteError
from repro.eval.harness import vote_omega_avg
from repro.obs import observe
from repro.graph.augmented import AugmentedGraph
from repro.optimize.multi_vote import solve_multi_vote
from repro.optimize.split_merge import solve_split_merge
from repro.persistence import DurableStore, RecoveredState, WalRecord
from repro.utils.sync import mutator
from repro.votes.stream import CountPolicy
from repro.votes.types import Vote, VoteSet


@dataclass
class BatchOutcome:
    """One optimization pass over one batch of streamed votes.

    ``edge_keys`` is every knowledge-graph edge the batch wrote (the
    run's ``written_edges``); the optimizer worker publishes those whose
    shadow weight differs from the live one as one patch epoch.
    ``last_seq`` is the newest WAL sequence the batch covered (``None``
    when the batch carried no tracked sequences), the mark a
    post-publish checkpoint rotates the WAL up to.
    """

    batch_index: int
    num_votes: int
    num_negative: int
    strategy: str
    omega_avg: float
    elapsed: float
    changed_edges: int
    edge_keys: tuple = ()
    last_seq: "int | None" = None


@dataclass
class OnlineOptimizer:
    """Streaming wrapper over the batch optimizers.

    Parameters
    ----------
    aug:
        The live augmented graph; optimized *in place* batch by batch.
    policy:
        A batching policy with ``should_optimize(pending) -> bool``
        (defaults to every 10 votes).
    split_merge_threshold:
        Batches with at least this many votes use split-and-merge
        instead of the basic multi-vote solution.
    options:
        Extra keyword arguments forwarded to the batch solvers.
    store:
        Optional :class:`~repro.persistence.DurableStore` enabling
        durable mode (vote WAL + snapshot checkpoints).  For recovery
        to reproduce state exactly, reopen the store with the *same*
        policy and solver options the original run used — replay is
        deterministic only under identical configuration.

    A serving engine over ``aug`` rebuilds at its next serve after each
    batch (the batch moves the graph's version);
    :class:`~repro.serving.worker.OptimizerWorker` publishes each
    batch's ``edge_keys`` as one patched engine epoch instead.
    """

    aug: AugmentedGraph
    policy: object = field(default_factory=CountPolicy)
    split_merge_threshold: int = 15
    options: dict = field(default_factory=dict)
    pending: VoteSet = field(default_factory=VoteSet)
    history: list[BatchOutcome] = field(default_factory=list)
    store: "DurableStore | None" = None
    _pending_seqs: list[int] = field(default_factory=list, init=False, repr=False)

    @mutator
    def submit(self, vote: Vote) -> "BatchOutcome | None":
        """Buffer one vote; optimize (and return the outcome) if due.

        In durable mode the vote is fsynced to the WAL, with the voted
        query's out-links, *before* it is buffered: once ``submit``
        returns, no crash can lose it, and recovery re-attaches the
        query as it was when the vote was cast.  The sequence number is
        tracked only after the buffer accepted the vote — a vote the
        buffer rejects (a deduplicating or validating
        :class:`~repro.votes.types.VoteSet` subclass) stays in the WAL
        but never in ``_pending_seqs``, so a later checkpoint cannot
        stamp a snapshot with a sequence that was never applied.
        Recovery replays the logged vote into the same buffer, which
        rejects it the same way — rejected votes are dropped for good,
        never resurrected.
        """
        if not isinstance(vote, Vote):
            raise VoteError(f"expected a Vote, got {type(vote).__name__}")
        if self.store is None:
            return self.buffer(vote)
        links = (
            tuple(self.aug.query_links(vote.query).items())
            if self.aug.is_query(vote.query)
            else None
        )
        return self.buffer(vote, seq=self.store.log_vote(vote, links=links))

    @mutator
    def buffer(
        self,
        vote: Vote,
        *,
        seq: "int | None" = None,
        links: "tuple[tuple, ...] | None" = None,
    ) -> "BatchOutcome | None":
        """Buffer one *already-durable* vote; optimize if due.

        :meth:`submit`, the concurrent ingest path
        (:class:`repro.serving.worker.OptimizerWorker`, which logs votes
        on the caller's thread — log before enqueue) and recovery's
        replay all hand the vote and its WAL sequence over here, so
        nothing is re-logged.  The seq is tracked only once the buffer
        accepted the vote, so seqs and pending votes stay in lockstep.

        ``links`` are the voted query's out-links as logged with the
        vote.  The solve must see the links the vote was cast against:
        a query the graph lacks is attached from them, and one whose
        links differ (a replaced, re-asked question) is re-attached.
        Equal links leave the graph alone: a gratuitous detach/attach
        would move the query to the end of the node ordering and
        de-sync the solver's float arithmetic from what a run over the
        original graph produces.
        """
        if not isinstance(vote, Vote):
            raise VoteError(f"expected a Vote, got {type(vote).__name__}")
        if links is not None:
            query = vote.query
            if not self.aug.is_query(query):
                self.aug.add_query(query, dict(links))
            elif tuple(self.aug.query_links(query).items()) != links:
                self.aug.remove_query(query)
                self.aug.add_query(query, dict(links))
        self.pending.add(vote)
        if seq is not None:
            self._pending_seqs.append(seq)
        if self.policy.should_optimize(self.pending):
            return self.flush()
        return None

    @mutator
    def flush(self) -> "BatchOutcome | None":
        """Optimize against all pending votes now (no-op when empty).

        If the solver raises, the batch is restored to the pending
        buffer (ahead of any votes submitted since), the graph's
        knowledge-graph weights are rolled back to their pre-flush
        values, and the exception propagates — a failed flush never
        discards votes *and* never leaves a half-applied solve behind,
        so an in-process retry re-runs the batch against exactly the
        state a durable recovery would rebuild.  On success in durable
        mode, the graph is checkpointed (snapshot + WAL rotation)
        before the outcome is returned.
        """
        if not len(self.pending):
            return None
        batch = self.pending
        batch_seqs = self._pending_seqs
        self.pending = VoteSet()
        self._pending_seqs = []
        # The solvers run with in_place=True, and their one mutation of
        # the graph is knowledge-graph edge weights (apply_edge_weights)
        # — snapshot those so an exception thrown mid-apply can be
        # rolled back instead of leaving a partial solve on the live
        # graph.
        weights_before = {edge.key: edge.weight for edge in self.aug.kg_edges()}

        try:
            if len(batch) >= self.split_merge_threshold:
                strategy = "split-merge"
                _, run = solve_split_merge(
                    self.aug, batch, in_place=True, **self.options
                )
            else:
                strategy = "multi"
                _, run = solve_multi_vote(
                    self.aug, batch, in_place=True, **self.options
                )
        except BaseException:
            # Roll back any weights the failed solve already wrote, so
            # a retry starts from the same graph recovery would rebuild.
            for (head, tail), weight in weights_before.items():
                if self.aug.kg_weight(head, tail) != weight:
                    self.aug.set_kg_weight(head, tail, weight)
            # Re-queue: the failed batch keeps its arrival order ahead
            # of anything submitted while it was (briefly) detached.
            self.pending = VoteSet(batch.votes + self.pending.votes)
            self._pending_seqs = batch_seqs + self._pending_seqs
            raise

        if self.store is not None and batch_seqs:
            self.store.checkpoint(self.aug, max(batch_seqs))
        outcome = BatchOutcome(
            batch_index=len(self.history),
            num_votes=len(batch),
            num_negative=batch.num_negative,
            strategy=strategy,
            omega_avg=vote_omega_avg(self.aug, batch),
            elapsed=run.elapsed,
            changed_edges=len(run.changed_edges),
            edge_keys=tuple(run.written_edges),
            last_seq=max(batch_seqs) if batch_seqs else None,
        )
        self.history.append(outcome)
        return outcome

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Snapshot the current graph explicitly (durable mode only).

        Useful before a planned shutdown while votes are still pending:
        the snapshot covers everything already *applied*; pending votes
        stay in the WAL and are re-buffered on recovery.
        """
        if self.store is None:
            raise PersistenceError("checkpoint() requires a DurableStore")
        if self._pending_seqs:
            applied_through = min(self._pending_seqs) - 1
        else:
            applied_through = self.store.wal.last_seq
        self.store.checkpoint(self.aug, applied_through)

    @classmethod
    def recover(
        cls,
        store: DurableStore,
        *,
        fallback: "AugmentedGraph | None" = None,
        policy: "object | None" = None,
        split_merge_threshold: int = 15,
        options: "dict | None" = None,
        state: "RecoveredState | None" = None,
    ) -> "OnlineOptimizer":
        """Rebuild the optimizer from a store's snapshot + WAL tail.

        Loads the newest valid snapshot (or ``fallback`` when none
        exists yet — the bootstrap graph of a first run) and replays
        the WAL records past the snapshot through the normal
        submit/flush machinery, *without* re-logging them.  With the
        same policy, threshold, and solver options as the original run,
        replay fires flushes at exactly the original batch boundaries,
        so the recovered edge weights equal the pre-crash ones bit for
        bit.

        ``state`` accepts an already-fetched
        :class:`~repro.persistence.RecoveredState` (e.g. when the
        caller inspected it first); by default the store is asked.
        """
        if state is None:
            state = store.recover()
        aug = state.aug if state.aug is not None else fallback
        if aug is None:
            raise PersistenceError(
                f"{store.directory}: no snapshot to recover from and no "
                f"fallback graph was provided"
            )
        online = cls(
            aug,
            policy=policy if policy is not None else CountPolicy(),
            split_merge_threshold=split_merge_threshold,
            options=options if options is not None else {},
            store=store,
        )
        online._replay(state.tail)
        return online

    def _replay(self, records: "tuple[WalRecord, ...] | list[WalRecord]") -> None:
        """Re-buffer already-durable votes, firing flushes as live mode did."""
        if not records:
            return
        with observe("wal.replay") as op:
            batches_before = len(self.history)
            for record in records:
                # A tail vote's query can postdate the snapshot or have
                # been re-linked since; buffer re-attaches it from the
                # logged links, so the replayed solve sees the same
                # constraint graph the live run did.
                try:
                    self.buffer(record.vote, seq=record.seq, links=record.links)
                except VoteError:
                    # The live run logged this vote and then had the
                    # buffer reject it; replay rejects it identically
                    # and tracks no seq for it.
                    pass
            if op.recording:
                op.set(
                    records=len(records),
                    batches_fired=len(self.history) - batches_before,
                )

    @property
    def pending_seqs(self) -> tuple[int, ...]:
        """WAL sequences of the pending votes, in buffer order.

        Stays in lockstep with ``pending`` in durable mode; empty when
        no store is attached.  The optimizer worker reads this when it
        adopts a recovered optimizer's un-flushed buffer.
        """
        return tuple(self._pending_seqs)

    @property
    def total_votes_processed(self) -> int:
        """Votes consumed by completed optimization passes."""
        return sum(outcome.num_votes for outcome in self.history)

    def omega_trajectory(self) -> list[float]:
        """Per-batch Ω_avg values, in batch order."""
        return [outcome.omega_avg for outcome in self.history]
