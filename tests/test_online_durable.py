"""Durable-mode tests for the online loop and QASystem persistence."""

import pytest

from repro.errors import PersistenceError, SGPSolverError, VoteError
from repro.optimize.online import OnlineOptimizer
from repro.persistence import DurableStore
from repro.qa import QASystem, build_knowledge_graph, generate_helpdesk_corpus
from repro.serving import SimilarityParams
from repro.votes import VoteSet
from repro.votes.stream import CountPolicy
from tests.durable_scenario import (
    BATCH_SIZE,
    build_scenario,
    kg_weights,
    relink,
    relinked_run,
)


class TestDurableOnlineLoop:
    def test_submit_logs_before_buffering(self, tmp_path):
        aug, votes = build_scenario()
        with DurableStore(tmp_path) as store:
            online = OnlineOptimizer(
                aug, policy=CountPolicy(batch_size=100), store=store
            )
            online.submit(votes[0])
            assert store.wal.last_seq == 1
            assert len(online.pending) == 1

    def test_checkpoint_after_flush_rotates_wal(self, tmp_path):
        aug, votes = build_scenario()
        with DurableStore(tmp_path) as store:
            online = OnlineOptimizer(
                aug, policy=CountPolicy(BATCH_SIZE), store=store
            )
            for vote in votes[: BATCH_SIZE + 1]:
                online.submit(vote)
            # The flushed batch left the WAL; the straggler remains.
            assert [r.seq for r in store.wal.records()] == [BATCH_SIZE + 1]
            assert store.snapshots.latest()[1] == BATCH_SIZE

    def test_recover_reproduces_live_state_bitwise(self, tmp_path):
        aug, votes = build_scenario()
        with DurableStore(tmp_path) as store:
            online = OnlineOptimizer(
                aug, policy=CountPolicy(BATCH_SIZE), store=store
            )
            for vote in votes:
                online.submit(vote)
            live_weights = kg_weights(aug)
            live_pending = list(online.pending.votes)

        with DurableStore(tmp_path) as store:
            recovered = OnlineOptimizer.recover(
                store, policy=CountPolicy(BATCH_SIZE)
            )
            assert kg_weights(recovered.aug) == live_weights
            assert list(recovered.pending.votes) == live_pending

    def test_recover_without_snapshot_uses_fallback(self, tmp_path):
        aug, votes = build_scenario()
        with DurableStore(tmp_path) as store:
            online = OnlineOptimizer(
                aug, policy=CountPolicy(batch_size=100), store=store
            )
            for vote in votes[:2]:
                online.submit(vote)

        fallback, _ = build_scenario()
        with DurableStore(tmp_path) as store:
            recovered = OnlineOptimizer.recover(
                store, fallback=fallback, policy=CountPolicy(batch_size=100)
            )
            assert recovered.aug is fallback
            assert len(recovered.pending) == 2

    def test_recover_without_snapshot_or_fallback_raises(self, tmp_path):
        with DurableStore(tmp_path) as store:
            with pytest.raises(PersistenceError, match="no snapshot"):
                OnlineOptimizer.recover(store)

    def test_manual_checkpoint_keeps_pending_in_wal(self, tmp_path):
        aug, votes = build_scenario()
        with DurableStore(tmp_path) as store:
            online = OnlineOptimizer(
                aug, policy=CountPolicy(BATCH_SIZE), store=store
            )
            for vote in votes[: BATCH_SIZE + 2]:
                online.submit(vote)
            online.checkpoint()  # planned shutdown with 2 votes pending

        with DurableStore(tmp_path) as store:
            recovered = OnlineOptimizer.recover(
                store, policy=CountPolicy(BATCH_SIZE)
            )
            assert len(recovered.pending) == 2
            assert recovered.history == []  # applied work is in the snapshot

    def test_checkpoint_without_store_raises(self):
        aug, _ = build_scenario()
        with pytest.raises(PersistenceError):
            OnlineOptimizer(aug).checkpoint()

    def test_restart_after_draining_checkpoint_keeps_new_votes(self, tmp_path):
        """Votes submitted after a restart that followed a WAL-draining
        checkpoint must survive the next crash (seq-reuse regression)."""
        aug, votes = build_scenario()
        with DurableStore(tmp_path) as store:
            online = OnlineOptimizer(
                aug, policy=CountPolicy(BATCH_SIZE), store=store
            )
            for vote in votes[:BATCH_SIZE]:
                online.submit(vote)  # flush fires, checkpoint drains the WAL
            assert store.wal.records() == []

        # Restart, accept one more vote, then "crash" before any flush.
        with DurableStore(tmp_path) as store:
            online = OnlineOptimizer.recover(
                store, policy=CountPolicy(BATCH_SIZE)
            )
            online.submit(votes[BATCH_SIZE])

        with DurableStore(tmp_path) as store:
            recovered = OnlineOptimizer.recover(
                store, policy=CountPolicy(BATCH_SIZE)
            )
            assert list(recovered.pending.votes) == [votes[BATCH_SIZE]]


    def test_recover_relinks_query_relinked_after_checkpoint(
        self, tmp_path, monkeypatch
    ):
        """A query re-linked after the last snapshot is replayed re-linked.

        Batch 1 is checkpointed, the 4th vote's query is re-linked, and
        the process dies in batch 2's solve: votes 4-6 are logged but
        never applied.  Replay must solve batch 2 against the re-linked
        query, as the uncrashed run did.
        """
        aug, votes = build_scenario()
        with DurableStore(tmp_path) as store:
            online = OnlineOptimizer(
                aug, policy=CountPolicy(BATCH_SIZE), store=store
            )
            for vote in votes[:BATCH_SIZE]:
                online.submit(vote)
            relink(aug, votes[BATCH_SIZE].query)

            def crash(*args, **kwargs):
                raise SGPSolverError("process killed mid-solve")

            monkeypatch.setattr("repro.optimize.online.solve_multi_vote", crash)
            with pytest.raises(SGPSolverError):
                for vote in votes[BATCH_SIZE : 2 * BATCH_SIZE]:
                    online.submit(vote)
            monkeypatch.undo()

        with DurableStore(tmp_path) as store:
            recovered = OnlineOptimizer.recover(
                store, policy=CountPolicy(BATCH_SIZE)
            )
        assert len(recovered.history) == 1
        assert kg_weights(recovered.aug) == relinked_run()


class DedupingVoteSet(VoteSet):
    """A validating buffer: rejects a second vote for the same query."""

    def add(self, vote):
        if any(v.query == vote.query for v in self.votes):
            raise VoteError(f"duplicate vote for query {vote.query!r}")
        super().add(vote)


class TestDurableSubmitRejection:
    """Regression: a buffer-rejected vote must not desync WAL sequences.

    ``submit`` used to append the WAL sequence *before* offering the
    vote to the pending buffer; a validating/deduplicating buffer that
    raised left a phantom sequence in ``_pending_seqs``, so a later
    ``checkpoint()`` could stamp a snapshot with a sequence that was
    never applied — and recovery would then drop a real vote.
    """

    def test_rejected_vote_keeps_seqs_lockstep(self, tmp_path):
        aug, votes = build_scenario()
        with DurableStore(tmp_path) as store:
            online = OnlineOptimizer(
                aug, policy=CountPolicy(batch_size=100), store=store
            )
            online.pending = DedupingVoteSet()
            online.submit(votes[0])
            with pytest.raises(VoteError, match="duplicate"):
                online.submit(votes[0])
            online.submit(votes[1])
            # The rejected resubmission is durable in the WAL (logged
            # before the buffer saw it) but tracked nowhere else:
            assert store.wal.last_seq == 3
            assert [v.query for v in online.pending.votes] == [
                votes[0].query,
                votes[1].query,
            ]
            assert list(online.pending_seqs) == [1, 3]

    def test_checkpoint_after_rejection_covers_only_applied_seqs(
        self, tmp_path
    ):
        aug, votes = build_scenario()
        with DurableStore(tmp_path) as store:
            online = OnlineOptimizer(
                aug, policy=CountPolicy(batch_size=100), store=store
            )
            online.pending = DedupingVoteSet()
            online.submit(votes[0])
            with pytest.raises(VoteError):
                online.submit(votes[0])
            # applied_through = min(pending seqs) - 1 = 0: the phantom
            # seq 2 must not drag the snapshot mark past the live vote.
            online.checkpoint()
            assert store.snapshots.newest_seq() == 0
            assert [r.seq for r in store.wal.records()] == [1, 2]

    def test_replay_rejects_identically_and_never_resurrects(self, tmp_path):
        aug, votes = build_scenario()
        with DurableStore(tmp_path) as store:
            online = OnlineOptimizer(
                aug, policy=CountPolicy(batch_size=100), store=store
            )
            online.pending = DedupingVoteSet()
            online.submit(votes[0])
            with pytest.raises(VoteError):
                online.submit(votes[0])
            online.submit(votes[1])
            live_queries = [v.query for v in online.pending.votes]

        fallback, _ = build_scenario()
        with DurableStore(tmp_path) as store:
            recovered = OnlineOptimizer(
                fallback, policy=CountPolicy(batch_size=100), store=store
            )
            recovered.pending = DedupingVoteSet()
            recovered._replay(store.recover().tail)
            assert [v.query for v in recovered.pending.votes] == live_queries
            assert list(recovered.pending_seqs) == [1, 3]


class TestFlushFailureRequeue:
    """A solver exception must not cost the pending batch (the old bug)."""

    def test_failed_flush_requeues_batch(self, streaming_setup_small,
                                         monkeypatch):
        aug, votes = streaming_setup_small

        def exploding(*args, **kwargs):
            raise SGPSolverError("injected solver failure")

        monkeypatch.setattr(
            "repro.optimize.online.solve_multi_vote", exploding
        )
        online = OnlineOptimizer(aug, policy=CountPolicy(BATCH_SIZE))
        with pytest.raises(SGPSolverError):
            for vote in votes:
                online.submit(vote)
        assert len(online.pending) == BATCH_SIZE
        assert online.history == []

        # With the solver healthy again, the same votes flush fine.
        monkeypatch.undo()
        outcome = online.flush()
        assert outcome is not None
        assert outcome.num_votes == BATCH_SIZE

    def test_failed_flush_preserves_arrival_order(self, streaming_setup_small,
                                                  monkeypatch):
        aug, votes = streaming_setup_small
        online = OnlineOptimizer(aug, policy=CountPolicy(batch_size=100))
        for vote in votes[:4]:
            online.submit(vote)

        def exploding(*args, **kwargs):
            raise SGPSolverError("injected solver failure")

        monkeypatch.setattr(
            "repro.optimize.online.solve_multi_vote", exploding
        )
        with pytest.raises(SGPSolverError):
            online.flush()
        assert list(online.pending.votes) == votes[:4]

    def test_failed_flush_rolls_back_partial_mutation(
            self, streaming_setup_small, monkeypatch):
        """A solver that dies mid-apply must not leave weights behind:
        the retry has to run against exactly the state recovery would
        rebuild, or live and recovered graphs diverge."""
        aug, votes = streaming_setup_small
        before = kg_weights(aug)
        edge = next(iter(before))

        def mutate_then_explode(target, *args, **kwargs):
            target.set_kg_weight(*edge, 0.123456)
            raise SGPSolverError("injected mid-apply failure")

        monkeypatch.setattr(
            "repro.optimize.online.solve_multi_vote", mutate_then_explode
        )
        online = OnlineOptimizer(aug, policy=CountPolicy(batch_size=100))
        for vote in votes[:4]:
            online.submit(vote)
        with pytest.raises(SGPSolverError):
            online.flush()
        assert kg_weights(aug) == before

        # The healthy retry now matches an uninterrupted run bitwise.
        monkeypatch.undo()
        online.flush()
        clean_aug, clean_votes = build_scenario()
        clean = OnlineOptimizer(clean_aug, policy=CountPolicy(batch_size=100))
        for vote in clean_votes[:4]:
            clean.submit(vote)
        clean.flush()
        assert kg_weights(aug) == kg_weights(clean_aug)

    def test_failed_flush_keeps_wal_seqs_aligned(self, streaming_setup_small,
                                                 tmp_path, monkeypatch):
        aug, votes = streaming_setup_small
        with DurableStore(tmp_path) as store:
            online = OnlineOptimizer(
                aug, policy=CountPolicy(BATCH_SIZE), store=store
            )

            def exploding(*args, **kwargs):
                raise SGPSolverError("injected solver failure")

            monkeypatch.setattr(
                "repro.optimize.online.solve_multi_vote", exploding
            )
            with pytest.raises(SGPSolverError):
                for vote in votes[:BATCH_SIZE]:
                    online.submit(vote)
            # Votes and their WAL sequences are both intact and aligned.
            assert len(online.pending) == BATCH_SIZE
            assert online._pending_seqs == [1, 2, 3]
            assert store.wal.last_seq == BATCH_SIZE

            monkeypatch.undo()
            online.flush()
            assert store.wal.records() == []  # rotated after the retry


@pytest.fixture
def streaming_setup_small():
    return build_scenario()


class TestQASystemPersistence:
    @pytest.fixture
    def system(self):
        corpus = generate_helpdesk_corpus(
            num_topics=3,
            entities_per_topic=6,
            docs_per_topic=3,
            num_train_questions=6,
            num_test_questions=4,
            seed=11,
        )
        kg = build_knowledge_graph(corpus.document_texts(), corpus.vocabulary)
        qa = QASystem(kg, corpus.vocabulary, params=SimilarityParams(k=5))
        qa.add_documents(corpus.document_texts())
        return qa, corpus

    def test_persist_restore_round_trips_weights(self, system, tmp_path):
        qa, _ = system
        path = tmp_path / "qa-graph.json"
        before = {e.key: e.weight for e in qa.augmented_graph.kg_edges()}
        qa.persist(path)
        qa.restore(path)
        after = {e.key: e.weight for e in qa.augmented_graph.kg_edges()}
        assert after == before

    def test_restore_discards_stale_engine_cache(self, system, tmp_path):
        """Post-restore scores reflect restored weights, not the LRU."""
        qa, _ = system
        question = "how do i " + sorted(qa.augmented_graph.entity_nodes)[0]
        path = tmp_path / "qa-graph.json"
        qa.persist(path)
        baseline = qa.ask(question, question_id="probe")

        # Corrupt the live weights and warm the cache against them.
        edge = next(iter(qa.augmented_graph.kg_edges()))
        qa.augmented_graph.set_kg_weight(edge.head, edge.tail, 1e-3)
        qa.ask(question, question_id="probe")

        qa.restore(path)
        assert qa.augmented_graph.kg_weight(edge.head, edge.tail) == \
            edge.weight
        restored = qa.ask(question, question_id="probe")
        assert restored == baseline

    def test_restore_clears_session_state(self, system, tmp_path):
        qa, _ = system
        question = "tell me about " + sorted(qa.augmented_graph.entity_nodes)[0]
        path = tmp_path / "qa-graph.json"
        ranked = qa.ask(question)
        qa.vote("__q0", ranked[0][0])
        assert len(qa.pending_votes) == 1
        qa.persist(path)
        qa.restore(path)
        assert len(qa.pending_votes) == 0
        # Auto ids continue past the persisted __q0 query node.
        qa.ask(question)
        assert "__q1" in qa.augmented_graph.query_nodes

    def test_restored_votes_are_empty_voteset(self, system, tmp_path):
        qa, _ = system
        path = tmp_path / "qa-graph.json"
        qa.persist(path)
        qa.restore(path)
        assert isinstance(qa.pending_votes, VoteSet)
