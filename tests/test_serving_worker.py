"""Tests for the concurrent serve/optimize pipeline (repro/serving/worker.py).

Four layers:

- :class:`VoteQueue` hand-off semantics — bounded blocking ``put`` with
  backpressure accounting, batched ``get``, close/wake behavior;
- :class:`OptimizerWorker` durability — log-before-enqueue, WAL links
  round-trip, checkpoint-on-publish, recovery parity with the
  single-threaded durable path, ``from_online`` adoption;
- epoch publication — a serve overlapping a publish reads the previous
  epoch without waiting, a publish landing inside a serve leaves the
  new epoch's cache clean, and serve threads racing a publisher each
  read one published state;
- the acceptance stress test — a serve thread recording >= 1000
  per-question score reads concurrently with a flushing worker, every
  read **bitwise** equal to what a single-threaded replay of the same
  vote stream serves at the corresponding published epoch.  Zero stale
  or poisoned reads, by exhaustive comparison.
"""

import bisect
import math
import sys
import threading
import time

import pytest

from repro.devtools.contracts import DELTA_SCORE_TOL
from repro.errors import VoteError, WorkerError
from repro.obs import MetricsRegistry
from repro.optimize.online import OnlineOptimizer
from repro.persistence import DurableStore
from repro.serving import Patch, SimilarityEngine
from repro.serving.worker import IngestItem, OptimizerWorker, VoteQueue
from repro.similarity.backend import DenseBackend
from repro.similarity.inverse_pdistance import inverse_pdistance
from repro.similarity.top_k import rank_answers
from repro.votes import Vote
from repro.votes.stream import CountPolicy

from tests.durable_scenario import (
    BATCH_SIZE,
    build_scenario,
    kg_weights,
    relink,
    relinked_run,
    single_threaded_replay,
)
from tests.engine_series import engine_series


def make_item(i=0, seq=None):
    vote = Vote(
        query=f"q{i}", ranked_answers=("a1", "a2", "a3"), best_answer="a2"
    )
    return IngestItem(
        seq=seq, vote=vote, links=None, enqueued_at=time.monotonic()
    )


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestVoteQueue:
    def test_rejects_bad_sizes(self, registry):
        with pytest.raises(WorkerError):
            VoteQueue(0, registry=registry)
        queue = VoteQueue(2, registry=registry)
        with pytest.raises(WorkerError):
            queue.get_batch(0)

    def test_fifo_round_trip(self, registry):
        queue = VoteQueue(8, registry=registry)
        items = [make_item(i) for i in range(3)]
        for item in items:
            queue.put(item)
        assert len(queue) == 3
        assert queue.get_batch(2) == items[:2]
        assert queue.get_batch(5) == items[2:]
        assert len(queue) == 0

    def test_put_blocks_until_space_and_counts_backpressure(self, registry):
        queue = VoteQueue(1, registry=registry)
        queue.put(make_item(0))
        blocked = registry.counter("optimize_ingest_blocked_total")
        second = make_item(1)
        putter = threading.Thread(target=queue.put, args=(second,))
        putter.start()
        time.sleep(0.05)
        assert putter.is_alive()  # still blocked on the full queue
        assert blocked.value == 1
        (head,) = queue.get_batch(1)
        putter.join(timeout=2.0)
        assert not putter.is_alive()
        assert queue.get_batch(1) == [second]
        # One backpressure event per blocked put, not per wakeup.
        assert blocked.value == 1

    def test_unblocked_put_does_not_count_backpressure(self, registry):
        queue = VoteQueue(2, registry=registry)
        queue.put(make_item(0))
        assert registry.counter("optimize_ingest_blocked_total").value == 0

    def test_put_timeout_raises_worker_error(self, registry):
        queue = VoteQueue(1, registry=registry)
        queue.put(make_item(0))
        started = time.monotonic()
        with pytest.raises(WorkerError, match="not keeping up"):
            queue.put(make_item(1), timeout=0.05)
        assert time.monotonic() - started >= 0.05
        assert len(queue) == 1  # the timed-out item was never enqueued

    def test_put_after_close_raises(self, registry):
        queue = VoteQueue(4, registry=registry)
        queue.close()
        assert queue.closed
        with pytest.raises(WorkerError, match="closed"):
            queue.put(make_item(0))

    def test_close_wakes_blocked_putter(self, registry):
        queue = VoteQueue(1, registry=registry)
        queue.put(make_item(0))
        errors = []

        def blocked_put():
            try:
                queue.put(make_item(1))
            except WorkerError as exc:
                errors.append(exc)

        putter = threading.Thread(target=blocked_put)
        putter.start()
        time.sleep(0.05)
        queue.close()
        putter.join(timeout=2.0)
        assert not putter.is_alive()
        assert len(errors) == 1

    def test_get_batch_timeout_returns_empty(self, registry):
        queue = VoteQueue(4, registry=registry)
        assert queue.get_batch(8, timeout=0.02) == []

    def test_close_drains_then_returns_empty(self, registry):
        queue = VoteQueue(4, registry=registry)
        item = make_item(0)
        queue.put(item)
        queue.close()
        assert queue.get_batch(8) == [item]
        # Closed and drained: returns immediately, no timeout needed.
        assert queue.get_batch(8) == []

    def test_oldest_enqueued_at_tracks_head(self, registry):
        queue = VoteQueue(4, registry=registry)
        assert queue.oldest_enqueued_at() is None
        first, second = make_item(0), make_item(1)
        queue.put(first)
        queue.put(second)
        assert queue.oldest_enqueued_at() == first.enqueued_at
        queue.get_batch(1)
        assert queue.oldest_enqueued_at() == second.enqueued_at

    def test_depth_gauge_tracks_queue(self, registry):
        queue = VoteQueue(4, registry=registry)
        depth = registry.gauge("optimize_queue_depth")
        queue.put(make_item(0))
        queue.put(make_item(1))
        assert depth.value == 2.0
        queue.get_batch(8)
        assert depth.value == 0.0


class TestWorkerLifecycle:
    def test_double_start_raises(self, registry):
        aug, _ = build_scenario()
        worker = OptimizerWorker(aug, registry=registry)
        worker.start()
        try:
            with pytest.raises(WorkerError, match="already started"):
                worker.start()
        finally:
            worker.stop()

    def test_stopped_worker_stays_stopped(self, registry):
        aug, _ = build_scenario()
        worker = OptimizerWorker(aug, registry=registry)
        worker.start()
        worker.stop()
        with pytest.raises(WorkerError, match="closed queue"):
            worker.start()

    def test_submit_validates_type(self, registry):
        aug, _ = build_scenario()
        worker = OptimizerWorker(aug, registry=registry)
        with pytest.raises(VoteError):
            worker.submit("not a vote")

    def test_context_manager_drains_partial_batch(self, registry):
        aug, votes = build_scenario()
        worker = OptimizerWorker(
            aug, policy=CountPolicy(BATCH_SIZE), registry=registry
        )
        with worker:
            for vote in votes[: BATCH_SIZE + 1]:
                worker.submit(vote)
        assert worker.last_error is None
        assert [o.num_votes for o in worker.history] == [BATCH_SIZE, 1]
        assert worker.pending_votes == 0
        # Every published batch lands on both graphs: shadow and live
        # KG weights are identical between publications.
        assert kg_weights(worker.shadow) == kg_weights(aug)
        assert registry.counter("optimize_ingest_votes_total").value == (
            BATCH_SIZE + 1
        )
        assert (
            registry.counter("optimize_epochs_published_total").value == 2
        )
        assert registry.counter("optimize_worker_errors_total").value == 0

    def test_stop_without_drain_leaves_votes_pending(self, registry):
        aug, votes = build_scenario()
        worker = OptimizerWorker(
            aug, policy=CountPolicy(len(votes) + 1), registry=registry
        )
        with worker:
            for vote in votes[:2]:
                worker.submit(vote)
        # drain=True flushed the partial batch on exit...
        assert len(worker.history) == 1

        aug2, _ = build_scenario()
        worker2 = OptimizerWorker(
            aug2, policy=CountPolicy(100), registry=registry
        )
        worker2.start()
        worker2.stop(drain=False)
        # ...while drain=False publishes nothing.
        assert worker2.history == []
        assert kg_weights(aug2) == kg_weights(worker2.shadow)


class TestWorkerDurability:
    def test_submit_logs_with_links_before_worker_runs(
        self, registry, tmp_path
    ):
        aug, votes = build_scenario()
        with DurableStore(tmp_path) as store:
            worker = OptimizerWorker(
                aug,
                store=store,
                policy=CountPolicy(100),
                registry=registry,
            )
            # The worker is never started: the WAL append must still
            # happen (on the caller thread, before the enqueue).
            seq = worker.submit(votes[0])
            assert seq == 1
            assert store.wal.last_seq == 1
            assert len(worker.queue) == 1
            (record,) = store.wal.records()
            assert record.seq == 1
            assert record.vote == votes[0]
            assert record.links == tuple(
                aug.query_links(votes[0].query).items()
            )

    def test_wal_links_survive_reopen(self, registry, tmp_path):
        aug, votes = build_scenario()
        with DurableStore(tmp_path) as store:
            worker = OptimizerWorker(
                aug,
                store=store,
                policy=CountPolicy(100),
                registry=registry,
            )
            for vote in votes[:2]:
                worker.submit(vote)
        with DurableStore(tmp_path) as reopened:
            records = list(reopened.wal.records())
        assert [r.seq for r in records] == [1, 2]
        for record, vote in zip(records, votes[:2]):
            expected = {
                entity: float(weight)
                for entity, weight in aug.query_links(vote.query).items()
            }
            assert dict(record.links) == expected

    def test_publish_checkpoints_shadow_at_batch_seq(
        self, registry, tmp_path
    ):
        aug, votes = build_scenario()
        with DurableStore(tmp_path) as store:
            worker = OptimizerWorker(
                aug,
                store=store,
                policy=CountPolicy(BATCH_SIZE),
                registry=registry,
            )
            with worker:
                for vote in votes[: BATCH_SIZE + 1]:
                    worker.submit(vote)
            assert worker.last_error is None
            # Two publications (full batch + drain flush); the newest
            # snapshot covers every applied sequence and the WAL was
            # rotated past it.
            snapshot_aug, snapshot_seq = store.snapshots.latest()
            assert snapshot_seq == BATCH_SIZE + 1
            assert list(store.wal.records(after_seq=snapshot_seq)) == []
            assert kg_weights(snapshot_aug) == kg_weights(aug)

    def test_recovery_matches_live_graph_bitwise(self, registry, tmp_path):
        aug, votes = build_scenario()
        with DurableStore(tmp_path) as store:
            worker = OptimizerWorker(
                aug,
                store=store,
                policy=CountPolicy(BATCH_SIZE),
                registry=registry,
            )
            with worker:
                for vote in votes:
                    worker.submit(vote)
            assert worker.last_error is None
            live = kg_weights(aug)
        with DurableStore(tmp_path) as reopened:
            recovered = OnlineOptimizer.recover(
                reopened, policy=CountPolicy(BATCH_SIZE)
            )
        assert kg_weights(recovered.aug) == live
        # The drain flushed everything: recovery has no pending tail.
        assert len(recovered.pending) == 0

    def test_kill_before_drain_replays_from_wal(self, registry, tmp_path):
        """A crash between log and publish loses nothing."""
        aug, votes = build_scenario()
        with DurableStore(tmp_path) as store:
            worker = OptimizerWorker(
                aug,
                store=store,
                policy=CountPolicy(100),  # never fires on its own
                registry=registry,
            )
            # Votes are logged but the worker never runs: the crash
            # window between enqueue and ingest.
            for vote in votes[:BATCH_SIZE]:
                worker.submit(vote)
        # No publication ever happened, so there is no snapshot: boot
        # recovery replays the WAL tail over the deployed graph.
        fallback, _ = build_scenario()
        with DurableStore(tmp_path) as reopened:
            recovered = OnlineOptimizer.recover(
                reopened, policy=CountPolicy(100), fallback=fallback
            )
        assert len(recovered.pending) == BATCH_SIZE
        assert [v.query for v in recovered.pending.votes] == [
            v.query for v in votes[:BATCH_SIZE]
        ]

    def test_recovery_relinks_query_relinked_after_checkpoint(
        self, registry, tmp_path
    ):
        """A query re-linked after the last publish is replayed re-linked.

        Batch 1 is published and checkpointed, the 4th vote's query is
        re-linked on the live graph, and votes 4-6 are logged but the
        process dies before the worker ingests them.  Replay must solve
        batch 2 against the re-linked query, as the uncrashed run did.
        """
        aug, votes = build_scenario()
        with DurableStore(tmp_path) as store:
            worker = OptimizerWorker(
                aug,
                store=store,
                policy=CountPolicy(BATCH_SIZE),
                registry=registry,
            )
            with worker:
                for vote in votes[:BATCH_SIZE]:
                    worker.submit(vote)
            assert worker.last_error is None
            assert store.snapshots.newest_seq() == BATCH_SIZE
            relink(aug, votes[BATCH_SIZE].query)
            # Logged on the caller's thread; the worker never runs.
            doomed = OptimizerWorker(
                aug,
                store=store,
                policy=CountPolicy(BATCH_SIZE),
                registry=registry,
            )
            for vote in votes[BATCH_SIZE : 2 * BATCH_SIZE]:
                doomed.submit(vote)
        with DurableStore(tmp_path) as reopened:
            recovered = OnlineOptimizer.recover(
                reopened, policy=CountPolicy(BATCH_SIZE)
            )
        assert len(recovered.history) == 1
        assert kg_weights(recovered.aug) == relinked_run()

    def test_from_online_adopts_pending_and_history(self, registry, tmp_path):
        aug, votes = build_scenario()
        with DurableStore(tmp_path) as store:
            online = OnlineOptimizer(
                aug, policy=CountPolicy(BATCH_SIZE), store=store
            )
            for vote in votes[: BATCH_SIZE + 2]:
                online.submit(vote)
            assert len(online.history) == 1
            assert len(online.pending) == 2

            worker = OptimizerWorker.from_online(online, registry=registry)
            assert worker.pending_votes == 2
            assert len(worker.history) == 1
            # batch_index keeps counting from the adopted history.
            outcome = worker.flush()
            assert outcome is not None
            assert outcome.num_votes == 2
            assert outcome.batch_index == 1
            assert kg_weights(worker.shadow) == kg_weights(aug)
            # The drain-flush checkpointed through the adopted seqs.
            assert store.snapshots.newest_seq() == BATCH_SIZE + 2


def cold_scores(aug, query, targets, params):
    return inverse_pdistance(aug.graph, query, targets, params=params)


def assert_near(served, expected):
    for target, score in expected.items():
        assert served[target] == pytest.approx(
            score, abs=DELTA_SCORE_TOL, rel=DELTA_SCORE_TOL
        )


def reweight(aug, edge, scale):
    """Scale one knowledge-graph weight; returns its one-edge patch."""
    aug.set_kg_weight(*edge, aug.kg_weight(*edge) * scale)
    return Patch(edges=[edge])


def serve_during_publish(engine, mutate, serve):
    """``serve()``'s result, run while ``publish`` holds after ``mutate()``.

    ``mutate`` returns the patch the publish announces.
    """
    mutated, release = threading.Event(), threading.Event()

    def apply():
        patch = mutate()
        mutated.set()
        assert release.wait(timeout=30.0)
        return patch

    def run_serve():
        try:
            served.append(serve())
        except BaseException as exc:
            served.append(exc)

    publisher = threading.Thread(target=engine.publish, args=(apply,))
    served = []
    server = threading.Thread(target=run_serve, daemon=True)
    publisher.start()
    try:
        assert mutated.wait(timeout=10.0)
        server.start()
        server.join(timeout=5.0)
        assert not server.is_alive(), "serve waited for the publish"
    finally:
        release.set()
        publisher.join(timeout=30.0)
        server.join(timeout=30.0)
    assert not publisher.is_alive()
    (result,) = served
    if isinstance(result, BaseException):
        raise result
    return result


class TestEpochPublication:
    def test_serve_during_publish_reads_previous_epoch(self):
        aug, _ = build_scenario()
        engine = SimilarityEngine(aug, registry=MetricsRegistry())
        targets = sorted(aug.answer_nodes, key=repr)
        params = engine.params
        engine.scores_for_query("q0", targets)  # cached before the publish
        queries = ("q0", "q1")
        before = {q: cold_scores(aug, q, targets, params) for q in queries}
        edge = next(iter(aug.kg_edges())).key
        served = serve_during_publish(
            engine,
            lambda: reweight(aug, edge, 0.5),
            lambda: {q: engine.scores_for_query(q, targets) for q in queries},
        )
        # A cache hit and a miss, both on the pre-publish epoch.
        assert served == before
        assert engine_series(engine)["engine_delta_revalidations_total"] == 1
        for query in queries:
            assert_near(
                engine.scores_for_query(query, targets),
                cold_scores(aug, query, targets, params),
            )

    def test_answer_attached_by_publish_waits_for_its_epoch(self):
        aug, _ = build_scenario()
        engine = SimilarityEngine(aug, registry=MetricsRegistry())
        before = engine.scores_for_query("q0")  # every answer as target
        entity = next(iter(aug.query_links("q0")))

        def attach():
            aug.add_answer("a_late", {entity: 1})
            return Patch(answers=["a_late"])

        served = serve_during_publish(
            engine, attach, lambda: engine.scores_for_query("q0")
        )
        assert served == before
        assert "a_late" in engine.scores_for_query("q0")
        assert engine_series(engine)["engine_rows_appended_total"] == 1

    def test_rank_answers_during_publish_ranks_previous_epoch(self):
        # Without explicit candidates, rank_answers ranks the answers of
        # the epoch the engine serves, not the live graph's: an answer
        # the publish in flight attached is not a candidate yet.
        aug, _ = build_scenario()
        engine = SimilarityEngine(aug, registry=MetricsRegistry())
        params = engine.params.replace(k=len(aug.answer_nodes) + 1)
        before = rank_answers(aug, "q0", params=params, engine=engine)
        entity = next(iter(aug.query_links("q0")))

        def attach():
            aug.add_answer("a_late", {entity: 1})
            return Patch(answers=["a_late"])

        served = serve_during_publish(
            engine,
            attach,
            lambda: rank_answers(aug, "q0", params=params, engine=engine),
        )
        assert served == before
        after = rank_answers(aug, "q0", params=params, engine=engine)
        assert "a_late" in [answer for answer, _ in after]
        assert after == rank_answers(aug, "q0", params=params)

    def test_publish_inside_serve_leaves_new_epoch_clean(self, monkeypatch):
        aug, _ = build_scenario()
        engine = SimilarityEngine(aug, registry=MetricsRegistry())
        targets = sorted(aug.answer_nodes, key=repr)
        params = engine.params
        engine.scores_for_query("q1", targets)  # an entry to delta-repair
        before = cold_scores(aug, "q0", targets, params)
        edge = next(iter(aug.kg_edges())).key
        propagate = DenseBackend.propagate
        epochs = []

        def propagate_then_publish(backend, *args, **kwargs):
            if not epochs:
                epochs.append(engine.epoch)
                epochs.append(engine.publish(lambda: reweight(aug, edge, 0.5)))
            return propagate(backend, *args, **kwargs)

        monkeypatch.setattr(DenseBackend, "propagate", propagate_then_publish)
        # The serve computed on the epoch it captured, before the patch.
        assert engine.scores_for_query("q0", targets) == before
        retired, published = epochs
        assert published == engine.epoch == retired + 1
        key = engine._cache_key(engine._seed_links("q0"), targets, params)
        assert engine._current.lookup(key) is None
        monkeypatch.undo()
        assert engine.scores_for_query("q0", targets) == cold_scores(
            aug, "q0", targets, params
        )


class TestServeThreadsRace:
    """More serve threads than cores race a publisher on a tiny LRU."""

    SERVE_THREADS = 4

    def test_every_serve_reads_one_published_state(self):
        aug, _ = build_scenario(num_queries=16)
        engine = SimilarityEngine(aug, cache_size=6, registry=MetricsRegistry())
        targets = sorted(aug.answer_nodes, key=repr)
        queries = sorted(aug.query_nodes, key=repr)
        params = engine.params

        def cold_state():
            return {q: cold_scores(aug, q, targets, params) for q in queries}

        states = [cold_state()]  # states[k]: after k publishes
        engine.scores_for_query(queries[0], targets)
        first = engine.epoch
        edges = [edge.key for edge in aug.kg_edges()][:8]
        observations, errors = [], []
        published = threading.Event()

        def serve(offset):
            step = offset
            try:
                while not published.is_set() or step < offset + 40:
                    query = queries[step % len(queries)]
                    before = engine.epoch
                    served = engine.scores_for_query(query, targets)
                    observations.append((before, engine.epoch, query, served))
                    step += 1
            except BaseException as exc:
                errors.append(exc)
                raise

        def publish_all():
            try:
                for edge in edges:
                    engine.publish(lambda: reweight(aug, edge, 0.8))
                    states.append(cold_state())
            except BaseException as exc:
                errors.append(exc)
                raise
            finally:
                published.set()

        threads = [
            threading.Thread(target=serve, args=(i * 5,), daemon=True)
            for i in range(self.SERVE_THREADS)
        ]
        threads.append(threading.Thread(target=publish_all, daemon=True))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(states) == len(edges) + 1
        assert engine.epoch == first + len(edges)
        assert engine_series(engine)["engine_weight_patches_total"] == len(edges)
        assert engine_series(engine)["engine_builds_total"] == 1
        assert len(engine._current) <= 6
        for before, after, query, served in observations:
            assert any(
                all(
                    math.isclose(served[t], states[k][query][t], rel_tol=1e-9)
                    for t in targets
                )
                for k in range(before - first, after - first + 1)
            ), f"{query!r} served between epochs {before} and {after}"
        assert len(observations) >= self.SERVE_THREADS * 40


class TestConcurrentStress:
    """The acceptance gate: serve concurrently with a flushing worker.

    >= 1000 question-score reads interleave with vote ingestion and
    background batch publications.  Every read is tagged with the
    engine epoch observed before and after the serve; afterwards the
    same vote stream is replayed through a single-threaded
    :class:`OnlineOptimizer` and every read is compared to a cold
    recompute at its mapped batch state.  A stale cache entry, a torn
    weight patch, or a half-applied batch all fail this exhaustive
    comparison.

    Two comparison regimes, matching the engine's documented serve
    guarantees:

    - with the delta density fallback **forced**, every publication
      drops the cache and every serve recomputes from the copy-on-write
      matrix — **bitwise** equal to the cold recompute, so the
      comparison is exact float equality;
    - with delta revalidation as it ships, cache entries surviving a
      publish carry the exact-within-rounding delta correction
      (1-ulp-level, see ``tests/test_serving_delta``) — the comparison
      allows correction rounding and nothing more.  A concurrency bug
      shows up orders of magnitude above that.
    """

    #: Delta-correction rounding budget (relative).  Torn or stale
    #: reads differ from every state at ~1e-2 relative; a few chained
    #: 1-ulp corrections stay under this by a wide margin.
    DELTA_RTOL = 1e-9

    def _run_session(self):
        num_queries = 16
        aug, votes = build_scenario(num_queries=num_queries)
        assert len(votes) >= 2 * BATCH_SIZE  # needs real batch traffic

        registry = MetricsRegistry()
        engine = SimilarityEngine(aug, cache_size=4096, registry=registry)
        worker = OptimizerWorker(
            aug,
            engine=engine,
            policy=CountPolicy(BATCH_SIZE),
            registry=registry,
        )

        # Record the epoch of every publication, in order, by wrapping
        # the bound method on this one instance.
        published = []
        orig_publish = engine.publish

        def tracking_publish(apply):
            epoch = orig_publish(apply)
            published.append(epoch)
            return epoch

        engine.publish = tracking_publish

        # Every batch's reported written set must cover what the batch
        # actually changed: the edges where shadow and live differ just
        # before its publish.
        uncovered = []
        orig_worker_publish = worker._publish

        def covered_publish(outcome):
            diff = {
                edge.key
                for edge in worker.shadow.kg_edges()
                if aug.kg_weight(*edge.key) != edge.weight
            }
            uncovered.extend(diff - set(outcome.edge_keys))
            orig_worker_publish(outcome)

        worker._publish = covered_publish

        queries = sorted(aug.query_nodes, key=repr)
        targets = sorted(aug.answer_nodes, key=repr)
        observations = []  # (epoch_before, epoch_after, {query: scores})
        asks = 0
        submitted = 0
        step = 0
        # The loop keeps serving until every pre-drain batch has
        # actually published, so observations cover every intermediate
        # state, not just state 0 — a fast serve loop must not outrun
        # the comparison's reason to exist.
        expected_publishes = len(votes) // BATCH_SIZE
        deadline = time.monotonic() + 120.0

        def serve_once(step):
            epoch_before = engine.epoch
            if step % 10 == 9:
                # Exercise the batched serve path too.
                group = [
                    queries[(step + j) % len(queries)] for j in range(3)
                ]
                scored = engine.score_batch(group, targets)
            else:
                query = queries[step % len(queries)]
                scored = {query: engine.scores_for_query(query, targets)}
            epoch_after = engine.epoch
            observations.append((epoch_before, epoch_after, scored))
            return len(scored)

        with worker:
            while (
                asks < 1000
                or submitted < len(votes)
                or len(published) < expected_publishes
            ):
                assert time.monotonic() < deadline, "worker stalled"
                if step % 7 == 0 and submitted < len(votes):
                    worker.submit(votes[submitted])
                    submitted += 1
                asks += serve_once(step)
                step += 1
                if asks >= 1000 and submitted == len(votes):
                    # Quota met: stop hammering the GIL so the worker
                    # can finish publishing while we keep observing.
                    time.sleep(0.002)
        # The drain published any leftover partial batch; read once
        # more per query so the final state is observed too.
        for _ in range(len(queries)):
            serve_once(step)
            step += 1

        assert worker.last_error is None
        assert uncovered == []
        assert asks >= 1000
        assert submitted == len(votes)
        # Epochs publish in non-decreasing order (a publication whose
        # patch leaves the matrix byte-identical does not bump the
        # epoch), exactly one per batch outcome.
        assert published == sorted(published)
        assert len(published) == len(worker.history)
        assert (
            registry.counter("optimize_worker_errors_total").value == 0
        )
        assert registry.counter(
            "optimize_ingest_votes_total"
        ).value == len(votes)
        assert registry.counter(
            "optimize_epochs_published_total"
        ).value == len(published)

        # --- single-threaded replay of the identical scenario -------
        ref_aug, ref_votes, replay, ref_graphs = single_threaded_replay(
            num_queries
        )
        assert ref_votes == votes  # the scenario is fully deterministic

        # Same batch boundaries, same final weights — bitwise, in both
        # regimes: publication correctness does not depend on the
        # cache-repair strategy.
        assert [o.num_votes for o in worker.history] == [
            o.num_votes for o in replay.history
        ]
        assert len(ref_graphs) == len(published) + 1
        final = kg_weights(aug)
        assert kg_weights(ref_aug) == final
        assert kg_weights(worker.shadow) == final

        return engine, targets, observations, published, ref_graphs

    def _check_observations(
        self, engine, targets, observations, published, ref_graphs, *, rtol
    ):
        """Map every observation to a replay state and compare scores."""
        params = engine.params
        cold_cache = {}

        def cold(state, query):
            key = (state, query)
            if key not in cold_cache:
                cold_cache[key] = inverse_pdistance(
                    ref_graphs[state].graph, query, targets, params=params
                )
            return cold_cache[key]

        def matches(served, expected):
            if rtol == 0.0:
                return all(served[t] == expected[t] for t in targets)
            return all(
                math.isclose(served[t], expected[t], rel_tol=rtol)
                for t in targets
            )

        stable = spanning = 0
        for epoch_before, epoch_after, scored in observations:
            # State k is in effect from the k-th published epoch up to
            # (not including) the next one.
            k0 = bisect.bisect_right(published, epoch_before)
            k1 = bisect.bisect_right(published, epoch_after)
            assert k0 <= k1
            for query, served in scored.items():
                if k0 == k1:
                    # No publication overlapped this serve: the scores
                    # must be state k0's — zero stale reads.
                    stable += 1
                    assert matches(served, cold(k0, query)), (
                        f"poisoned read: query {query!r} at state {k0} "
                        f"(epoch {epoch_before})"
                    )
                else:
                    # A publication landed mid-serve: the read must
                    # still be one consistent state from the interval,
                    # never a torn mixture.
                    spanning += 1
                    assert any(
                        matches(served, cold(k, query))
                        for k in range(k0, k1 + 1)
                    ), (
                        f"torn read: query {query!r} matches no state in "
                        f"[{k0}, {k1}]"
                    )
        # The overwhelming majority of reads must be unambiguous, and
        # both endpoint states must have been observed stably for the
        # comparison to mean anything.
        assert stable >= 1000 - len(published) * 16
        observed_states = {
            bisect.bisect_right(published, e0)
            for e0, e1, _ in observations
            if e0 == e1
        }
        assert 0 in observed_states
        assert len(ref_graphs) - 1 in observed_states

    def test_thousand_asks_bitwise_equal_single_threaded_replay(
        self, forced_delta_fallback
    ):
        session = self._run_session()
        self._check_observations(*session, rtol=0.0)

    def test_delta_revalidated_serves_stay_within_correction_rounding(self):
        session = self._run_session()
        self._check_observations(*session, rtol=self.DELTA_RTOL)
