"""One run of one workload: set up, drive both loops, check, measure.

A run has four phases, all on inputs generated before the clock starts:

1. **setup** (``setup_s``) — attach answers and queries to a fresh
   :class:`~repro.graph.AugmentedGraph`, build and warm the
   :class:`~repro.serving.SimilarityEngine`, and on ``-feedback``
   workloads open a :class:`~repro.persistence.DurableStore` on disk and
   construct the :class:`~repro.serving.worker.OptimizerWorker` (which
   copies the graph into its shadow).  Repeated; the median is reported.
2. **closed loop** — one client asks back to back (``ask_max_qps``).
3. **open loop** — asks at a fixed rate on this thread and, on
   ``-feedback`` workloads, votes at a fixed rate on a second thread,
   until the worker has published every vote.  Every request is timed
   from the moment it was *due*, so a stall is charged to each ask
   queued behind it; how late the generator itself started each request
   is reported separately.
4. **checks** — outside the timed part: served scores against a cold
   recompute, shadow against live weights, every acknowledged vote
   published, no swallowed worker error.
"""

from __future__ import annotations

import gc
import shutil
import statistics
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.devtools.contracts import DELTA_SCORE_TOL, PUSH_SCORE_TOL
from repro.eval.harness import evaluate_test_set, vote_omega_avg
from repro.graph import AugmentedGraph
from repro.persistence import DurableStore
from repro.serving import SimilarityEngine, SimilarityParams
from repro.serving.worker import OptimizerWorker
from repro.similarity.backend import get_backend

from metrics import layer_metrics, pct
from workloads import ASK_K, augmented, window_seconds

#: An ask answered within this long of its due time meets the SLO.
SLO_S = 0.010
#: Lead time between scheduling the window and its first due request.
START_DELAY_S = 0.05
#: Closed-loop blocks; traced runs alternate traced and untraced ones.
CLOSED_BLOCKS = 8
#: Asks re-checked against a cold recompute after the run.
CHECK_SAMPLE = 32
#: Bound on draining the worker after the last vote; keeps a hung
#: worker from running a run past its time limit.
DRAIN_TIMEOUT_S = 60.0


@dataclass
class Deployment:
    """The program as a user runs it: graph, engine, and optimizer."""

    aug: AugmentedGraph
    engine: SimilarityEngine
    store: "DurableStore | None" = None
    worker: "OptimizerWorker | None" = None

    def close(self) -> None:
        self.engine.close()
        if self.store is not None:
            self.store.close()


def _deploy(workload, inputs, store_dir) -> Deployment:
    """Set the program up from in-memory inputs (the ``setup_s`` span)."""
    aug = augmented(inputs.kg, inputs.answers, inputs.queries)
    engine = SimilarityEngine(
        aug, params=SimilarityParams(backend=workload.backend)
    )
    for query in inputs.warm:
        engine.top_k(query, k=ASK_K)
    if not workload.feedback:
        return Deployment(aug, engine)
    store = DurableStore(store_dir)
    worker = OptimizerWorker(aug, engine=engine, store=store)
    return Deployment(aug, engine, store, worker)


def _setup(workload, inputs, work_dir):
    """Deploy ``setup_repeats`` times; keep the last, time them all."""
    times = []
    for attempt in range(workload.setup_repeats):
        if attempt:
            deployment.close()
            shutil.rmtree(store_dir, ignore_errors=True)
            del deployment
        # Each setup starts from the same heap: no garbage from input
        # generation or an earlier attempt left for a collection to find.
        gc.collect()
        store_dir = work_dir / f"store-{attempt}"
        started = time.perf_counter()
        deployment = _deploy(workload, inputs, store_dir)
        times.append(time.perf_counter() - started)
    return deployment, statistics.median(times)


def _reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS record from the current RSS.

    Called once inputs exist, so the peak read after the window belongs
    to the program's set-up and serving, not to input generation.
    """
    gc.collect()
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")


def _peak_rss_mb() -> float:
    """Peak RSS since the last :func:`_reset_peak_rss`, in MiB."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _sleep_until(due: float) -> float:
    now = time.perf_counter()
    if now < due:
        time.sleep(due - now)
        now = time.perf_counter()
    return now


class _VoteStream(threading.Thread):
    """Submits the votes at their due times, then drains the worker."""

    def __init__(self, worker, votes, due) -> None:
        super().__init__(name="perf-votes", daemon=True)
        self.worker = worker
        self.votes = votes
        self.due = due
        self.late = []
        self.seqs: list["int | None"] = [None] * len(votes)
        self.errors: list[str] = []
        self.drained = threading.Event()

    def run(self) -> None:
        try:
            for j, (vote, due) in enumerate(zip(self.votes, self.due)):
                started = _sleep_until(due)
                self.late.append(started - due)
                try:
                    self.seqs[j] = self.worker.submit(vote)
                except Exception as exc:  # a failed vote must not stop the stream
                    self.errors.append(f"vote {j}: {type(exc).__name__}: {exc}")
            try:
                self.worker.stop(drain=True, timeout=DRAIN_TIMEOUT_S)
            except Exception as exc:  # reported; the asks must still end
                self.errors.append(f"drain: {type(exc).__name__}: {exc}")
        finally:
            self.drained.set()


def _open_loop(workload, inputs, deployment):
    """The timed window: fixed-rate asks here, fixed-rate votes beside.

    With votes, asks continue past the open window until the worker has
    published every vote, so each batch's contention lands on asks.
    """
    engine = deployment.engine
    interval = 1.0 / workload.ask_rate
    published: list[float] = []
    stream = None
    if deployment.worker is not None:
        publish = engine.publish

        def stamped(apply):
            epoch = publish(apply)
            published.append(time.perf_counter())
            return epoch

        # Instance attribute: the worker's publications, and only them,
        # get a return timestamp for vote visibility.
        engine.publish = stamped
        deployment.worker.start()
    t0 = time.perf_counter() + START_DELAY_S
    if deployment.worker is not None:
        stream = _VoteStream(
            deployment.worker, inputs.votes, [t0 + d for d in inputs.vote_due]
        )
        stream.start()
    latency, late, ok, errors = [], [], [], []
    for i, query in enumerate(inputs.asks):
        if i >= inputs.open_asks and (stream is None or stream.drained.is_set()):
            break
        due = t0 + i * interval
        started = _sleep_until(due)
        try:
            engine.top_k(query, k=ASK_K)
            ok.append(True)
        except Exception as exc:  # a failed ask must not stop the schedule
            ok.append(False)
            errors.append(f"ask {i}: {type(exc).__name__}: {exc}")
        latency.append(time.perf_counter() - due)
        late.append(started - due)
    if stream is not None:
        stream.join(DRAIN_TIMEOUT_S)
        del engine.publish
    return {
        "t0": t0,
        "end": time.perf_counter(),
        "latency": np.asarray(latency),
        "late": np.asarray(late),
        "ok": np.asarray(ok, dtype=bool),
        "ask_errors": errors,
        "stream": stream,
        "published": published,
    }


def _closed_loop(engine, queries, seconds, tracer):
    """One client asking back to back, in blocks.

    Throughput is the best block's rate: on a shared machine whose speed
    drops for seconds at a time, the fastest block is the one least
    disturbed by other tenants.  A traced run alternates traced and
    untraced blocks and reports the tracing overhead instead.
    """
    service = {True: [], False: []}
    rates = []
    done = failed = 0
    started = time.perf_counter()
    for block in range(CLOSED_BLOCKS):
        traced = tracer is not None and block % 2 == 0
        if traced:
            tracer.install()
        elif tracer is not None:
            tracer.uninstall()
        block_start, block_done = time.perf_counter(), done
        deadline = started + seconds * (block + 1) / CLOSED_BLOCKS
        while done + failed < len(queries):
            before = time.perf_counter()
            if before >= deadline:
                break
            try:
                engine.top_k(queries[done + failed], k=ASK_K)
                done += 1
            except Exception:  # counted; the closed loop keeps going
                failed += 1
            service[traced].append(time.perf_counter() - before)
        rates.append((done - block_done) / (time.perf_counter() - block_start))
    if tracer is not None:
        tracer.uninstall()
    overhead = 0.0
    if service[True] and service[False]:
        overhead = 100.0 * (
            np.median(service[True]) / np.median(service[False]) - 1.0
        )
    return {
        "qps": max(rates),
        "asked": done + failed,
        "failed": failed,
        "trace_overhead": (overhead, CLOSED_BLOCKS),
    }


def _vote_batches(seqs, history):
    """Index of the first batch covering each vote's WAL sequence.

    ``None`` for a vote never acknowledged or never published.
    """
    marks = [outcome.last_seq for outcome in history]
    batches = []
    for seq in seqs:
        batch = None
        if seq is not None:
            for k, mark in enumerate(marks):
                if mark is not None and mark >= seq:
                    batch = k
                    break
        batches.append(batch)
    return batches


def _same_order(top, cold, slack):
    """Whether served top-k matches the cold ranking up to ``slack`` ties."""
    ranked = [answer for answer, _ in top]
    if any(cold[a] < cold[b] - slack for a, b in zip(ranked, ranked[1:])):
        return False
    kth = min(cold[a] for a in ranked)
    return not any(
        score > kth + slack for a, score in cold.items() if a not in ranked
    )


def _check_scores(workload, inputs, deployment):
    """Sampled asks on the final graph against a cold dense recompute.

    Dense serving is bitwise on a graph no publish touched; after
    publishes, delta-corrected cache entries are held to the engine's
    own revalidation tolerance.  Push is held to its error budget.
    """
    aug, engine = deployment.aug, deployment.engine
    params = SimilarityParams()
    targets = sorted(aug.answer_nodes, key=repr)
    sample = inputs.pool[:CHECK_SAMPLE]
    dense = get_backend("dense")
    if workload.backend == "push":
        cold = dense.scores_batch(aug.graph, sample, targets, params=params)
        slack = engine.params.push_tolerance + PUSH_SCORE_TOL
    else:
        # Single-source DP: the engine mirrors it operation for operation.
        cold = {
            query: dense.scores(aug.graph, query, targets, params=params)
            for query in sample
        }
        slack = DELTA_SCORE_TOL if workload.feedback else 0.0
    failures = []
    for query in sample:
        served = engine.scores_for_query(query)
        worst = max(abs(served[t] - cold[query][t]) for t in targets)
        if worst > slack:
            failures.append(f"{query}: served score off by {worst:.3g} > {slack:g}")
        elif not _same_order(engine.top_k(query, k=ASK_K), cold[query], 2 * slack):
            failures.append(f"{query}: served top-{ASK_K} order differs")
    return failures


def _check_feedback(deployment, seqs, history):
    worker, aug = deployment.worker, deployment.aug
    failures = []
    if worker.last_error is not None:
        failures.append(f"worker error: {worker.last_error!r}")
    shadow = worker.shadow
    drift = sum(
        1 for edge in aug.kg_edges() if shadow.kg_weight(*edge.key) != edge.weight
    )
    if drift:
        failures.append(f"{drift} live KG weights differ from the worker shadow")
    marks = [o.last_seq for o in history if o.last_seq is not None]
    acked = [seq for seq in seqs if seq is not None]
    if acked and (not marks or max(acked) > max(marks)):
        failures.append(
            f"acknowledged vote seq {max(acked)} above the last published "
            f"seq {max(marks) if marks else None}"
        )
    return failures


def _quality(inputs, deployment, acked_votes):
    """Ω_avg of the window's votes and held-out MRR on the final graph."""
    quality = {}
    if acked_votes:
        quality["vote_omega_avg"] = (
            vote_omega_avg(deployment.aug, acked_votes, engine=deployment.engine),
            len(acked_votes),
        )
    if inputs.heldout:
        result = evaluate_test_set(
            deployment.aug, inputs.heldout, engine=deployment.engine
        )
        quality["mrr_heldout"] = (result.mrr, len(inputs.heldout))
    return quality


def measure(workload, inputs, seconds, work_dir, tracer=None) -> dict:
    """Run ``workload`` once; returns metrics, counts and check failures."""
    _, closed_s = window_seconds(seconds)
    _reset_peak_rss()
    if tracer is not None:
        tracer.install()
    deployment, setup_s = _setup(workload, inputs, work_dir)
    # Throughput of the system as deployed, before the first vote: after
    # the window the heap holds the worker's leftovers and the rate
    # wandered by a fifth between runs of one seed.
    closed = _closed_loop(deployment.engine, inputs.closed, closed_s, tracer)
    if tracer is not None:
        tracer.install()
    window = _open_loop(workload, inputs, deployment)
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = _peak_rss_mb()

    stream = window["stream"]
    latency, ok = window["latency"], window["ok"]
    worker = deployment.worker
    history = list(worker.history) if worker is not None else []
    seqs = stream.seqs if stream is not None else []
    batch_of = _vote_batches(seqs, history)
    published = window["published"]
    due_abs = [window["t0"] + d for d in inputs.vote_due]
    visible = [
        published[k] - due
        for k, due in zip(batch_of, due_abs)
        if k is not None and k < len(published)
    ]
    failed_votes = sum(
        1 for k in batch_of if k is None or k >= len(published)
    )
    asks_attempted = len(latency) + closed["asked"]
    failed_asks = int((~ok).sum()) + closed["failed"]

    failures = list(window["ask_errors"])
    if stream is not None:
        failures += stream.errors
    failures += _check_scores(workload, inputs, deployment)
    if worker is not None:
        failures += _check_feedback(deployment, seqs, history)
    acked = [v for v, seq in zip(inputs.votes, seqs) if seq is not None]
    quality = _quality(inputs, deployment, acked)
    deployment.close()

    served = latency[ok] * 1e3
    end_to_end = {
        "setup_s": setup_s,
        "ask_p50_ms": pct(served, 50),
        "ask_slo_ratio": float(((latency <= SLO_S) & ok).sum()) / len(latency),
        "peak_rss_mb": peak_rss_mb,
    }
    votes_attempted = len(inputs.votes)
    reported = {
        "ask_max_qps": closed["qps"],
        "ask_p99_ms": pct(served, 99),
        "ask_fail_ratio": failed_asks / asks_attempted,
        "ask_late_p50_ms": pct(window["late"] * 1e3, 50),
    }
    if votes_attempted:
        reported["vote_fail_ratio"] = failed_votes / votes_attempted
        reported["vote_visible_p50_s"] = pct(visible, 50)
        reported["vote_visible_p90_s"] = pct(visible, 90)
    for name, (value, _) in quality.items():
        reported[name] = value
    result = {
        "correct": not failures,
        "failures": failures,
        "attempted": asks_attempted + votes_attempted,
        "failed": failed_asks + failed_votes,
        "end_to_end": end_to_end,
        "reported": reported,
    }
    if tracer is not None:
        tracer.finish()
        in_window = [
            span for span in tracer.spans
            if window["t0"] <= span.start <= window["end"]
        ]
        run = {
            "vote_batch": batch_of,
            "vote_due_abs": due_abs,
            "vote_visible_s": visible,
            "quality": quality,
            "ask_late_ms": window["late"] * 1e3,
            "vote_late_ms": [x * 1e3 for x in stream.late] if stream else [],
            "trace_overhead": closed["trace_overhead"],
        }
        result["per_layer"], result["samples"] = layer_metrics(in_window, run)
    return result
