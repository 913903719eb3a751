"""Tests for the optimizer worker's solver process (repro/sgp/process.py).

Three groups:

- process lifetime — building workers spawns nothing, every way out of
  ``stop()`` reaps the child, a script that never calls ``stop()`` and
  a perf-harness run leave no process behind (these read ``/proc``);
- child death — a child killed between request and reply is respawned
  and the run still equals a single-threaded replay bitwise; a second
  death fails the batch, and the next batch starts a fresh child;
- cross-process equality — a problem solves to the same bits in the
  child as in-process, exceptions cross the pipe (even one that cannot
  be unpickled), and the child runs with the parent's contracts switch.
"""

import json
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.devtools.contracts import (
    contracts_enabled,
    disable_contracts,
    enable_contracts,
)
from repro.errors import SGPSolverError, WorkerError
from repro.obs import MetricsRegistry
from repro.optimize.encoder import encode_votes
from repro.optimize.multi_vote import solve_multi_vote
from repro.optimize.objectives import distance_signomial
from repro.optimize.online import OnlineOptimizer
from repro.persistence import DurableStore
from repro.serving import SimilarityEngine
from repro.serving.worker import OptimizerWorker
from repro.sgp import SGPProblem, SmoothObjective, process, solve_sgp
from repro.sgp.process import SolverProcess, current, installed
from repro.sgp.solver import run_solve
from repro.votes.stream import CountPolicy

from tests.durable_scenario import (
    BATCH_SIZE,
    build_scenario,
    kg_weights,
    single_threaded_replay,
)
from tests.solver_probes import ContractsProbe, RaisesTwoArgError

ROOT = Path(__file__).resolve().parents[1]
OPTIONS = {"method": "slsqp", "max_iter": 300, "tol": 1e-9, "fallback": True}

needs_proc = pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="reads /proc (Linux)"
)


def _processes(where):
    """Pids of live ``/proc`` entries whose stat fields satisfy ``where``.

    ``fields`` starts after the command name: state, ppid, pgrp,
    session.  A zombie still has an entry, so an unreaped child counts.
    """
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            text = (entry / "stat").read_text()
        except OSError:  # exited while we listed
            continue
        if where(text.rsplit(")", 1)[1].split()):
            found.append(int(entry.name))
    return sorted(found)


def children():
    return _processes(lambda fields: int(fields[1]) == os.getpid())


def session_survivors(sid, grace=5.0):
    """Processes still in session ``sid`` after up to ``grace`` seconds."""
    deadline = time.monotonic() + grace
    while True:
        survivors = _processes(lambda fields: int(fields[3]) == sid)
        if not survivors or time.monotonic() > deadline:
            return survivors
        time.sleep(0.05)


def reaped(pid):
    return not Path(f"/proc/{pid}").exists()


def wait_for(condition, timeout=60.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.01)


def kill_after_send(monkeypatch, times):
    """Kill the child after each of the next ``times`` requests is written.

    The kill lands after the request is on the pipe and before its reply
    is read.  Returns ``(sent, killed)``: the child pid of every request
    sent, and of every child killed.
    """
    original = SolverProcess._send
    sent, killed = [], []

    def send_then_kill(self, popen, request):
        original(self, popen, request)
        sent.append(popen.pid)
        if len(killed) < times:
            popen.kill()
            popen.wait()
            killed.append(popen.pid)

    monkeypatch.setattr(SolverProcess, "_send", send_then_kill)
    return sent, killed


def child_env():
    """This process's environment with the repository root on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT), str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


@pytest.fixture
def registry():
    return MetricsRegistry()


# ----------------------------------------------------------------------
# process lifetime
# ----------------------------------------------------------------------
@needs_proc
class TestLifetime:
    def test_building_workers_starts_no_process(self, registry, tmp_path):
        before = children()
        # As the perf harness's setup does: 15 deployments, each closed
        # without ever starting its worker.
        for attempt in range(15):
            aug, _ = build_scenario()
            engine = SimilarityEngine(aug, registry=registry)
            store = DurableStore(tmp_path / f"store-{attempt}")
            worker = OptimizerWorker(
                aug, engine=engine, store=store, registry=registry
            )
            engine.close()
            store.close()
            assert worker._solver.pid is None
        assert children() == before

    def test_unstarted_worker_flush_solves_in_process(self, registry, tmp_path):
        before = children()
        aug, votes = build_scenario()
        with DurableStore(tmp_path) as store:
            online = OnlineOptimizer(aug, policy=CountPolicy(100), store=store)
            for vote in votes[:BATCH_SIZE]:
                online.submit(vote)
            worker = OptimizerWorker.from_online(online, registry=registry)
            outcome = worker.flush()
        assert outcome is not None and outcome.num_votes == BATCH_SIZE
        assert children() == before

    @pytest.mark.parametrize("drain", [True, False])
    def test_stop_reaps_the_child(self, registry, drain):
        aug, votes = build_scenario()
        worker = OptimizerWorker(
            aug, policy=CountPolicy(BATCH_SIZE), registry=registry
        )
        worker.start()
        pid = worker._solver.pid
        assert pid in children()
        for vote in votes[: BATCH_SIZE + 1]:
            worker.submit(vote)
        worker.stop(drain=drain)
        assert reaped(pid)
        assert worker._solver.pid is None
        assert worker.last_error is None

    def test_child_that_cannot_start_fails_start(self, registry, monkeypatch):
        before = children()
        monkeypatch.setattr(process, "_CHILD_CODE", "import sys; sys.exit(3)")
        aug, _ = build_scenario()
        worker = OptimizerWorker(aug, registry=registry)
        with pytest.raises(WorkerError, match="exit status 3"):
            worker.start()
        assert children() == before

    def test_with_body_that_raised_reaps_the_child(self, registry):
        aug, _ = build_scenario()
        worker = OptimizerWorker(aug, registry=registry)
        with pytest.raises(RuntimeError, match="body failed"):
            with worker:
                pid = worker._solver.pid
                raise RuntimeError("body failed")
        assert reaped(pid)

    def test_join_timeout_kills_the_child_and_does_not_respawn(
        self, registry, monkeypatch
    ):
        before = children()
        entered, release = threading.Event(), threading.Event()
        original = SolverProcess._send

        def stalled_send(self, popen, request):
            entered.set()
            release.wait(60)
            original(self, popen, request)

        monkeypatch.setattr(SolverProcess, "_send", stalled_send)
        aug, votes = build_scenario()
        initial = kg_weights(aug)
        worker = OptimizerWorker(
            aug, policy=CountPolicy(BATCH_SIZE), registry=registry
        )
        worker.start()
        pid = worker._solver.pid
        for vote in votes[:BATCH_SIZE]:
            worker.submit(vote)
        assert entered.wait(60)
        with pytest.raises(WorkerError, match="did not stop"):
            worker.stop(timeout=0.2)
        assert reaped(pid)
        release.set()
        worker.stop(timeout=60)
        # The stalled solve, and the drain flush after it, failed
        # instead of starting another child.
        assert children() == before
        assert worker._solver.pid is None
        assert isinstance(worker.last_error, SGPSolverError)
        assert worker.pending_votes == BATCH_SIZE
        assert worker.history == []
        assert kg_weights(aug) == initial

    def test_script_exiting_without_stop_leaves_no_process(self):
        script = (
            "from repro.obs import MetricsRegistry\n"
            "from repro.serving.worker import OptimizerWorker\n"
            "from tests.durable_scenario import build_scenario\n"
            "aug, votes = build_scenario()\n"
            "worker = OptimizerWorker(aug, registry=MetricsRegistry()).start()\n"
            "worker.submit(votes[0])\n"
            "print(worker._solver.pid, flush=True)\n"
        )
        popen = subprocess.Popen(
            [sys.executable, "-c", script],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        out, err = popen.communicate(timeout=120)
        assert popen.returncode == 0, err[-3000:]
        assert reaped(int(out.split()[-1]))
        assert session_survivors(popen.pid) == []

    def test_perf_smoke_run_leaves_no_process(self, tmp_path):
        env = {
            key: value
            for key, value in os.environ.items()
            if key not in ("PYTHONPATH", "REPRO_CONTRACTS", "REPRO_FLIGHT_DIR")
        }
        result = tmp_path / "result.json"
        popen = subprocess.Popen(
            [
                sys.executable,
                str(ROOT / "benchmarks" / "perf" / "run.py"),
                "--workload", "helpdesk-feedback", "--smoke",
                "--out", str(result),
            ],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        out, err = popen.communicate(timeout=300)
        assert popen.returncode == 0, err[-3000:]
        assert json.loads(out.strip().splitlines()[-1])["correct"] is True
        assert session_survivors(popen.pid) == []


# ----------------------------------------------------------------------
# child death
# ----------------------------------------------------------------------
class TestChildDeath:
    def test_killed_child_is_respawned_and_the_run_matches_replay(
        self, registry, monkeypatch, tmp_path
    ):
        sent, killed = kill_after_send(monkeypatch, times=1)
        aug, votes = build_scenario()
        with DurableStore(tmp_path) as store:
            worker = OptimizerWorker(
                aug,
                store=store,
                policy=CountPolicy(BATCH_SIZE),
                registry=registry,
            )
            with worker:
                seqs = [worker.submit(vote) for vote in votes]
        assert worker.last_error is None
        assert len(killed) == 1
        # The request went to the killed child, then to its successor.
        assert sent[0] == killed[0] and sent[1] != killed[0]
        # Every acknowledged vote was published...
        assert max(seqs) <= max(o.last_seq for o in worker.history)
        # ...through the same batches, to the same bits, as a
        # single-threaded in-process run.
        ref_aug, ref_votes, replay, _ = single_threaded_replay()
        assert ref_votes == votes
        assert [o.num_votes for o in worker.history] == [
            o.num_votes for o in replay.history
        ]
        assert kg_weights(aug) == kg_weights(ref_aug)
        assert kg_weights(worker.shadow) == kg_weights(ref_aug)

    def test_two_deaths_fail_the_batch_and_the_next_starts_a_fresh_child(
        self, registry, monkeypatch
    ):
        sent, killed = kill_after_send(monkeypatch, times=2)
        aug, votes = build_scenario()
        initial = kg_weights(aug)
        worker = OptimizerWorker(
            aug, policy=CountPolicy(BATCH_SIZE), registry=registry
        )
        with worker:
            for vote in votes[:BATCH_SIZE]:
                worker.submit(vote)
            wait_for(lambda: worker.last_error is not None)
            assert isinstance(worker.last_error, SGPSolverError)
            assert "died twice" in str(worker.last_error)
            assert worker.pending_votes == BATCH_SIZE
            assert worker.history == []
            assert kg_weights(worker.shadow) == initial
            worker.submit(votes[BATCH_SIZE])
            wait_for(lambda: worker.history)
        assert len(killed) == 2
        assert sent[-1] not in killed
        assert [o.num_votes for o in worker.history] == [BATCH_SIZE + 1]
        ref_aug, ref_votes = build_scenario()
        replay = OnlineOptimizer(ref_aug, policy=CountPolicy(BATCH_SIZE + 1))
        for vote in ref_votes[: BATCH_SIZE + 1]:
            replay.submit(vote)
        assert kg_weights(aug) == kg_weights(ref_aug)


# ----------------------------------------------------------------------
# cross-process equality
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def solver():
    """One started solver process that can import the ``tests`` probes."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", child_env()["PYTHONPATH"])
        proc = SolverProcess()
        proc.start()
    yield proc
    proc.close()


def multi_vote_problem():
    """A worker batch's program: Eq. 15 constraints, Eq. 19 objective."""
    aug, votes = build_scenario()
    _, report = solve_multi_vote(aug, votes[:BATCH_SIZE])
    problem = report.encoded.problem
    assert problem.objective.name == "eq19"
    return problem


def single_vote_problem():
    """One negative vote's program: Eq. 11 constraints, Eq. 12 objective."""
    aug, votes = build_scenario()
    negative = next(vote for vote in votes if vote.is_negative)
    encoded = encode_votes(aug, [negative], use_deviations=False)
    encoded.problem.set_objective(
        distance_signomial(encoded.problem.x0[: encoded.num_edge_vars])
    )
    encoded.problem.compile()
    return encoded.problem


def probe_problem(objective):
    problem = SGPProblem([0.5, 0.5])
    problem.set_objective(SmoothObjective(objective))
    return problem


class TestCrossProcess:
    @pytest.mark.parametrize("build", [multi_vote_problem, single_vote_problem])
    def test_solution_is_bitwise_equal_in_the_child(self, solver, build):
        problem = build()
        assert problem.num_constraints > 0
        here = run_solve(problem, **OPTIONS)
        there = solver.solve(problem, OPTIONS)
        assert there.x.tobytes() == here.x.tobytes()
        assert there.nit == here.nit > 0
        assert there.method == here.method
        assert there.objective_value == here.objective_value
        assert there.num_satisfied == here.num_satisfied

    def test_unknown_method_raises_the_childs_error(self, solver):
        problem = single_vote_problem()
        with installed(solver):
            with pytest.raises(SGPSolverError, match="unknown method 'simplex'") as info:
                solve_sgp(problem, method="simplex")
        assert "run_solve" in str(info.value.__cause__)

    def test_exception_that_cannot_be_unpickled_arrives_as_text(self, solver):
        pid = solver.pid
        with pytest.raises(SGPSolverError, match="TwoArgError: left/right"):
            solver.solve(probe_problem(RaisesTwoArgError()), OPTIONS)
        # The child reported the failure and keeps serving.
        assert solver.pid == pid
        assert solver.solve(probe_problem(ContractsProbe()), OPTIONS).success

    def test_child_follows_the_parents_contracts_switch(self, solver):
        was_enabled = contracts_enabled()
        try:
            enable_contracts()
            armed = solver.solve(probe_problem(ContractsProbe()), OPTIONS)
            disable_contracts()
            disarmed = solver.solve(probe_problem(ContractsProbe()), OPTIONS)
        finally:
            (enable_contracts if was_enabled else disable_contracts)()
        assert (armed.objective_value, disarmed.objective_value) == (1.0, 0.0)


def _exit_with_routing():
    sys.exit(0 if current() is None else 1)


def test_forked_process_solves_in_process():
    proc = SolverProcess()  # never started: spawns nothing
    with installed(proc):
        assert current() is proc
        forked = multiprocessing.get_context("fork").Process(
            target=_exit_with_routing
        )
        forked.start()
        forked.join(60)
    assert forked.exitcode == 0
    assert current() is None
