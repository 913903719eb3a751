"""SGP solves in a child Python process.

SLSQP calls back into Python for every objective and constraint
evaluation, so a solve running on a thread holds the GIL for most of its
run and starves the other threads of its process — among them the asks
an :class:`~repro.serving.worker.OptimizerWorker` exists to keep
serving.  :class:`SolverProcess` runs the numerical part of
:func:`~repro.sgp.solver.solve_sgp` in a child interpreter instead, and
the parent's wait for the answer is a blocking pipe read, which
releases the GIL.

- **What moves.**  Only :func:`repro.sgp.solver.run_solve` (the method
  dispatch and the penalty fallback).  The parent compiles the problem,
  opens the ``sgp.solve`` span and records the solver metrics, so the
  caller's instrumentation is the same wherever the solve ran.
- **Routing.**  :func:`installed` routes the ``solve_sgp`` calls made on
  the current thread to one process for the duration of a ``with``
  block.  Every other thread, and every process forked from it (a
  cluster-solve pool), keeps solving in-process.
- **Protocol.**  Requests are pickled ``(problem, options,
  contracts_enabled())`` on the child's stdin; replies are pickled
  ``(ok, payload)`` on its stdout: the :class:`SGPSolution`, or the
  pickled exception plus the child's traceback text.  The child holds
  no state between requests, so a restarted child is just the request
  resent.
- **Lifecycle.**  Constructing a :class:`SolverProcess` starts nothing;
  :meth:`SolverProcess.start` spawns the child and waits for its ready
  message.  A child that dies (EOF or a broken pipe) is respawned once
  and the request resent; a second death raises.  :meth:`SolverProcess.close`
  kills and reaps the child, and an interpreter-exit hook closes a
  started process nobody closed, so no child outlives its parent (nor
  lingers as a zombie until init gets round to reaping orphans).

The child is a :class:`subprocess.Popen` of ``sys.executable``, not a
:mod:`multiprocessing` process: the spawn and forkserver methods start
an extra resource-tracker process that inherits the parent's stdio,
``multiprocessing`` joins non-daemon children at interpreter exit, and
``fork`` from a threaded parent is unsafe.  The child stays in the
parent's session and process group, so a signal to the group reaches
it too; it ignores SIGINT and exits on the EOF of its request pipe.
"""

from __future__ import annotations

import atexit
import contextlib
import os
import pickle
import signal
import subprocess
import sys
import threading
import traceback
from collections.abc import Iterator
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any

from repro.devtools import contracts
from repro.errors import SGPSolverError

if TYPE_CHECKING:  # annotations only; the child imports the solver itself
    from repro.sgp.problem import SGPProblem
    from repro.sgp.solver import SGPSolution

__all__ = ["SolverProcess", "current", "installed", "serve"]

#: The child's first message, sent once its imports are done.
_READY = "repro-sgp-solver-ready"
#: What the child interpreter runs.
_CHILD_CODE = "from repro.sgp.process import serve; serve()"
#: Directory holding the imported ``repro`` package; the child gets it
#: on ``PYTHONPATH`` because the package need not be installed.
_PACKAGE_ROOT = str(Path(__file__).resolve().parents[2])
#: Failures that mean the child is gone: a broken pipe on send, EOF or
#: a truncated reply on receive, or a pipe that close() shut under us.
_CHILD_GONE = (OSError, EOFError, pickle.UnpicklingError, ValueError)

_local = threading.local()


def current() -> "SolverProcess | None":
    """The solver process :func:`installed` on this thread, if any.

    A process forked from this thread inherits the thread-local but not
    the parent's pipes, so there it reads ``None``.
    """
    proc: "SolverProcess | None" = getattr(_local, "process", None)
    if proc is None or proc.owner_pid != os.getpid():
        return None
    return proc


@contextlib.contextmanager
def installed(proc: "SolverProcess") -> Iterator["SolverProcess"]:
    """Route this thread's ``solve_sgp`` calls to ``proc`` inside the block."""
    previous = getattr(_local, "process", None)
    _local.process = proc
    try:
        yield proc
    finally:
        _local.process = previous


class SolverProcess:
    """One child interpreter that solves pickled SGPs on request.

    :meth:`solve` is meant for one thread at a time (the thread the
    process is :func:`installed` on); :meth:`close` may come from any
    thread, including while a solve waits — that solve then raises
    instead of respawning the child.
    """

    def __init__(self) -> None:
        #: The process that may use the pipes.
        self.owner_pid = os.getpid()
        self._child_lock = threading.Lock()
        self._popen: "subprocess.Popen[bytes] | None" = None
        self._closed = False

    @property
    def pid(self) -> "int | None":
        """The running child's process id (``None`` when none runs)."""
        popen = self._popen
        return None if popen is None else popen.pid

    def start(self) -> None:
        """Spawn the child unless one runs; wait until it is ready.

        Raises :class:`~repro.errors.SGPSolverError` when the child
        cannot start or the process was closed.
        """
        self._child()

    def solve(
        self, problem: "SGPProblem", options: "dict[str, Any]"
    ) -> "SGPSolution":
        """``run_solve(problem, **options)`` in the child.

        The problem must be compiled.  An exception the solve raised in
        the child is raised here, with the child's traceback as its
        ``__cause__``; one that cannot be unpickled arrives as
        :class:`~repro.errors.SGPSolverError` carrying that traceback.
        """
        request = pickle.dumps(
            (problem, options, contracts.contracts_enabled()),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        popen = self._child()
        try:
            self._send(popen, request)
            reply = pickle.load(_pipe(popen.stdout))
        except _CHILD_GONE:
            # The child died: respawn it once and resend the request.
            self._discard(popen)
            popen = self._child()
            try:
                self._send(popen, request)
                reply = pickle.load(_pipe(popen.stdout))
            except _CHILD_GONE as exc:
                self._discard(popen)
                raise SGPSolverError(
                    f"solver process died twice on one request: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc
        return _unpack(reply)

    def close(self) -> None:
        """Kill and reap the child, and refuse further solves.  Idempotent.

        A solve waiting on the child (on another thread) then fails
        instead of respawning it.
        """
        with self._child_lock:
            self._closed = True
            popen, self._popen = self._popen, None
        atexit.unregister(self.close)
        if popen is not None:
            _reap(popen)

    # ------------------------------------------------------------------
    def _send(self, popen: "subprocess.Popen[bytes]", request: bytes) -> None:
        stdin = _pipe(popen.stdin)
        stdin.write(request)
        stdin.flush()

    def _child(self) -> "subprocess.Popen[bytes]":
        """The running child, spawned first if there is none."""
        with self._child_lock:
            if self._closed:
                raise SGPSolverError("solver process is closed")
            if self._popen is not None:
                return self._popen
        popen = _spawn()
        with self._child_lock:
            installed_child = not self._closed
            if installed_child:
                self._popen = popen
        if not installed_child:  # closed while the child started
            _reap(popen)
            raise SGPSolverError("solver process is closed")
        atexit.unregister(self.close)
        atexit.register(self.close)
        return popen

    def _discard(self, popen: "subprocess.Popen[bytes]") -> None:
        """Forget and reap a child whose pipes failed."""
        with self._child_lock:
            if self._popen is not popen:
                return  # close() took it and reaps it
            self._popen = None
        _reap(popen)


def _pipe(stream: "IO[bytes] | None") -> "IO[bytes]":
    if stream is None:  # pragma: no cover - every child is spawned with pipes
        raise SGPSolverError("solver process has no pipe")
    return stream


def _spawn() -> "subprocess.Popen[bytes]":
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (_PACKAGE_ROOT, env.get("PYTHONPATH")) if path
    )
    try:
        popen = subprocess.Popen(
            [sys.executable, "-c", _CHILD_CODE],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
        )
    except OSError as exc:
        raise SGPSolverError(f"cannot start the solver process: {exc}") from exc
    try:
        ready = pickle.load(_pipe(popen.stdout))
    except _CHILD_GONE:
        ready = None
    if ready != _READY:
        _reap(popen)
        raise SGPSolverError(
            f"solver process failed to start (exit status {popen.returncode}; "
            f"its stderr has the reason)"
        )
    return popen


def _reap(popen: "subprocess.Popen[bytes]") -> None:
    # The child holds nothing worth a graceful exit: no files, no
    # state between requests.  Killing it is the one way out.
    popen.kill()
    popen.wait()
    for stream in (popen.stdin, popen.stdout):
        with contextlib.suppress(OSError):
            _pipe(stream).close()


def _unpack(reply: "tuple[bool, Any]") -> "SGPSolution":
    ok, payload = reply
    if ok:
        solution: "SGPSolution" = payload
        return solution
    blob, text = payload
    try:
        exc = pickle.loads(blob) if blob is not None else None
    except Exception:  # any unpickling failure: fall back to the text
        exc = None
    cause = SGPSolverError(f"traceback in the solver process:\n{text}")
    if not isinstance(exc, BaseException):
        raise cause
    raise exc from cause


# ----------------------------------------------------------------------
# the child
# ----------------------------------------------------------------------
def serve() -> None:
    """Child entry point: answer solve requests on stdin until its EOF."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    requests = sys.stdin.buffer
    replies = os.fdopen(os.dup(1), "wb")
    # From here on fd 1 is stderr: nothing the solve prints can reach
    # the reply pipe, or the parent's own stdout.
    os.dup2(2, 1)
    from repro.sgp.solver import run_solve

    reply: "tuple[bool, Any] | str" = _READY
    while True:
        try:
            replies.write(pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL))
            replies.flush()
            problem, options, contracts_on = pickle.load(requests)
        except _CHILD_GONE:  # the parent closed the pipes or is gone
            return
        if contracts_on:
            contracts.enable_contracts()
        else:
            contracts.disable_contracts()
        try:
            reply = (True, run_solve(problem, **options))
        except Exception as exc:  # reported to the parent, which re-raises
            reply = (False, _failure(exc))


def _failure(exc: Exception) -> "tuple[bytes | None, str]":
    text = traceback.format_exc()
    try:
        blob: "bytes | None" = pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:  # an unpicklable exception travels as its text
        blob = None
    return blob, text
