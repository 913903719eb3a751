"""The SGP solver: SLSQP with a quadratic-penalty fallback.

The paper solves its programs with MATLAB's ``fmincon`` (Section VII-A3);
the Python analogue is :func:`scipy.optimize.minimize` with SLSQP, which
handles smooth nonlinear objectives, nonlinear inequality constraints,
and box bounds.  A quadratic-penalty fallback handles the cases where an
SQP step fails (singular working sets are common when many walk terms
share edges): it folds constraint violations into the objective with an
increasing penalty weight and needs only L-BFGS-B.

Both evaluate the constraints through the problem's stacked compiled
block (:meth:`~repro.sgp.problem.SGPProblem.compile`): one vector-valued
constraint whose values and Jacobian take a handful of numpy calls
whatever the number of constraints, so a program with hundreds of
constraints and thousands of walk terms per constraint stays tractable.

:func:`solve_sgp` keeps compilation and telemetry in the caller's
process; its numerical part, :func:`run_solve`, runs in a solver child
process when the calling thread installed one (:mod:`repro.sgp.process`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np
from scipy import optimize

from repro.devtools.contracts import check_weight_bounds
from repro.obs import get_registry, trace_span
from repro.sgp import process
from repro.sgp.problem import SGPProblem


@dataclass
class SGPSolution:
    """Result of an SGP solve.

    Attributes
    ----------
    x:
        The returned point (always clipped into the box bounds).
    objective_value:
        Objective at ``x``.
    num_satisfied / num_constraints:
        Constraint satisfaction census at ``x`` — the multi-vote
        formulation *expects* partial satisfaction when votes conflict,
        so a solution is not discarded merely because some constraints
        fail.
    success:
        Whether the underlying solver reported success.
    method:
        Which path produced the point: ``slsqp``, or ``slsqp+penalty``
        when the penalty fallback replaced a failed SLSQP solve.
    message:
        Solver diagnostic text.
    elapsed:
        Wall-clock seconds spent in the solver.
    """

    x: np.ndarray
    objective_value: float
    num_satisfied: int
    num_constraints: int
    success: bool
    method: str
    message: str = ""
    elapsed: float = 0.0
    nit: int = 0
    extras: dict = field(default_factory=dict)

    @property
    def all_satisfied(self) -> bool:
        """Whether every constraint holds at the solution."""
        return self.num_satisfied == self.num_constraints

    @property
    def max_residual(self) -> float:
        """Largest constraint violation ``max_i f_i(x) + margin_i`` at the
        solution (≤ 0 means fully feasible; 0.0 for unconstrained
        programs)."""
        return float(self.extras.get("max_residual", 0.0))


def _finalize(problem: SGPProblem, x: np.ndarray, *, success: bool, method: str,
               message: str, elapsed: float, nit: int) -> SGPSolution:
    x = np.clip(np.asarray(x, dtype=float), problem.lower, problem.upper)
    # Contract seam (Eq. 2): the returned point is inside the box.
    check_weight_bounds(x, problem.lower, problem.upper, seam=f"sgp.solve[{method}]")
    value = problem.objective.value(x)
    # Evaluate the constraint vector once and derive both the
    # satisfaction census and the residual telemetry from it.
    if problem.constraints:
        residuals = problem.constraint_values(x)
        num_satisfied = int((residuals <= 1e-9).sum())
        max_residual = float(residuals.max())
    else:
        num_satisfied = 0
        max_residual = 0.0
    return SGPSolution(
        x=x,
        objective_value=float(value),
        num_satisfied=num_satisfied,
        num_constraints=problem.num_constraints,
        success=success,
        method=method,
        message=message,
        elapsed=elapsed,
        nit=nit,
        extras={"max_residual": max_residual},
    )


def _solve_slsqp(problem: SGPProblem, *, max_iter: int, tol: float) -> SGPSolution:
    start = time.perf_counter()
    objective = problem.objective
    block = problem.compile()
    margins = problem.margins

    def fun(x: np.ndarray) -> tuple[float, np.ndarray]:
        return objective.value_and_grad(x)

    # One vector-valued constraint, ``-(f(x) + margin) ≥ 0`` row-wise.
    constraints: tuple[dict[str, Any], ...] = ()
    if block.num_rows:
        constraints = ({
            "type": "ineq",
            "fun": lambda x: -(block.values(x) + margins),
            "jac": lambda x: -block.jacobian(x),
        },)
    result = optimize.minimize(
        fun,
        problem.x0,
        jac=True,
        method="SLSQP",
        bounds=optimize.Bounds(problem.lower, problem.upper),
        constraints=constraints,
        options={"maxiter": max_iter, "ftol": tol},
    )
    return _finalize(
        problem,
        result.x,
        success=bool(result.success),
        method="slsqp",
        message=str(result.message),
        elapsed=time.perf_counter() - start,
        nit=int(result.get("nit", 0)),
    )


def _solve_penalty(
    problem: SGPProblem,
    *,
    max_iter: int,
    tol: float,
    initial_penalty: float = 10.0,
    penalty_growth: float = 10.0,
    rounds: int = 6,
    margin_slack: float = 1e-6,
) -> SGPSolution:
    """Quadratic-penalty method: unconstrained solves with growing ρ.

    Margins are inflated by ``margin_slack`` during the solve: a pure
    quadratic penalty converges to the constraint boundary from the
    infeasible side, so aiming slightly past the true margin makes the
    returned point strictly feasible with respect to the real one.
    """
    start = time.perf_counter()
    objective = problem.objective
    block = problem.compile()
    margins = problem.margins + margin_slack

    x = problem.x0.copy()
    rho = initial_penalty
    total_nit = 0
    message = "penalty method"
    for _ in range(rounds):
        def fun(x: np.ndarray, _rho: float = rho) -> tuple[float, np.ndarray]:
            value, grad = objective.value_and_grad(x)
            terms = block.term_values(x)
            violations = block.values(x, terms) + margins
            violated = np.flatnonzero(violations > 0.0)
            if violated.size:
                rows = block.jacobian(x, terms, rows=violated)
                # Constraint order, one row at a time: a vectorized sum
                # would round differently.
                for violation, row in zip(violations[violated].tolist(), rows):
                    value += _rho * violation * violation
                    grad = grad + (2.0 * _rho * violation) * row
            return value, grad

        result = optimize.minimize(
            fun,
            x,
            jac=True,
            method="L-BFGS-B",
            bounds=optimize.Bounds(problem.lower, problem.upper),
            options={"maxiter": max_iter, "ftol": tol * 1e-3},
        )
        x = np.clip(result.x, problem.lower, problem.upper)
        total_nit += int(result.get("nit", 0))
        if problem.num_satisfied(x) == problem.num_constraints:
            message = "penalty method: all constraints satisfied"
            break
        rho *= penalty_growth
    return _finalize(
        problem,
        x,
        success=True,
        method="penalty",
        message=message,
        elapsed=time.perf_counter() - start,
        nit=total_nit,
    )


def solve_sgp(
    problem: SGPProblem,
    *,
    max_iter: int = 200,
    tol: float = 1e-9,
) -> SGPSolution:
    """Solve an :class:`SGPProblem` with SLSQP and the penalty fallback.

    Parameters
    ----------
    problem:
        The program; its objective must be set.
    max_iter, tol:
        Iteration cap and tolerance for the underlying scipy solver.

    When SLSQP fails *and* leaves constraints unsatisfied, the penalty
    method re-solves from the start point and its result replaces
    SLSQP's when it satisfies at least as many constraints (ties go to
    the smaller objective); the solution's ``method`` then reads
    ``"slsqp+penalty"``.

    The numerical part (:func:`run_solve`) runs in the solver process
    installed on the calling thread, if there is one (an optimizer
    worker's thread, see :mod:`repro.sgp.process`), and in this process
    otherwise.  Compilation, the ``sgp.solve`` span and the solver
    metrics stay in this process either way.

    Raises
    ------
    SGPModelError
        For problems without an objective.
    SGPSolverError
        When the solver process dies twice on one request.
    """
    problem.compile()
    problem.objective  # raises early when unset
    with trace_span(
        "sgp.solve",
        num_vars=problem.num_vars,
        num_constraints=problem.num_constraints,
    ) as span:
        options: dict[str, Any] = {"max_iter": max_iter, "tol": tol}
        child = process.current()
        if child is None:
            solution = run_solve(problem, **options)
        else:
            solution = child.solve(problem, options)
        span.set_attrs(
            resolved_method=solution.method,
            nit=solution.nit,
            num_satisfied=solution.num_satisfied,
            max_residual=solution.max_residual,
            success=solution.success,
        )
    _record_solve_metrics(solution)
    return solution


def run_solve(problem: SGPProblem, *, max_iter: int, tol: float) -> SGPSolution:
    """SLSQP and the penalty fallback: the numerical part of :func:`solve_sgp`.

    ``problem`` arrives compiled.  Runs unchanged in the calling process
    or in a solver process.
    """
    solution = _solve_slsqp(problem, max_iter=max_iter, tol=tol)
    if not solution.success and not solution.all_satisfied:
        retry = _solve_penalty(problem, max_iter=max_iter, tol=tol)
        if (retry.num_satisfied, -retry.objective_value) >= (
            solution.num_satisfied,
            -solution.objective_value,
        ):
            retry.method = "slsqp+penalty"
            retry.elapsed += solution.elapsed
            solution = retry
    return solution


def _record_solve_metrics(solution: SGPSolution) -> None:
    """Registry telemetry for one finished solve."""
    registry = get_registry()
    registry.counter("sgp_solves_total", method=solution.method).inc()
    registry.histogram("sgp_solve_seconds").observe(solution.elapsed)
    registry.counter("sgp_iterations_total").inc(max(solution.nit, 0))
    if "+penalty" in solution.method:
        registry.counter("sgp_fallbacks_total").inc()
    if not solution.all_satisfied:
        registry.counter("sgp_partial_solutions_total").inc()
