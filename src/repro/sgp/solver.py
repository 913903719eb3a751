"""SGP solvers built on :mod:`scipy.optimize`.

The paper solves its programs with MATLAB's ``fmincon`` (Section VII-A3);
the closest Python analogue is :func:`scipy.optimize.minimize` with the
SLSQP or trust-constr methods, both of which handle smooth nonlinear
objectives, nonlinear inequality constraints, and box bounds.  A
quadratic-penalty fallback handles the cases where an SQP step fails
(singular working sets are common when many walk terms share edges):
it folds constraint violations into the objective with an increasing
penalty weight and needs only L-BFGS-B.

All methods evaluate constraints and gradients through the compiled
signomial forms, so a program with hundreds of constraints and thousands
of walk terms per constraint stays tractable.

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
from repro.errors import SGPSolverError
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
        Which method produced the point (``slsqp``, ``trust-constr``,
        ``penalty``, or ``slsqp+penalty`` when the fallback fired).
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


def _scipy_constraints(problem: SGPProblem) -> list[dict]:
    """SLSQP-style constraint dicts: ``fun(x) ≥ 0`` per constraint."""
    constraints = []
    for record in problem.constraints:
        compiled = record.compiled
        margin = record.margin

        def fun(x, _c=compiled, _m=margin):
            return -(_c.value(x) + _m)

        def jac(x, _c=compiled):
            return -_c.grad(x)

        constraints.append({"type": "ineq", "fun": fun, "jac": jac})
    return constraints


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

    def fun(x):
        return objective.value_and_grad(x)

    result = optimize.minimize(
        fun,
        problem.x0,
        jac=True,
        method="SLSQP",
        bounds=optimize.Bounds(problem.lower, problem.upper),
        constraints=_scipy_constraints(problem),
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


def _solve_trust_constr(problem: SGPProblem, *, max_iter: int, tol: float) -> SGPSolution:
    start = time.perf_counter()
    objective = problem.objective

    nonlinear = []
    if problem.constraints:
        compiled = [c.compiled for c in problem.constraints]
        margins = np.array([c.margin for c in problem.constraints])

        def fun(x):
            return np.array([c.value(x) for c in compiled]) + margins

        def jac(x):
            return np.vstack([c.grad(x) for c in compiled])

        nonlinear.append(
            optimize.NonlinearConstraint(fun, -np.inf, 0.0, jac=jac)
        )

    result = optimize.minimize(
        lambda x: objective.value_and_grad(x),
        problem.x0,
        jac=True,
        method="trust-constr",
        bounds=optimize.Bounds(problem.lower, problem.upper),
        constraints=nonlinear,
        options={"maxiter": max_iter, "gtol": tol, "xtol": tol},
    )
    return _finalize(
        problem,
        result.x,
        success=bool(result.success),
        method="trust-constr",
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
    compiled = [c.compiled for c in problem.constraints]
    margins = [c.margin + margin_slack for c in problem.constraints]

    x = problem.x0.copy()
    rho = initial_penalty
    total_nit = 0
    message = "penalty method"
    for _ in range(rounds):
        def fun(x, _rho=rho):
            value, grad = objective.value_and_grad(x)
            for c, margin in zip(compiled, margins):
                c_value, c_grad = c.value_and_grad(x)
                violation = c_value + margin
                if violation > 0.0:
                    value += _rho * violation * violation
                    grad = grad + (2.0 * _rho * violation) * c_grad
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
    method: str = "slsqp",
    max_iter: int = 200,
    tol: float = 1e-9,
    fallback: bool = True,
) -> SGPSolution:
    """Solve an :class:`SGPProblem`.

    Parameters
    ----------
    problem:
        The program; its objective must be set.
    method:
        ``"slsqp"`` (default, fastest), ``"trust-constr"`` (more robust
        on ill-conditioned programs), or ``"penalty"``.
    max_iter, tol:
        Iteration cap and tolerance for the underlying scipy solver.
    fallback:
        When true and an SQP-family solve fails *and* leaves constraints
        unsatisfied, re-solve with the penalty method starting from the
        failed point's better of {x0, x}.  The solution's ``method``
        field records ``"<method>+penalty"`` in that case.

    The numerical part (:func:`run_solve`) runs in the solver process
    installed on the calling thread, if there is one (an optimizer
    worker's thread, see :mod:`repro.sgp.process`), and in this process
    otherwise.  Compilation, the ``sgp.solve`` span and the solver
    metrics stay in this process either way.

    Raises
    ------
    SGPSolverError
        For unknown methods or problems without an objective, or when
        the solver process dies twice on one request.
    """
    problem.compile()
    problem.objective  # raises early when unset
    with trace_span(
        "sgp.solve",
        method=method,
        num_vars=problem.num_vars,
        num_constraints=problem.num_constraints,
    ) as span:
        options: dict[str, Any] = {
            "method": method,
            "max_iter": max_iter,
            "tol": tol,
            "fallback": fallback,
        }
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


def run_solve(
    problem: SGPProblem,
    *,
    method: str,
    max_iter: int,
    tol: float,
    fallback: bool,
) -> SGPSolution:
    """The method dispatch and penalty fallback of :func:`solve_sgp`.

    ``problem`` arrives compiled.  Runs unchanged in the calling process
    or in a solver process.
    """
    if method == "slsqp":
        solution = _solve_slsqp(problem, max_iter=max_iter, tol=tol)
    elif method == "trust-constr":
        solution = _solve_trust_constr(problem, max_iter=max_iter, tol=tol)
    elif method == "penalty":
        solution = _solve_penalty(problem, max_iter=max_iter, tol=tol)
    else:
        raise SGPSolverError(
            f"unknown method {method!r}; expected 'slsqp', 'trust-constr', "
            f"or 'penalty'"
        )

    if (
        fallback
        and method != "penalty"
        and not solution.success
        and not solution.all_satisfied
    ):
        retry = _solve_penalty(problem, max_iter=max_iter, tol=tol)
        if (retry.num_satisfied, -retry.objective_value) >= (
            solution.num_satisfied,
            -solution.objective_value,
        ):
            retry.method = f"{solution.method}+penalty"
            retry.elapsed += solution.elapsed
            solution = retry
    return solution


def _record_solve_metrics(solution: SGPSolution) -> None:
    """Registry telemetry for one finished solve (any method)."""
    registry = get_registry()
    registry.counter("sgp_solves_total", method=solution.method).inc()
    registry.histogram("sgp_solve_seconds").observe(solution.elapsed)
    registry.counter("sgp_iterations_total").inc(max(solution.nit, 0))
    if "+penalty" in solution.method:
        registry.counter("sgp_fallbacks_total").inc()
    if not solution.all_satisfied:
        registry.counter("sgp_partial_solutions_total").inc()
