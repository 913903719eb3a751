"""Unit tests for the SGP problem container and solvers."""

import numpy as np
import pytest

from repro.errors import SGPModelError
from repro.sgp import SGPProblem, Signomial, SmoothObjective, solve_sgp
from repro.sgp.solver import _solve_penalty


def distance_objective(x0):
    """Eq. 12: sum of squared deviations from x0, as a signomial."""
    objective = Signomial()
    for var, value in enumerate(x0):
        objective.add_term(1.0, {var: 2.0})
        objective.add_term(-2.0 * value, {var: 1.0})
        objective.add_term(value * value, {})
    return objective


def simple_problem():
    """Push x0 above x1 while staying close to the start point.

    Start at x = (0.2, 0.4); constraint x1 − x0 ≤ −0.05; objective
    ‖x − x0_start‖².  The optimum moves both weights toward each other:
    x* ≈ (0.325, 0.275).
    """
    problem = SGPProblem([0.2, 0.4], lower=0.01, upper=1.0)
    constraint = Signomial.variable(1) - Signomial.variable(0)
    problem.add_constraint(constraint, name="beat", margin=0.05)
    problem.set_objective(distance_objective([0.2, 0.4]))
    return problem


class TestSGPProblem:
    def test_basic_properties(self):
        problem = simple_problem()
        assert problem.num_vars == 2
        assert problem.num_constraints == 1

    def test_initial_point_clipped_into_bounds(self):
        problem = SGPProblem([0.0001, 2.0], lower=0.01, upper=1.0)
        assert problem.x0[0] == 0.01
        assert problem.x0[1] == 1.0

    def test_invalid_bounds(self):
        with pytest.raises(SGPModelError):
            SGPProblem([0.5], lower=0.0)
        with pytest.raises(SGPModelError):
            SGPProblem([0.5], lower=0.9, upper=0.1)

    def test_empty_initial_rejected(self):
        with pytest.raises(SGPModelError):
            SGPProblem([])

    def test_constraint_variable_out_of_range(self):
        problem = SGPProblem([0.5, 0.5])
        with pytest.raises(SGPModelError):
            problem.add_constraint(Signomial.variable(7))

    def test_negative_margin_rejected(self):
        problem = SGPProblem([0.5])
        with pytest.raises(SGPModelError):
            problem.add_constraint(Signomial.variable(0), margin=-0.1)

    def test_objective_required(self):
        problem = SGPProblem([0.5])
        with pytest.raises(SGPModelError):
            _ = problem.objective
        with pytest.raises(SGPModelError):
            solve_sgp(problem)

    def test_bad_objective_type(self):
        problem = SGPProblem([0.5])
        with pytest.raises(SGPModelError):
            problem.set_objective("not an objective")

    def test_constraint_values_and_satisfaction(self):
        problem = simple_problem()
        infeasible = np.array([0.2, 0.4])
        feasible = np.array([0.4, 0.2])
        assert problem.constraint_values(infeasible)[0] > 0
        assert problem.num_satisfied(infeasible) == 0
        assert problem.num_satisfied(feasible) == 1
        assert problem.is_feasible(feasible)
        assert not problem.is_feasible(infeasible)

    def test_is_feasible_checks_bounds(self):
        problem = simple_problem()
        out_of_box = np.array([1.5, 0.1])
        assert not problem.is_feasible(out_of_box)


class TestSmoothObjective:
    def test_from_signomial(self):
        sig = distance_objective([0.5])
        objective = SmoothObjective.from_signomial(sig, 1)
        value, grad = objective.value_and_grad(np.array([0.7]))
        assert value == pytest.approx(0.04)
        assert grad[0] == pytest.approx(2 * 0.2)

    def test_weighted_sum(self):
        a = SmoothObjective(lambda x: (float(x[0]), np.array([1.0])))
        b = SmoothObjective(lambda x: (float(x[0] ** 2), np.array([2.0 * x[0]])))
        combo = SmoothObjective.weighted_sum([(2.0, a), (0.5, b)])
        value, grad = combo.value_and_grad(np.array([3.0]))
        assert value == pytest.approx(2 * 3 + 0.5 * 9)
        assert grad[0] == pytest.approx(2 * 1 + 0.5 * 6)

    def test_weighted_sum_empty_rejected(self):
        with pytest.raises(SGPModelError):
            SmoothObjective.weighted_sum([])


def solve_by_penalty(problem):
    """The penalty fallback on its own, as ``solve_sgp`` runs it after a
    failed SLSQP solve."""
    return _solve_penalty(problem, max_iter=200, tol=1e-9)


@pytest.mark.parametrize("solve", [solve_sgp, solve_by_penalty], ids=["slsqp", "penalty"])
class TestSolvers:
    def test_satisfies_constraint(self, solve):
        problem = simple_problem()
        solution = solve(problem)
        assert solution.all_satisfied
        assert solution.x[0] - solution.x[1] >= 0.05 - 1e-6

    def test_moves_minimally(self, solve):
        problem = simple_problem()
        solution = solve(problem)
        # The optimum splits the 0.25 gap symmetrically.
        assert solution.x[0] == pytest.approx(0.325, abs=0.01)
        assert solution.x[1] == pytest.approx(0.275, abs=0.01)
        assert solution.objective_value == pytest.approx(2 * 0.125**2, abs=1e-3)

    def test_respects_bounds(self, solve):
        problem = SGPProblem([0.5], lower=0.3, upper=0.6)
        # Constraint pushes x down: x <= 0.1 is unreachable inside bounds.
        problem.add_constraint(Signomial.variable(0) - 0.1)
        problem.set_objective(distance_objective([0.5]))
        solution = solve(problem)
        assert 0.3 - 1e-9 <= solution.x[0] <= 0.6 + 1e-9

    def test_no_constraints(self, solve):
        problem = SGPProblem([0.4, 0.6])
        problem.set_objective(distance_objective([0.4, 0.6]))
        solution = solve(problem)
        assert solution.x == pytest.approx(np.array([0.4, 0.6]), abs=1e-6)
        assert solution.objective_value == pytest.approx(0.0, abs=1e-9)


class TestSolverEdgeCases:
    def test_solution_reports_method_and_time(self):
        solution = solve_sgp(simple_problem())
        assert solution.method in {"slsqp", "slsqp+penalty"}
        assert solution.elapsed >= 0.0

    def test_conflicting_constraints_partial_satisfaction(self):
        """x0 > x1 and x1 > x0 cannot both hold; the solver reports it."""
        problem = SGPProblem([0.5, 0.5], lower=0.01, upper=1.0)
        problem.add_constraint(
            Signomial.variable(1) - Signomial.variable(0), margin=0.05
        )
        problem.add_constraint(
            Signomial.variable(0) - Signomial.variable(1), margin=0.05
        )
        problem.set_objective(distance_objective([0.5, 0.5]))
        solution = solve_sgp(problem)
        assert solution.num_satisfied < 2
