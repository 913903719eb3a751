"""Signomial geometric programming (SGP) substrate.

Section III-A of the paper casts graph optimization as an SGP (Eq. 2–3):
minimize a signomial objective subject to signomial inequality
constraints over box-bounded positive variables.  The paper solved it
with MATLAB's ``fmincon``; this subpackage provides the equivalent
building blocks in Python:

- :mod:`repro.sgp.terms` — signomial algebra with exact evaluation and
  analytic gradients (compiled to sparse numpy ops for the solver);
- :mod:`repro.sgp.problem` — the problem container;
- :mod:`repro.sgp.solver` — ``scipy.optimize`` based solvers (SLSQP and
  trust-constr) plus a penalty-method fallback;
- :mod:`repro.sgp.process` — a child process that runs those solvers
  for an optimizer worker, off its process's GIL;
- :mod:`repro.sgp.condensation` — the classic iterative monomial
  condensation heuristic for signomial programs, used as an ablation
  solver.
"""

from repro.sgp.terms import CompiledSignomial, Signomial
from repro.sgp.problem import SGPProblem, SmoothObjective
from repro.sgp.solver import SGPSolution, solve_sgp
from repro.sgp.condensation import solve_by_condensation

__all__ = [
    "Signomial",
    "CompiledSignomial",
    "SGPProblem",
    "SmoothObjective",
    "SGPSolution",
    "solve_sgp",
    "solve_by_condensation",
]
