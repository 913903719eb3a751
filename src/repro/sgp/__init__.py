"""Signomial geometric programming (SGP) substrate.

Section III-A of the paper casts graph optimization as an SGP (Eq. 2–3):
minimize a signomial objective subject to signomial inequality
constraints over box-bounded positive variables.  The paper solved it
with MATLAB's ``fmincon``; this subpackage provides the equivalent
building blocks in Python:

- :mod:`repro.sgp.terms` — signomial algebra with exact evaluation and
  analytic gradients, compiled into one stacked block of sparse numpy
  ops for the solver;
- :mod:`repro.sgp.problem` — the problem container;
- :mod:`repro.sgp.solver` — the one solve path: ``scipy.optimize``'s
  SLSQP with a quadratic-penalty fallback;
- :mod:`repro.sgp.process` — a child process that runs that solve for
  an optimizer worker, off its process's GIL.
"""

from repro.sgp.terms import CompiledSignomial, Signomial
from repro.sgp.problem import SGPProblem, SmoothObjective
from repro.sgp.solver import SGPSolution, solve_sgp

__all__ = [
    "Signomial",
    "CompiledSignomial",
    "SGPProblem",
    "SmoothObjective",
    "SGPSolution",
    "solve_sgp",
]
