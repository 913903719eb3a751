"""Objective callables for the solver-process tests.

Defined in an importable module, not in the test file, because a solver
child unpickles them by module path.  Not a test module.
"""

import numpy as np

from repro.devtools.contracts import contracts_enabled
from repro.errors import SGPSolverError


class TwoArgError(Exception):
    """Pickles as ``(cls, (message,))``, so unpickling it raises.

    ``__init__`` takes two arguments but passes one message on, the
    shape of many hand-written exceptions.
    """

    def __init__(self, left, right):
        super().__init__(f"{left}/{right}")


class RaisesTwoArgError:
    """An objective that raises :class:`TwoArgError` when evaluated."""

    def __call__(self, x):
        raise TwoArgError("left", "right")


class RaisesSolverError:
    """An objective that raises :class:`SGPSolverError` when evaluated."""

    def __call__(self, x):
        raise SGPSolverError("the probe objective gave up")


class ContractsProbe:
    """An objective whose value is the evaluating process's contracts switch."""

    def __call__(self, x):
        return float(contracts_enabled()), np.zeros_like(x)
