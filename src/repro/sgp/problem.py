"""The SGP problem container.

An SGP instance (Eq. 2) is

    minimize    f_0(x)
    subject to  f_i(x) ≤ 0,   i = 1..m
                0 < x_l ≤ x ≤ x_u

with each ``f_i`` a signomial.  (The paper writes ``f_i(x) ≤ 1``; the
two forms are interchangeable — our encoder produces difference-form
constraints ``S_other − S_best < 0`` directly, so ``≤ 0`` is the natural
normal form here.)

The objective is either a :class:`~repro.sgp.terms.Signomial` (the
single-vote distance objective, Eq. 12) or a :class:`SmoothObjective`
(the multi-vote objective, Eq. 19, whose sigmoid term is smooth but not
signomial).  Everything is compiled before handing to the solver: the
constraints into one stacked block (:meth:`SGPProblem.compile`), a
signomial objective into the one-row case.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.devtools.contracts import check_weight_bounds
from repro.errors import SGPModelError
from repro.sgp.terms import CompiledSignomial, Signomial


class SmoothObjective:
    """A smooth objective given by a joint value-and-gradient callable.

    Parameters
    ----------
    fn:
        ``fn(x) -> (value, gradient)`` with a dense gradient the same
        length as ``x``.  A problem solved in a solver process
        (:mod:`repro.sgp.process`) travels pickled, so there ``fn`` must
        pickle: a module-level function, a callable instance of a
        module-level class, or a bound method — not a closure.
    name:
        Label used in solver diagnostics.
    """

    def __init__(self, fn: Callable[[np.ndarray], tuple[float, np.ndarray]],
                 name: str = "objective") -> None:
        self._fn = fn
        self.name = name

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """Evaluate the objective and its gradient at ``x``."""
        value, grad = self._fn(x)
        return float(value), np.asarray(grad, dtype=float)

    def value(self, x: np.ndarray) -> float:
        """Objective value only."""
        return self.value_and_grad(x)[0]

    @classmethod
    def from_signomial(cls, signomial: Signomial, num_vars: int,
                       name: str = "signomial") -> "SmoothObjective":
        """Wrap a compiled signomial as a smooth objective."""
        compiled = signomial.compile(num_vars)
        return cls(compiled.value_and_grad, name=name)

    @classmethod
    def weighted_sum(
        cls,
        components: Sequence[tuple[float, "SmoothObjective"]],
        name: str = "weighted-sum",
    ) -> "SmoothObjective":
        """The objective ``Σ λ_i · f_i`` (Eq. 19 combines two components)."""
        if not components:
            raise SGPModelError("weighted_sum needs at least one component")
        return cls(_WeightedSum(components), name=name)


class _WeightedSum:
    """Value and gradient of ``Σ λ_i · f_i``.

    A module-level callable rather than a closure so that a problem
    carrying it pickles into a solver process
    (:mod:`repro.sgp.process`).
    """

    __slots__ = ("components",)

    def __init__(
        self, components: Sequence[tuple[float, SmoothObjective]]
    ) -> None:
        self.components = tuple(components)

    def __call__(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        total = 0.0
        grad = np.zeros_like(np.asarray(x, dtype=float))
        for weight, component in self.components:
            value, g = component.value_and_grad(x)
            total += weight * value
            grad += weight * g
        return total, grad


@dataclass
class Constraint:
    """One inequality ``f(x) + margin ≤ 0``.

    ``margin`` turns the paper's strict inequalities (Eq. 11) into
    numerically meaningful non-strict ones: requiring
    ``S_other − S_best ≤ −margin`` forces the best answer to win by a
    detectable gap rather than by an infinitesimal the ranking code
    would lose to float noise.
    """

    signomial: Signomial
    name: str = "constraint"
    margin: float = 0.0


class SGPProblem:
    """A box-bounded signomial program.

    Parameters
    ----------
    initial:
        Starting point ``x_0`` (current edge weights; Algorithm 1 lines
        5–8).  Also defines the number of variables.
    lower, upper:
        Box bounds ``x_l``/``x_u``; scalars broadcast.  Both must be
        strictly positive (GP variables live on the positive orthant),
        and the paper's weight bounds keep every weight a valid
        probability.
    """

    def __init__(
        self,
        initial: Sequence[float],
        *,
        lower: "float | Sequence[float]" = 1e-6,
        upper: "float | Sequence[float]" = 1.0,
    ) -> None:
        self.x0 = np.asarray(initial, dtype=float)
        if self.x0.ndim != 1 or self.x0.size == 0:
            raise SGPModelError("initial point must be a non-empty 1-D sequence")
        n = self.x0.size
        self.lower = np.broadcast_to(np.asarray(lower, dtype=float), (n,)).copy()
        self.upper = np.broadcast_to(np.asarray(upper, dtype=float), (n,)).copy()
        if np.any(self.lower <= 0):
            raise SGPModelError("lower bounds must be strictly positive")
        if np.any(self.lower > self.upper):
            raise SGPModelError("lower bounds must not exceed upper bounds")
        # Clip the starting point into the box: current graph weights can
        # sit exactly on (or just outside) a bound after normalization.
        self.x0 = np.clip(self.x0, self.lower, self.upper)
        # Contract seam (Eq. 2): the clipped start satisfies the box.
        check_weight_bounds(
            self.x0, self.lower, self.upper, seam="sgp.problem"
        )
        self.constraints: list[Constraint] = []
        self._objective: "SmoothObjective | None" = None
        self._compiled: "CompiledSignomial | None" = None
        self._margins = np.zeros(0)

    @property
    def num_vars(self) -> int:
        """Number of variables."""
        return int(self.x0.size)

    @property
    def num_constraints(self) -> int:
        """Number of inequality constraints."""
        return len(self.constraints)

    def add_constraint(
        self, signomial: Signomial, *, name: str = "", margin: float = 0.0
    ) -> Constraint:
        """Add ``signomial(x) + margin ≤ 0``; returns the record."""
        if margin < 0:
            raise SGPModelError(f"margin must be non-negative, got {margin}")
        used = signomial.variables()
        if used and max(used) >= self.num_vars:
            raise SGPModelError(
                f"constraint uses variable {max(used)} outside the problem's "
                f"{self.num_vars} variables"
            )
        constraint = Constraint(
            signomial=signomial,
            name=name or f"c{len(self.constraints)}",
            margin=float(margin),
        )
        self.constraints.append(constraint)
        return constraint

    def set_objective(self, objective: "Signomial | SmoothObjective") -> None:
        """Set the objective (a signomial or any smooth objective)."""
        if isinstance(objective, Signomial):
            self._objective = SmoothObjective.from_signomial(
                objective, self.num_vars
            )
        elif isinstance(objective, SmoothObjective):
            self._objective = objective
        else:
            raise SGPModelError(
                f"objective must be a Signomial or SmoothObjective, got "
                f"{type(objective).__name__}"
            )

    @property
    def objective(self) -> SmoothObjective:
        """The smooth objective; raises when unset."""
        if self._objective is None:
            raise SGPModelError("no objective has been set")
        return self._objective

    def compile(self) -> CompiledSignomial:
        """The constraints stacked into one compiled block, row ``i`` for
        constraint ``i``.

        Built on first use and rebuilt only when constraints were added
        since; the block travels with the problem when it is pickled.
        """
        if self._compiled is None or self._compiled.num_rows != len(self.constraints):
            self._compiled = CompiledSignomial(
                [c.signomial for c in self.constraints], self.num_vars
            )
            self._margins = np.array([c.margin for c in self.constraints], dtype=float)
        return self._compiled

    @property
    def margins(self) -> np.ndarray:
        """Per-constraint margins, in constraint order."""
        self.compile()
        return self._margins

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def constraint_values(self, x: np.ndarray) -> np.ndarray:
        """Vector of ``f_i(x) + margin_i`` (feasible entries are ≤ 0)."""
        return self.compile().values(x) + self._margins

    def num_satisfied(self, x: np.ndarray, *, tol: float = 1e-9) -> int:
        """How many constraints hold at ``x`` (within ``tol``)."""
        if not self.constraints:
            return 0
        return int((self.constraint_values(x) <= tol).sum())

    def is_feasible(self, x: np.ndarray, *, tol: float = 1e-9) -> bool:
        """Whether every constraint and bound holds at ``x``."""
        x = np.asarray(x, dtype=float)
        if np.any(x < self.lower - tol) or np.any(x > self.upper + tol):
            return False
        return self.num_satisfied(x, tol=tol) == self.num_constraints

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<SGPProblem vars={self.num_vars} constraints={self.num_constraints}>"
        )
