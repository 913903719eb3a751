"""Objective functions for the graph-optimization SGPs.

Two ingredients (Sections IV-B and V):

- the *minimal-change* objective (Eq. 12): the squared Euclidean
  distance between the optimized and the original edge weights, which
  regularizes the infinitely many ways of satisfying the constraints
  toward the smallest edit of the graph;
- the *vote-satisfaction* objective (Eq. 17–18): the number of violated
  constraints ``|{d_x > 0}|``, smoothed by replacing the step function
  with the sigmoid ``1 / (1 + e^{−w·d_x})`` (the paper sets ``w = 300``,
  citing Fig. 2 for the approximation quality).

The multi-vote solution minimizes the weighted combination (Eq. 19):
``λ1 · Σ (x − x₀)² + λ2 · Σ sigmoid(w · d_x)``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import SGPModelError
from repro.sgp.problem import SmoothObjective
from repro.sgp.terms import Signomial

#: Paper default sigmoid steepness (Section V, Fig. 2).
DEFAULT_SIGMOID_W = 300.0


def distance_signomial(initial: Sequence[float], var_ids: "Sequence[int] | None" = None) -> Signomial:
    """Eq. 12 as a signomial: ``Σ_i (x_i − x0_i)²`` expanded termwise.

    Parameters
    ----------
    initial:
        The reference weights ``x0`` (one per variable).
    var_ids:
        Variable ids to use; defaults to ``0 .. len(initial)-1``.  The
        multi-vote encoder passes only the edge-variable block so the
        deviation variables stay out of the distance term.

    The single-vote driver sets this form as its objective, which
    compiles to the one-row case of
    :class:`~repro.sgp.terms.CompiledSignomial`;
    :func:`distance_objective` (a direct quadratic) is equivalent and
    cheaper to evaluate, and the multi-vote objective uses it.
    """
    ids = list(var_ids) if var_ids is not None else list(range(len(initial)))
    if len(ids) != len(initial):
        raise SGPModelError(
            f"got {len(initial)} initial values for {len(ids)} variables"
        )
    objective = Signomial()
    for var, value in zip(ids, initial):
        objective.add_term(1.0, {var: 2.0})
        objective.add_term(-2.0 * float(value), {var: 1.0})
        objective.add_term(float(value) * float(value), {})
    return objective


def distance_objective(
    initial: Sequence[float],
    num_vars: int,
    var_ids: "Sequence[int] | None" = None,
) -> SmoothObjective:
    """Eq. 12 as a direct smooth quadratic with analytic gradient."""
    ids = np.asarray(
        list(var_ids) if var_ids is not None else range(len(initial)), dtype=int
    )
    x0 = np.asarray(initial, dtype=float)
    if ids.size != x0.size:
        raise SGPModelError(f"got {x0.size} initial values for {ids.size} variables")
    if ids.size and ids.max() >= num_vars:
        raise SGPModelError(
            f"variable id {ids.max()} outside the problem's {num_vars} variables"
        )
    return SmoothObjective(_Distance(ids, x0, num_vars), name="distance")


# The objective callables are module-level classes rather than closures
# so that a problem carrying them pickles into a solver process
# (:mod:`repro.sgp.process`).
class _Distance:
    """Value and gradient of ``Σ_i (x_ids[i] − x0_i)²``."""

    __slots__ = ("ids", "x0", "num_vars")

    def __init__(self, ids: np.ndarray, x0: np.ndarray, num_vars: int) -> None:
        self.ids = ids
        self.x0 = x0
        self.num_vars = num_vars

    def __call__(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        x = np.asarray(x, dtype=float)
        delta = x[self.ids] - self.x0
        grad = np.zeros(self.num_vars)
        grad[self.ids] = 2.0 * delta
        return float(delta @ delta), grad


def sigmoid(value: "float | np.ndarray", w: float = DEFAULT_SIGMOID_W):
    """The smoothed step ``L(d) = 1 / (1 + e^{−w·d})`` (Eq. 17).

    Evaluated stably for large ``|w·d|`` (no overflow in ``exp``).
    """
    z = np.clip(-w * np.asarray(value, dtype=float), -500.0, 500.0)
    out = 1.0 / (1.0 + np.exp(z))
    if np.isscalar(value) or np.asarray(value).ndim == 0:
        return float(out)
    return out


def step_count(values: Sequence[float]) -> int:
    """The exact (non-smooth) objective of Eq. 16: ``|{d : d > 0}|``."""
    return int(sum(1 for v in values if v > 0))


def sigmoid_deviation_objective(
    deviation_ids: Sequence[int],
    num_vars: int,
    *,
    shift: float = 1.0,
    w: float = DEFAULT_SIGMOID_W,
    weights: "Sequence[float] | None" = None,
) -> SmoothObjective:
    """Eq. 18: ``Σ_d trust_d · sigmoid(w · d)`` over the deviation block.

    The encoder stores each deviation variable *shifted* so the solver
    sees a positive variable: the stored value is ``d' = d + shift``
    (see :mod:`repro.optimize.encoder`).  This objective undoes the
    shift before applying the sigmoid.

    ``weights`` (optional, one per deviation) carry per-vote trust: a
    constraint from a vote of weight 2 counts twice as much toward the
    violation penalty.  Omitted = the paper's unweighted Eq. 18.
    """
    ids = np.asarray(list(deviation_ids), dtype=int)
    if ids.size and ids.max() >= num_vars:
        raise SGPModelError(
            f"deviation id {ids.max()} outside the problem's {num_vars} variables"
        )
    if w <= 0:
        raise SGPModelError(f"sigmoid steepness w must be positive, got {w}")
    if weights is None:
        trust = np.ones(ids.size)
    else:
        trust = np.asarray(list(weights), dtype=float)
        if trust.shape != (ids.size,):
            raise SGPModelError(
                f"got {trust.size} trust weights for {ids.size} deviations"
            )
        if np.any(trust <= 0):
            raise SGPModelError("trust weights must be positive")
    return SmoothObjective(
        _SigmoidDeviation(ids, num_vars, shift, w, trust),
        name="sigmoid-deviation",
    )


class _SigmoidDeviation:
    """Value and gradient of ``Σ_d trust_d · sigmoid(w · (x_d − shift))``."""

    __slots__ = ("ids", "num_vars", "shift", "w", "trust")

    def __init__(
        self,
        ids: np.ndarray,
        num_vars: int,
        shift: float,
        w: float,
        trust: np.ndarray,
    ) -> None:
        self.ids = ids
        self.num_vars = num_vars
        self.shift = shift
        self.w = w
        self.trust = trust

    def __call__(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        x = np.asarray(x, dtype=float)
        grad = np.zeros(self.num_vars)
        if self.ids.size == 0:
            return 0.0, grad
        d = x[self.ids] - self.shift
        values = sigmoid(d, self.w)
        grad[self.ids] = self.trust * self.w * values * (1.0 - values)
        return float(np.sum(self.trust * values)), grad


def combined_objective(
    distance: SmoothObjective,
    deviation: SmoothObjective,
    *,
    lambda1: float = 0.5,
    lambda2: float = 0.5,
) -> SmoothObjective:
    """Eq. 19: ``λ1 · distance + λ2 · deviation``.

    ``λ1`` prefers small graph edits; ``λ2`` prefers satisfying votes.
    The paper's experiments use ``λ1 = λ2 = 0.5``.
    """
    if lambda1 < 0 or lambda2 < 0:
        raise SGPModelError("preference weights must be non-negative")
    return SmoothObjective.weighted_sum(
        [(float(lambda1), distance), (float(lambda2), deviation)],
        name="eq19",
    )
