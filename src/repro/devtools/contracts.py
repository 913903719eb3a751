"""Runtime invariant/contract checks for the paper's core guarantees.

The reproduction's correctness rests on a handful of numeric invariants
that no unit test watches continuously:

- **row-stochasticity** (Eq. 7–9): after ``NormalizeEdges``, every
  touched node's knowledge-graph out-weights sum back to their recorded
  reference mass;
- **box bounds** (Eq. 2): SGP iterates and solutions satisfy
  ``0 < x_l ≤ x ≤ x_u``;
- **posynomial validity** (Eq. 2–3): the condensation solver only ever
  condenses genuine posynomials (all coefficients positive and finite);
- **deviation sanity** (Eq. 15): deviation variables are finite and
  bounded, so the sigmoid objective stays in its informative regime;
- **patch completeness**: every publish leaves no write unannounced.

This module turns those implicit invariants into *assertable contracts*
installed at the seams (after normalization, after engine weight
patches and publishes, on SGP construction, after each solve).  Contracts are **off
by default** — every check starts with a single truthiness test on a
module-level flag, so production pays one attribute load per seam and
nothing else.  The whole test suite runs with contracts on (see
``tests/conftest.py``), and any run can opt in with ``REPRO_CONTRACTS=1``
or :func:`enable_contracts`.

A failed contract raises :class:`ContractViolation` (a
:class:`~repro.errors.ReproError`), naming the seam and the offending
values — the bug surfaces where it is introduced, not three layers
later as a mysteriously wrong ranking.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable, Iterable, Mapping
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import ReproError

if TYPE_CHECKING:  # import cycle: graph modules install these contracts
    from scipy import sparse

    from repro.graph.digraph import Node, WeightedDiGraph
    from repro.sgp.terms import Signomial

__all__ = [
    "ContractViolation",
    "contracts_enabled",
    "enable_contracts",
    "disable_contracts",
    "check_row_stochastic",
    "check_weight_bounds",
    "check_posynomial",
    "check_monotone_deviations",
    "check_finite_csr_data",
    "check_same_csr",
    "check_delta_scores",
    "check_push_scores",
]

#: Default tolerance for mass-conservation comparisons; generous enough
#: for accumulated float error over thousands of edges, far below any
#: semantically meaningful drift.
MASS_TOL = 1e-6

#: Default tolerance on box-bound membership (solvers clip to the bound,
#: so only representation error remains).
BOUND_TOL = 1e-9

#: Default tolerance for delta-revalidated serving scores against a cold
#: recompute.  The correction DP reassociates the same truncated sum
#: (Eq. 7-9), so only accumulated float64 rounding (~1e-12 even over
#: long patch sequences) separates the two; 1e-7 leaves a wide safety
#: margin while still catching any real formula bug, whose error scales
#: with the patched weights (~1e-3 and up).
DELTA_SCORE_TOL = 1e-7

#: Float-rounding slack granted to push-backend scores *on top of* their
#: derived drop-error budget.  The push kernel computes the same
#: truncated sum as the dense DP with a different summation order, so
#: beyond the deliberate (accounted) dropped mass only reassociation
#: rounding separates the two.
PUSH_SCORE_TOL = 1e-9


class ContractViolation(ReproError, AssertionError):
    """A runtime invariant of the reproduction was violated.

    Subclasses :class:`AssertionError` as well as the package root error
    so both ``except ReproError`` production handlers and test-harness
    assertion machinery treat it appropriately.
    """


# ----------------------------------------------------------------------
# the enable/disable switch
# ----------------------------------------------------------------------
def _env_wants_contracts() -> bool:
    value = os.environ.get("REPRO_CONTRACTS", "")
    return value.strip().lower() not in ("", "0", "false", "no", "off")


_enabled: bool = _env_wants_contracts()


def contracts_enabled() -> bool:
    """Whether contract checks are currently active."""
    return _enabled


def enable_contracts() -> None:
    """Turn contract checks on for this process."""
    global _enabled
    _enabled = True


def disable_contracts() -> None:
    """Turn contract checks off (the production default)."""
    global _enabled
    _enabled = False


def _violation(seam: str, message: str) -> ContractViolation:
    # Fire the flight recorder *before* the exception is constructed and
    # raised by the caller: the diagnostic bundle captures the event ring
    # as it stood at the moment the invariant broke, even if a handler
    # upstack swallows the violation.  Late import — contracts must stay
    # importable from the graph layer without dragging obs in; a broken
    # recorder never masks the violation itself.
    from repro.obs.recorder import record_violation

    try:
        record_violation(seam, message)
    except Exception:  # pragma: no cover - diagnostics must not mask bugs
        pass
    return ContractViolation(f"contract violated at {seam}: {message}")


# ----------------------------------------------------------------------
# the contracts
# ----------------------------------------------------------------------
def check_row_stochastic(
    graph: "WeightedDiGraph",
    *,
    nodes: "Iterable[Node] | None" = None,
    expected: "Mapping[Node, float] | None" = None,
    edge_filter: "Callable[[Node, Node], bool] | None" = None,
    tol: float = MASS_TOL,
    seam: str = "normalize",
) -> None:
    """Verify per-node out-weight mass (Eq. 7–9's transition structure).

    With ``expected`` (the optimizer's recorded reference sums), each
    node's (optionally edge-filtered) out-weight sum must match its
    reference within ``tol`` — the ``NormalizeEdges`` postcondition:
    the solver redistributes mass, it must not create or destroy it.
    Without ``expected``, each sum must be sub-stochastic (≤ 1 + tol),
    the base-graph invariant.  Every participating weight must also be
    finite and strictly positive.
    """
    if not _enabled:
        return
    node_list = list(nodes) if nodes is not None else list(graph.nodes())
    for node in node_list:
        succ = graph.successors(node)
        if edge_filter is not None:
            succ = {t: w for t, w in succ.items() if edge_filter(node, t)}
        for tail, weight in succ.items():
            if not math.isfinite(weight) or weight <= 0.0:
                raise _violation(
                    seam,
                    f"edge {node!r}->{tail!r} has invalid weight {weight!r} "
                    f"(must be finite and > 0)",
                )
        total = sum(succ.values())
        if expected is not None:
            if node not in expected:
                continue
            target = expected[node]
            if abs(total - target) > tol * max(1.0, abs(target)):
                raise _violation(
                    seam,
                    f"node {node!r} out-weight sum {total!r} drifted from its "
                    f"reference mass {target!r} (tol {tol})",
                )
        elif total > 1.0 + tol:
            raise _violation(
                seam,
                f"node {node!r} out-weight sum {total!r} exceeds 1 "
                f"(row-stochastic bound, tol {tol})",
            )


def check_weight_bounds(
    x: "np.ndarray | Iterable[float]",
    lower: "np.ndarray | float",
    upper: "np.ndarray | float",
    *,
    tol: float = BOUND_TOL,
    seam: str = "sgp",
) -> None:
    """Verify the SGP box bounds ``0 < x_l ≤ x ≤ x_u`` (Eq. 2).

    Checks that the bounds themselves are valid (strictly positive
    lower, lower ≤ upper) and that ``x`` lies inside them within
    ``tol``, with every entry finite.
    """
    if not _enabled:
        return
    arr = np.asarray(x, dtype=float)
    lo = np.broadcast_to(np.asarray(lower, dtype=float), arr.shape)
    hi = np.broadcast_to(np.asarray(upper, dtype=float), arr.shape)
    if not np.all(np.isfinite(arr)):
        bad = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise _violation(seam, f"x[{bad}] = {arr[bad]!r} is not finite")
    if np.any(lo <= 0.0):
        bad = int(np.flatnonzero(lo <= 0.0)[0])
        raise _violation(
            seam, f"lower bound x_l[{bad}] = {lo[bad]!r} is not strictly positive"
        )
    if np.any(lo > hi):
        bad = int(np.flatnonzero(lo > hi)[0])
        raise _violation(
            seam, f"bounds inverted at {bad}: x_l={lo[bad]!r} > x_u={hi[bad]!r}"
        )
    below = arr < lo - tol
    if np.any(below):
        bad = int(np.flatnonzero(below)[0])
        raise _violation(
            seam, f"x[{bad}] = {arr[bad]!r} lies below its lower bound {lo[bad]!r}"
        )
    above = arr > hi + tol
    if np.any(above):
        bad = int(np.flatnonzero(above)[0])
        raise _violation(
            seam, f"x[{bad}] = {arr[bad]!r} lies above its upper bound {hi[bad]!r}"
        )


def check_posynomial(
    terms: "Signomial | Iterable[tuple[float, Mapping[int, float]]]",
    *,
    seam: str = "sgp.condensation",
) -> None:
    """Verify posynomial validity (Eq. 2–3): all coefficients finite, > 0.

    Accepts a :class:`~repro.sgp.terms.Signomial` or a bare iterable of
    ``(coefficient, {var: exponent})`` pairs.  Exponents may be any real
    number (that is what makes it a posynomial rather than a polynomial)
    but must be finite.
    """
    if not _enabled:
        return
    term_iter = terms.terms() if hasattr(terms, "terms") else terms
    for coeff, exponents in term_iter:
        if not math.isfinite(coeff) or coeff <= 0.0:
            raise _violation(
                seam,
                f"coefficient {coeff!r} breaks posynomial validity "
                f"(must be finite and > 0)",
            )
        for var, exp in exponents.items():
            if not math.isfinite(exp):
                raise _violation(
                    seam, f"exponent of x_{var} is not finite: {exp!r}"
                )


def check_monotone_deviations(
    deviations: "np.ndarray | Iterable[float]",
    *,
    max_abs: float = 1e6,
    seam: str = "optimize.multi_vote",
) -> None:
    """Verify solved deviation variables (Eq. 15) are sane.

    Each unshifted deviation ``d`` must be finite and within the
    encoder's cap: ``|d| ≤ max_abs`` (the shifted solver variable is
    box-bounded, so anything larger means the shift bookkeeping broke).
    A deviation far beyond the cap would park the sigmoid objective in
    its saturated region and silently stop penalizing violations.
    """
    if not _enabled:
        return
    arr = np.asarray(list(deviations) if not isinstance(deviations, np.ndarray) else deviations, dtype=float)
    if arr.size == 0:
        return
    if not np.all(np.isfinite(arr)):
        bad = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise _violation(seam, f"deviation d[{bad}] = {arr[bad]!r} is not finite")
    magnitude = np.abs(arr)
    if np.any(magnitude > max_abs):
        bad = int(np.flatnonzero(magnitude > max_abs)[0])
        raise _violation(
            seam,
            f"deviation d[{bad}] = {arr[bad]!r} exceeds the encoder cap "
            f"{max_abs!r} — the shift bookkeeping is broken",
        )


def check_delta_scores(
    patched: "np.ndarray | Iterable[float]",
    reference: "np.ndarray | Iterable[float]",
    *,
    tol: float = DELTA_SCORE_TOL,
    seam: str = "engine.delta",
) -> None:
    """Verify a delta-revalidated score vector against a cold recompute.

    The delta correction (Eq. 7–9 expanded around the pre-patch matrix)
    computes the *same* truncated sum as full propagation, merely
    reassociated — so every entry must satisfy
    ``|patched − reference| ≤ tol · (1 + |reference|)``.  Anything
    larger means the correction formula (not float rounding) is wrong.
    """
    if not _enabled:
        return
    a = np.asarray(patched, dtype=float)
    b = np.asarray(reference, dtype=float)
    if a.shape != b.shape:
        raise _violation(
            seam,
            f"revalidated vector shape {a.shape} does not match the cold "
            f"recompute shape {b.shape}",
        )
    bad_mask = np.abs(a - b) > tol * (1.0 + np.abs(b))
    if np.any(bad_mask):
        bad = int(np.flatnonzero(bad_mask)[0])
        raise _violation(
            seam,
            f"revalidated score [{bad}] = {a[bad]!r} drifted from the cold "
            f"recompute {b[bad]!r} (|Δ| = {abs(a[bad] - b[bad])!r}, "
            f"tol {tol})",
        )


def check_push_scores(
    pushed: "np.ndarray | Iterable[float]",
    reference: "np.ndarray | Iterable[float]",
    *,
    budget: float,
    tol: float = PUSH_SCORE_TOL,
    seam: str = "engine.push",
) -> None:
    """Verify local-push scores against the dense dynamic program.

    The push kernel's drop-error accounting guarantees a per-target
    absolute bound (its reported ``error_bound``); every entry must
    satisfy ``|pushed − reference| ≤ budget + tol · (1 + |reference|)``
    — the derived budget plus float-reassociation slack.  Anything
    larger means the budget derivation (not rounding) is wrong.
    """
    if not _enabled:
        return
    if not (math.isfinite(budget) and budget >= 0.0):
        raise _violation(
            seam, f"push error budget {budget!r} is not a finite non-negative "
            f"number"
        )
    a = np.asarray(pushed, dtype=float)
    b = np.asarray(reference, dtype=float)
    if a.shape != b.shape:
        raise _violation(
            seam,
            f"push vector shape {a.shape} does not match the dense "
            f"reference shape {b.shape}",
        )
    bad_mask = np.abs(a - b) > budget + tol * (1.0 + np.abs(b))
    if np.any(bad_mask):
        bad = int(np.flatnonzero(bad_mask)[0])
        raise _violation(
            seam,
            f"push score [{bad}] = {a[bad]!r} drifted from the dense "
            f"reference {b[bad]!r} (|Δ| = {abs(a[bad] - b[bad])!r}, "
            f"budget {budget!r}, tol {tol})",
        )


def check_finite_csr_data(
    data: "np.ndarray",
    *,
    positions: "Iterable[int] | None" = None,
    seam: str = "engine.patch",
) -> None:
    """Verify CSR weight-buffer entries after an in-place engine patch.

    Every patched entry (or the whole buffer, when ``positions`` is
    ``None``) must be finite and strictly positive — a zero or NaN in
    the cached adjacency silently corrupts every similarity served
    until the next full rebuild.
    """
    if not _enabled:
        return
    if positions is None:
        view: Any = data
        index_of = range(len(data))
    else:
        index_list = list(positions)
        view = data[index_list] if len(index_list) else data[:0]
        index_of = index_list
    bad_mask = ~(np.isfinite(view) & (view > 0.0))
    if np.any(bad_mask):
        offset = int(np.flatnonzero(bad_mask)[0])
        position = list(index_of)[offset]
        raise _violation(
            seam,
            f"CSR data[{position}] = {view[offset]!r} is not a finite "
            f"positive weight",
        )


def check_same_csr(
    actual: "sparse.csr_matrix",
    expected: "sparse.csr_matrix",
    *,
    seam: str = "engine.publish",
) -> None:
    """Verify two CSR matrices are identical: layout and data, bitwise.

    The publish seams prove with it that a patch named every write: a
    published epoch against a fresh build of the live graph, and the
    live knowledge graph against the optimizer worker's shadow.
    """
    if not _enabled:
        return
    same = (
        actual.shape == expected.shape
        and np.array_equal(actual.indptr, expected.indptr)
        and np.array_equal(actual.indices, expected.indices)
        and actual.data.tobytes() == expected.data.tobytes()
    )
    if not same:
        raise _violation(
            seam, "matrices differ: a write is missing from the patch"
        )
