"""Similarity-evaluation parameters, bundled.

The trio ``(k, max_length, restart_prob)`` — the list length, the walk
pruning threshold ``L``, and the restart probability ``c`` — used to be
copy-pasted as three keyword arguments through every layer of the stack
(``QASystem``, ``rank_answers``, the evaluation harness, and the three
optimization drivers).  :class:`SimilarityParams` replaces the triple
with one validated, immutable value object that is threaded through all
of them.  It also names the propagation kernel
(:attr:`SimilarityParams.backend`, ``"dense"`` or ``"push"``) and the
push kernel's error budget (:attr:`SimilarityParams.push_tolerance`).

The PR-1 era bare keyword arguments went through a one-release
``DeprecationWarning`` shim and are now hard errors:
:func:`resolve_similarity_params` raises ``TypeError`` with a migration
hint when any of them is passed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.similarity.inverse_pdistance import (
    DEFAULT_MAX_LENGTH,
    DEFAULT_RESTART_PROB,
)
from repro.similarity.push import DEFAULT_PUSH_TOLERANCE
from repro.utils.validation import check_fraction

#: Paper default top-k list length (Section VII-A1).
DEFAULT_K = 20

#: Default propagation backend (the reference dense dynamic program).
DEFAULT_BACKEND = "dense"


@dataclass(frozen=True)
class SimilarityParams:
    """Parameters of the truncated inverse-P-distance similarity.

    Parameters
    ----------
    k:
        Length of returned answer lists (paper default 20).
    max_length:
        The walk pruning threshold ``L`` (Section IV-A, default 5).
    restart_prob:
        The restart probability ``c`` (Section III-A, default 0.15).
    backend:
        The propagation kernel, by the name
        :func:`repro.similarity.backend.get_backend` returns it under:
        ``"dense"`` (default, the reference DP) or ``"push"`` (the
        sparse local-push evaluator).  Any other value raises
        ``ValueError`` here.
    push_tolerance:
        The push kernel's per-target absolute error budget ε
        (``0`` = exact push; ignored by the dense kernel).

    The object is frozen and hashable, so it can key caches and travel
    through multiprocessing payloads unchanged.
    """

    k: int = DEFAULT_K
    max_length: int = DEFAULT_MAX_LENGTH
    restart_prob: float = DEFAULT_RESTART_PROB
    backend: str = DEFAULT_BACKEND
    push_tolerance: float = DEFAULT_PUSH_TOLERANCE

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be ≥ 1, got {self.k}")
        if self.max_length < 1:
            raise ValueError(
                f"max_length must be at least 1, got {self.max_length}"
            )
        check_fraction("restart_prob", self.restart_prob)
        if self.backend not in ("dense", "push"):
            raise ValueError(
                f"backend must be 'dense' or 'push', got {self.backend!r}"
            )
        if not self.push_tolerance >= 0.0:  # also rejects NaN
            raise ValueError(
                f"push_tolerance must be ≥ 0, got {self.push_tolerance!r}"
            )

    def replace(self, **changes) -> "SimilarityParams":
        """A copy with the given fields replaced (validated again)."""
        return replace(self, **changes)


def resolve_similarity_params(
    params: "SimilarityParams | None" = None,
    *,
    k: "int | None" = None,
    max_length: "int | None" = None,
    restart_prob: "float | None" = None,
    default: "SimilarityParams | None" = None,
) -> SimilarityParams:
    """Resolve the effective :class:`SimilarityParams` for a call.

    Returns ``params`` when given, else ``default`` (or the
    paper-default :class:`SimilarityParams`).  The legacy bare keyword
    arguments ``k``/``max_length``/``restart_prob`` — deprecated since
    the params migration — are now rejected with ``TypeError`` carrying
    a migration hint.
    """
    legacy = {
        name: value
        for name, value in (
            ("k", k),
            ("max_length", max_length),
            ("restart_prob", restart_prob),
        )
        if value is not None
    }
    if legacy:
        migrated = ", ".join(
            f"{name}={value!r}" for name, value in sorted(legacy.items())
        )
        raise TypeError(
            f"the legacy keyword arguments {sorted(legacy)} were removed; "
            f"pass params=SimilarityParams({migrated}) instead "
            f"(or params=<your params>.replace({migrated}))"
        )
    if params is not None:
        return params
    return default if default is not None else SimilarityParams()
