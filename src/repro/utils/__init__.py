"""Small shared utilities: RNG handling, text tables, validation."""

from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.tables import format_table
from repro.utils.validation import (
    check_fraction,
    check_positive,
    check_probability,
)

__all__ = [
    "ensure_rng",
    "spawn_rngs",
    "format_table",
    "check_fraction",
    "check_positive",
    "check_probability",
]
