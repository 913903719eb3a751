"""Unit tests for the shared utilities."""

import numpy as np
import pytest

from repro.utils import (
    check_fraction,
    check_positive,
    check_probability,
    ensure_rng,
    format_table,
    spawn_rngs,
)


class TestRng:
    def test_none_gives_fresh_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_is_deterministic(self):
        a = ensure_rng(42).integers(0, 1_000_000, size=5)
        b = ensure_rng(42).integers(0, 1_000_000, size=5)
        assert (a == b).all()

    def test_generator_passes_through(self):
        rng = np.random.default_rng(1)
        assert ensure_rng(rng) is rng

    def test_spawn_rngs_independent_and_deterministic(self):
        streams_a = spawn_rngs(7, 3)
        streams_b = spawn_rngs(7, 3)
        draws_a = [r.integers(0, 10**9) for r in streams_a]
        draws_b = [r.integers(0, 10**9) for r in streams_b]
        assert draws_a == draws_b
        assert len(set(draws_a)) == 3  # streams differ from each other

    def test_spawn_zero(self):
        assert spawn_rngs(0, 0) == []

    def test_spawn_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)


class TestFormatTable:
    def test_alignment_and_floats(self):
        text = format_table(
            ["name", "value"],
            [["a", 1.23456], ["bbbb", 7]],
            title="caption",
        )
        lines = text.splitlines()
        assert lines[0] == "caption"
        assert "name" in lines[1] and "value" in lines[1]
        assert set(lines[2]) <= {"-", "+"}
        assert "1.235" in text  # .4g formatting

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only one"]])

    def test_bool_not_formatted_as_float(self):
        text = format_table(["flag"], [[True]])
        assert "True" in text

    def test_custom_float_format(self):
        text = format_table(["x"], [[0.5]], float_fmt=".1%")
        assert "50.0%" in text


class TestValidation:
    def test_check_positive(self):
        assert check_positive("x", 2.5) == 2.5
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                check_positive("x", bad)

    def test_check_probability(self):
        assert check_probability("p", 0.0) == 0.0
        assert check_probability("p", 1.0) == 1.0
        for bad in (-0.01, 1.01, float("nan")):
            with pytest.raises(ValueError):
                check_probability("p", bad)

    def test_check_fraction(self):
        assert check_fraction("c", 0.15) == 0.15
        for bad in (0.0, 1.0, -0.5, float("nan")):
            with pytest.raises(ValueError):
                check_fraction("c", bad)

    def test_error_messages_name_the_argument(self):
        with pytest.raises(ValueError, match="restart"):
            check_fraction("restart", 0.0)
