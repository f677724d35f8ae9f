"""Tests for the plain-text reporting helpers."""

import pytest

from repro.reporting import ascii_table, format_percent, format_value


class TestFormatting:
    def test_format_value_none(self):
        assert format_value(None) == "--"

    def test_format_value_nan(self):
        assert format_value(float("nan")) == "--"

    def test_format_value_magnitudes(self):
        assert format_value(1234.6) == "1235"
        assert format_value(42.123) == "42.1"
        assert format_value(0.12345) == "0.123"
        assert format_value("x") == "x"

    def test_format_value_infinities(self):
        assert format_value(float("inf")) == "--"
        assert format_value(float("-inf")) == "--"

    def test_format_value_numpy_scalars(self):
        import numpy as np

        assert format_value(np.float64(42.123)) == "42.1"
        assert format_value(np.float32(0.5)) == "0.500"
        assert format_value(np.float64("nan")) == "--"
        assert format_value(np.float64("inf")) == "--"

    def test_format_percent(self):
        assert format_percent(0.4272) == "42.72%"
        assert format_percent(None) == "--"
        assert format_percent(1.0, digits=0) == "100%"


class TestAsciiTable:
    def test_round_trip_contents(self):
        table = ascii_table(("a", "b"), [(1, 2.5), ("x", None)], title="T")
        assert "T" in table
        assert "2.500" in table
        assert "--" in table
        lines = table.splitlines()
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # all rows equally wide

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError):
            ascii_table(("a", "b"), [(1,)])
