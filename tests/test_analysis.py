"""Tests for the analysis/measurement layer."""

import pytest

from repro.analysis import Stats, format_table


class TestStats:
    def test_from_values(self):
        stats = Stats.from_values([1.0, 2.0, 3.0, 4.0])
        assert stats.count == 4
        assert stats.mean == 2.5
        assert stats.minimum == 1.0
        assert stats.maximum == 4.0
        assert stats.p50 == 2.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Stats.from_values([])

    def test_str_contains_fields(self):
        text = str(Stats.from_values([1.0]))
        assert "mean" in text and "p95" in text and "p99" in text

    def test_p99_orders_with_p95(self):
        stats = Stats.from_values(list(range(1, 101)))
        assert stats.p95 <= stats.p99 <= stats.maximum
        assert stats.p99 > stats.p50

    def test_p99_single_sample_collapses(self):
        stats = Stats.from_values([7.0])
        assert stats.p50 == stats.p95 == stats.p99 == 7.0

    def test_p99_small_sample_stays_within_range(self):
        # With fewer than 100 samples the 99th percentile interpolates
        # near (but never beyond) the maximum.
        stats = Stats.from_values([1.0, 2.0, 100.0])
        assert stats.p95 <= stats.p99 <= 100.0
        assert stats.p99 > 2.0


class TestTables:
    def test_format_table_aligns(self):
        text = format_table(["a", "bb"], [[1, 2], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line.rstrip()) for line in lines[2:])) <= 2

    def test_float_formatting_trims_zeros(self):
        text = format_table(["v"], [[2.0]])
        assert "2" in text and "2.000" not in text
