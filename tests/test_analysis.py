"""Tests for the analysis/measurement layer."""

import pytest

from repro.analysis import (
    PROTOCOLS,
    Stats,
    build_protocol,
    format_table,
    repeat_latency,
    run_common_case,
)
from repro.sim.network import RandomDelay


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

    def test_p99_defaults_for_positional_legacy_construction(self):
        # Old call sites built Stats without a p99; the field is
        # defaulted so recorded artifacts keep loading.
        stats = Stats(count=1, mean=1.0, p50=1.0, p95=1.0,
                      minimum=1.0, maximum=1.0)
        assert stats.p99 == 0.0


class TestRunCommonCase:
    def test_delays_reported_for_round_synchronous(self):
        result = run_common_case(build_protocol("fbft", f=1))
        assert result.decided
        assert result.delays == 2
        assert result.messages > 0

    def test_message_breakdown(self):
        result = run_common_case(build_protocol("fbft", f=1))
        assert result.messages_by_type["Propose"] == 4
        assert result.messages_by_type["Ack"] == 16

    def test_messages_counted_only_until_decision(self):
        """Pacemaker chatter after the decision must not pollute counts."""
        result = run_common_case(build_protocol("fbft", f=1), timeout=100.0)
        assert "WishMessage" not in result.messages_by_type

    def test_random_delay_no_delay_count(self):
        result = run_common_case(
            build_protocol("fbft", f=1),
            delay_model=RandomDelay(0.5, 1.5, seed=1),
        )
        assert result.decided
        assert result.delays is None  # only defined for lock-step rounds


class TestRepeatLatency:
    def test_latency_distribution_over_seeds(self):
        stats = repeat_latency(
            lambda: build_protocol("fbft", f=1),
            runs=5,
            delay_model_factory=lambda run: RandomDelay(0.5, 1.5, seed=run),
        )
        assert stats.count == 5
        # Two message hops of 0.5..1.5 each: latency within [1, 3].
        assert 1.0 <= stats.minimum <= stats.maximum <= 3.0


class TestProtocolSpecs:
    def test_all_specs_build_and_decide(self):
        for key, spec in PROTOCOLS.items():
            result = run_common_case(build_protocol(key, f=1))
            assert result.decided, key
            assert result.delays == spec.claimed_delays, key

    def test_build_with_explicit_n(self):
        procs = build_protocol("fbft", f=1, n=6)
        assert len(procs) == 6

    def test_paxos_marked_crash_only(self):
        assert not PROTOCOLS["paxos"].byzantine
        assert PROTOCOLS["pbft"].byzantine


class TestTables:
    def test_format_table_aligns(self):
        text = format_table(["a", "bb"], [[1, 2], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line.rstrip()) for line in lines[2:])) <= 2

    def test_float_formatting_trims_zeros(self):
        text = format_table(["v"], [[2.0]])
        assert "2" in text and "2.000" not in text
