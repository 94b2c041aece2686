"""Unit tests for trace recording and latency accounting."""

import pytest

from repro.sim.trace import (
    ConsistencyViolation,
    Decision,
    TraceRecorder,
    message_delays,
)


class TestDecisions:
    def test_record_and_lookup(self):
        trace = TraceRecorder()
        trace.record_decision(0, "x", 2.0)
        decision = trace.decision_of(0)
        assert decision == Decision(pid=0, value="x", time=2.0)

    def test_re_deciding_same_value_is_noop(self):
        trace = TraceRecorder()
        trace.record_decision(0, "x", 2.0)
        trace.record_decision(0, "x", 5.0)
        assert trace.decision_of(0).time == 2.0
        assert len(trace.decisions) == 1

    def test_conflicting_decision_raises(self):
        trace = TraceRecorder()
        trace.record_decision(0, "x", 2.0)
        with pytest.raises(ConsistencyViolation):
            trace.record_decision(0, "y", 3.0)

    def test_all_decided(self):
        trace = TraceRecorder()
        trace.record_decision(0, "x", 1.0)
        trace.record_decision(1, "x", 2.0)
        assert trace.all_decided([0, 1])
        assert not trace.all_decided([0, 1, 2])

    def test_check_agreement_ok(self):
        trace = TraceRecorder()
        trace.record_decision(0, "x", 1.0)
        trace.record_decision(2, "x", 2.0)
        assert trace.check_agreement([0, 1, 2]) == "x"

    def test_check_agreement_none_decided(self):
        assert TraceRecorder().check_agreement([0, 1]) is None

    def test_check_agreement_violation(self):
        trace = TraceRecorder()
        trace.record_decision(0, "x", 1.0)
        trace.record_decision(1, "y", 1.0)
        with pytest.raises(ConsistencyViolation):
            trace.check_agreement([0, 1])

    def test_check_agreement_ignores_other_pids(self):
        trace = TraceRecorder()
        trace.record_decision(0, "x", 1.0)
        trace.record_decision(9, "y", 1.0)  # not in the correct set
        assert trace.check_agreement([0, 1]) == "x"

    def test_latest_decision_time_requires_everyone(self):
        trace = TraceRecorder()
        trace.record_decision(0, "x", 1.0)
        assert trace.latest_decision_time([0, 1]) is None
        trace.record_decision(1, "x", 4.0)
        assert trace.latest_decision_time([0, 1]) == 4.0

    def test_latest_decision_time_accepts_a_generator(self):
        # Regression: the pids iterable used to be iterated twice (once
        # for decision_times, once for the completeness len()), so a
        # generator was exhausted on the first pass and the completeness
        # check passed vacuously.
        trace = TraceRecorder()
        trace.record_decision(0, "x", 1.0)
        assert trace.latest_decision_time(pid for pid in (0, 1)) is None
        trace.record_decision(1, "x", 4.0)
        assert trace.latest_decision_time(pid for pid in (0, 1)) == 4.0


class TestMessageDelays:
    def test_exact_boundaries(self):
        assert message_delays(2.0, 1.0) == 2
        assert message_delays(3.0, 1.0) == 3
        assert message_delays(0.0, 1.0) == 0

    def test_scaled_delta(self):
        assert message_delays(10.0, 5.0) == 2

    def test_mid_round_rounds_up(self):
        assert message_delays(2.3, 1.0) == 3

    def test_float_noise_tolerated(self):
        assert message_delays(2.0000000001, 1.0) == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            message_delays(-1.0, 1.0)


class TestMessageAccounting:
    def test_counts_by_type(self):
        from repro.sim.events import Simulator
        from repro.sim.network import Network

        sim = Simulator()
        net = Network(sim)
        trace = TraceRecorder(net)
        net.register(0, lambda s, p: None)
        net.register(1, lambda s, p: None)
        net.send(0, 1, "text")
        net.send(0, 1, 42)
        net.send(0, 1, "more")
        assert trace.message_count() == 3
        assert trace.messages_by_type() == {"str": 2, "int": 1}

    def test_incremental_counts_equal_full_rescan(self):
        from repro.sim.events import Simulator
        from repro.sim.network import Network

        sim = Simulator()
        net = Network(sim)
        trace = TraceRecorder(net)
        net.register(0, lambda s, p: None)
        net.register(1, lambda s, p: None)
        for payload in ("a", 1, "b", 2.5, "c", (1, 2)):
            net.send(0, 1, payload)
        incremental = trace.messages_by_type()
        rescan = {}
        for env in trace.sends:
            name = type(env.payload).__name__
            rescan[name] = rescan.get(name, 0) + 1
        assert incremental == rescan
