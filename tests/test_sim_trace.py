"""Unit tests for trace recording and latency accounting."""

import pytest

from repro.sim.trace import (
    ConsistencyViolation,
    Decision,
    TraceRecorder,
    message_delays,
)

from helpers import record_sends


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
        assert sum(trace.messages_by_type().values()) == net.stats.messages_sent == 3
        assert trace.messages_by_type() == {"str": 2, "int": 1}

    def test_incremental_counts_equal_full_rescan(self):
        from repro.sim.events import Simulator
        from repro.sim.network import Network

        sim = Simulator()
        net = Network(sim)
        trace = TraceRecorder(net)
        sends = record_sends(net)
        net.register(0, lambda s, p: None)
        net.register(1, lambda s, p: None)
        for payload in ("a", 1, "b", 2.5, "c", (1, 2)):
            net.send(0, 1, payload)
        incremental = trace.messages_by_type()
        rescan = {}
        for env in sends:
            name = type(env.payload).__name__
            rescan[name] = rescan.get(name, 0) + 1
        assert incremental == rescan

    def test_bytes_by_type_count_every_recipient_at_its_accounted_size(self):
        from repro.sim.events import Simulator
        from repro.sim.network import Network

        sim = Simulator()
        net = Network(sim)
        trace = TraceRecorder(net)
        sends = record_sends(net)
        for pid in range(3):
            net.register(pid, lambda s, p: None)
        net.send(0, 1, "text")
        net.broadcast(0, "everyone")
        net.broadcast(1, (1, 2), include_self=False)
        messages, sent = trace.traffic_by_type()
        assert messages == trace.messages_by_type() == {"str": 4, "tuple": 2}
        assert sent.keys() == messages.keys()
        assert sum(sent.values()) == net.stats.bytes_sent
        rescan = {}
        for env in sends:
            name = type(env.payload).__name__
            rescan[name] = rescan.get(name, 0) + env.size
        assert sent == rescan


class TestTheTraceKeepsNoPerSendState:
    """Sends are hashed and counted as they pass, never kept: what the
    trace and the network hold after a run does not grow with its
    length, and the digest can be read at any point of it."""

    @staticmethod
    def _held_after_smr_run(monkeypatch, commands):
        """Bytes allocated in ``sim/trace.py`` and ``sim/network.py`` that
        a finished ``commands``-long SMR run still holds, its cluster
        alive."""
        import gc
        import tracemalloc

        from repro.scenarios import runner
        from repro.scenarios.spec import ScenarioSpec, WorkloadSpec
        from repro.sim.runner import Cluster
        from repro.smr import SMRClient

        clusters = []

        def capture(*args, **kwargs):
            clusters.append(Cluster(*args, **kwargs))
            return clusters[-1]

        monkeypatch.setattr(runner, "Cluster", capture)
        spec = ScenarioSpec(
            name=f"smr-{commands}", protocol="fbft-smr", n=4, f=1, t=1,
            workload=WorkloadSpec(requests_per_client=commands, window=2, seed=3),
            timeout=100_000.0,
        )
        tracemalloc.start()
        try:
            result = runner.run_scenario(spec)
            (cluster,) = clusters
            # The clients' per-request outcomes keep delivery times the
            # network allocated: the workload's record, not the trace's.
            for process in cluster.processes.values():
                if isinstance(process, SMRClient):
                    process.outcomes.clear()
            gc.collect()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        assert result.ok and result.completed_requests == commands
        snapshot = snapshot.filter_traces([
            tracemalloc.Filter(True, "*/repro/sim/trace.py"),
            tracemalloc.Filter(True, "*/repro/sim/network.py"),
        ])
        held = sum(stat.size for stat in snapshot.statistics("filename"))
        return held, result.messages_sent

    def test_a_longer_run_holds_no_more(self, monkeypatch):
        short, short_sent = self._held_after_smr_run(monkeypatch, 50)
        long, long_sent = self._held_after_smr_run(monkeypatch, 200)
        assert long_sent > 3 * short_sent
        # A kept record per send would be tens of bytes per message here,
        # over 10,000 messages; what is left is in-flight sends and counters.
        assert long <= short + 4096

    @staticmethod
    def _crashed_leader_run():
        from repro.sim.digest import cluster_digest

        from helpers import build_cluster, make_config

        cluster = build_cluster(make_config(n=4, f=1), round_synchronous=False)
        cluster.process(0).crash()  # a view change: sends well past t = 3
        cluster.start()
        return cluster, lambda: cluster_digest(cluster)

    def test_the_digest_reads_the_same_twice_mid_run_and_at_the_end(self):
        cluster, digest = self._crashed_leader_run()
        cluster.sim.run(until=3.0)
        middle = digest()
        assert digest() == middle
        cluster.sim.run(until=40.0)
        end = [digest(), digest()]

        halted, halted_digest = self._crashed_leader_run()
        halted.sim.run(until=3.0)
        uninterrupted, uninterrupted_digest = self._crashed_leader_run()
        uninterrupted.sim.run(until=40.0)

        assert middle == halted_digest() != end[0]
        assert end == [uninterrupted_digest()] * 2
        assert cluster.network.stats.messages_sent > halted.network.stats.messages_sent
