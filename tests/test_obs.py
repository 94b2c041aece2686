"""Tests for the observability layer (repro.obs): metrics registry,
the causal record seen through a tiny cluster, and the
leader-performance monitor."""

import json

import pytest

from repro.core.config import MonitorConfig
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    percentile_nearest_rank,
)
from repro.obs.monitor import DemotionVote, LeaderMonitor, SlidingWindow
from repro.obs.recorder import FlightRecorder
from repro.postmortem.dump import FlightDump
from repro.postmortem.timeline import render_timeline


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestPercentileNearestRank:
    def test_single_value(self):
        assert percentile_nearest_rank([5.0], 50) == 5.0
        assert percentile_nearest_rank([5.0], 99) == 5.0

    def test_nearest_rank_is_an_observed_value(self):
        values = [1.0, 2.0, 3.0, 4.0]
        for q in (1, 50, 95, 99):
            assert percentile_nearest_rank(values, q) in values

    def test_ordering(self):
        values = [float(i) for i in range(1, 101)]
        assert percentile_nearest_rank(values, 50) == 50.0
        assert percentile_nearest_rank(values, 99) == 99.0
        assert percentile_nearest_rank(values, 100) == 100.0


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(2)
        registry.gauge("g").set(7)
        for value in (1.0, 2.0, 3.0, 4.0):
            registry.histogram("h").observe(value)
        snap = registry.to_dict()
        assert snap["counters"]["c"] == 3
        assert snap["gauges"]["g"] == 7
        hist = snap["histograms"]["h"]
        assert hist["count"] == 4
        assert hist["min"] == 1.0 and hist["max"] == 4.0
        assert hist["p50"] <= hist["p95"] <= hist["p99"] <= hist["max"]

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.histogram("h") is registry.histogram("h")

    def test_namespace_prefixes(self):
        registry = MetricsRegistry()
        ns = registry.namespace("replica.3")
        ns.counter("requests").inc()
        snap = registry.to_dict()
        assert snap["counters"]["replica.3.requests"] == 1

    def test_histogram_reservoir_is_bounded_but_exact_on_extremes(self):
        hist = Histogram("h", capacity=8)
        for i in range(1000):
            hist.observe(float(i))
        snap = hist.snapshot()
        # count/min/max/mean are exact over all observations...
        assert snap["count"] == 1000
        assert snap["min"] == 0.0 and snap["max"] == 999.0
        assert snap["mean"] == pytest.approx(499.5)
        # ...while percentiles come from the bounded reservoir (the most
        # recent 8 values here).
        assert len(hist.values()) == 8
        assert min(hist.values()) >= 992.0

    def test_to_json_roundtrips_the_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("reqs").inc(3)
        registry.gauge("depth").set(2)
        registry.histogram("lat").observe(1.5)
        payload = json.loads(registry.to_json())
        assert payload["counters"]["reqs"] == 3
        assert payload["gauges"]["depth"] == 2
        assert payload["histograms"]["lat"]["count"] == 1

    def test_to_json_is_sorted_and_independent_of_creation_order(self):
        forward, backward = MetricsRegistry(), MetricsRegistry()
        for name in ("a", "b"):
            forward.counter(name).inc()
        for name in ("b", "a"):
            backward.counter(name).inc()
        assert list(backward.to_dict()["counters"]) == ["a", "b"]
        assert backward.to_json() == forward.to_json() == backward.to_json()

    def test_collect_network_counts_sends_by_payload_type(self):
        from repro.sim.events import Simulator
        from repro.sim.network import Network
        from repro.sim.trace import TraceRecorder

        sim = Simulator()
        net = Network(sim)
        net.register(0, lambda s, p: None)
        net.register(1, lambda s, p: None)
        trace = TraceRecorder(net)
        registry = MetricsRegistry()
        net.send(0, 1, "text")
        net.send(0, 1, 42)
        net.send(1, 0, "more")
        sim.run()
        # The metrics are not on the send path: the trace recorder's
        # per-type tally is folded in at collection time.
        registry.collect_network(net, trace.messages_by_type())
        snap = registry.to_dict()
        assert snap["counters"]["net.sent.str"] == 2
        assert snap["counters"]["net.sent.int"] == 1
        assert snap["gauges"]["net.messages_sent"] == 3
        assert snap["gauges"]["net.messages_delivered"] == 3

    def test_a_shared_registry_accumulates_sends_across_runs(self):
        from repro.scenarios.library import get_scenario
        from repro.scenarios.runner import run_scenario

        registry = MetricsRegistry()
        spec = get_scenario("smr-open-loop")
        first = run_scenario(spec, metrics=registry)
        once = dict(registry.to_dict()["counters"])
        run_scenario(spec, metrics=registry)
        twice = registry.to_dict()["counters"]
        sent = {
            name.removeprefix("net.sent."): count
            for name, count in once.items()
            if name.startswith("net.sent.")
        }
        assert sent == first.messages_by_type
        # Counters add up over the runs a registry watches (the gauges
        # beside them are last-write-wins).
        assert twice == {name: 2 * count for name, count in once.items()}
        assert registry.to_dict()["gauges"]["net.messages_sent"] == first.messages_sent


# ---------------------------------------------------------------------------
# The causal record (the flight recorder on a hand-built cluster)
# ---------------------------------------------------------------------------


def _tiny_cluster(recorder=None):
    """Two relaying processes: 0 sends, 1 echoes back once.  The
    payloads are protocol messages (acks), which the recorder records."""
    from repro.core.messages import Ack
    from repro.sim.process import Process
    from repro.sim.runner import Cluster

    ping, pong = Ack("ping", 1), Ack("pong", 1)

    class Echo(Process):
        def __init__(self, pid):
            super().__init__(pid)
            self.got = []
            self.decision_hook = None  # wired to the trace by Cluster

        def on_start(self):
            if self.pid == 0:
                self.send(1, ping)

        def on_message(self, sender, payload):
            self.got.append(payload)
            if payload is ping:
                self.send(sender, pong)
            elif payload is pong:
                self.decision_hook("done")

    procs = [Echo(0), Echo(1)]
    cluster = Cluster(procs)
    if recorder is not None:
        cluster.network.install_tracer(recorder)
        cluster.observe([recorder.observe])
    return cluster, procs


def _timeline(recorder, **kwargs):
    return render_timeline(
        FlightDump(recorder.header(), list(recorder.events)), **kwargs
    )


def _stamped_send(recorder, payload):
    from repro.sim.network import Envelope

    return recorder.on_send(
        Envelope(
            src=0, dst=1, payload=payload, send_time=0.0, deliver_time=1.0,
            size=5,
        )
    )


class TestCausalRecord:
    def test_send_deliver_handler_decide_parentage(self):
        recorder = FlightRecorder()
        cluster, _procs = _tiny_cluster(recorder)
        cluster.start()
        cluster.sim.run()
        events = {e.id: e for e in recorder.events}
        shape = [(e.phase, e.kind) for e in recorder.events]
        assert shape == [
            ("send", "vote"), ("deliver", "vote"),
            ("send", "vote"), ("deliver", "vote"),
            ("local", "cert-formed"), ("local", "decide"),
        ]
        # The pong's send happened inside the ping's handler: its
        # parent is the ping's delivery, whose parent is the ping's send.
        pong_send = next(
            e for e in recorder.events if e.phase == "send" and e.time > 0.0
        )
        (handler,) = pong_send.parents
        assert events[handler].phase == "deliver"
        (ping_send,) = events[handler].parents
        assert events[ping_send].phase == "send"
        assert events[ping_send].time == 0.0
        # The decide is causally under the pong delivery it happened in,
        # and under the certificate formed from p0's vote deliveries.
        decide = recorder.events[-1]
        pong_delivery = recorder.events[3]
        cert = events[decide.parents[0]]
        assert decide.parents == (cert.id, pong_delivery.id)
        assert cert.parents == (pong_delivery.id,)

    def test_ring_buffer_drops_and_counts(self):
        recorder = FlightRecorder(capacity=4)
        for i in range(10):
            recorder.observe("decide", 0, float(i), None, None, i)
        assert recorder.emitted == 10
        assert recorder.dropped == 6
        assert len(recorder.to_dicts()) == 4

    def test_json_and_timeline_render(self):
        recorder = FlightRecorder()
        cluster, _procs = _tiny_cluster(recorder)
        cluster.start()
        cluster.sim.run()
        payload = json.loads(json.dumps(recorder.to_dict()))
        assert payload["emitted"] == len(payload["events"])
        assert payload["dropped"] == 0 and payload["capacity"] == 65536
        assert all(
            {"id", "parents", "kind", "phase", "time", "pid"} <= set(e)
            for e in payload["events"]
        )
        text = _timeline(recorder)
        assert "send" in text and "decide" in text

    def test_recording_does_not_change_the_execution(self):
        plain, plain_procs = _tiny_cluster()
        plain.start()
        plain.sim.run()
        recorder = FlightRecorder()
        traced, traced_procs = _tiny_cluster(recorder)
        traced.start()
        traced.sim.run()
        from repro.sim.digest import cluster_digest

        assert recorder.emitted == 6
        assert traced.trace.fan_outs == plain.trace.fan_outs  # stamps are not recorded
        assert cluster_digest(plain) == cluster_digest(traced)
        assert [p.got for p in plain_procs] == [p.got for p in traced_procs]

    def test_timeline_annotates_evicted_parents(self):
        """Ring wraparound regression: an event whose parent fell off
        the ring says so, instead of naming an id nobody can look up."""
        from repro.core.messages import Ack

        recorder = FlightRecorder(capacity=2)
        envelope = _stamped_send(recorder, Ack("ping", 1))  # id 1, evicted below
        recorder.begin_delivery(envelope)  # id 2 (deliver, parent 1)
        recorder.observe("view-change", 1, 1.0, None, 2, None)  # id 3 (parent 2)
        assert recorder.dropped == 1
        text = _timeline(recorder)
        assert "[chain broken: parent 1 evicted]" in text
        # The surviving local event still names its surviving parent.
        local_line = next(
            line for line in text.splitlines() if "view-change" in line
        )
        assert "chain broken" not in local_line and "<- 2" in local_line

    def test_timeline_limit_elides_but_does_not_evict(self):
        """``--limit`` hides early lines; a parent that is in the dump
        but outside the window is still a parent one can look up."""
        from repro.core.messages import Ack

        recorder = FlightRecorder()
        recorder.begin_delivery(_stamped_send(recorder, Ack("a", 1)))
        text = _timeline(recorder, limit=1)
        assert "1 earlier events elided" in text
        assert "<- 1" in text and "chain broken" not in text


# ---------------------------------------------------------------------------
# Sliding windows and the leader monitor
# ---------------------------------------------------------------------------


class TestSlidingWindow:
    def test_prunes_by_span(self):
        window = SlidingWindow(10.0)
        window.add(0.0, 1.0)
        window.add(5.0, 3.0)
        window.add(12.0, 5.0)
        window.prune(12.0)
        assert window.count == 2
        assert window.mean == 4.0

    def test_empty_window(self):
        window = SlidingWindow(10.0)
        assert window.count == 0
        assert window.mean is None


def _monitor(**overrides):
    defaults = dict(
        window=30.0, degradation_ratio=4.0, min_drain=2.0,
        min_samples=3, cooldown=60.0,
    )
    defaults.update(overrides)
    return LeaderMonitor(pid=1, n=4, config=MonitorConfig(**defaults))


class TestLeaderMonitor:
    def test_threshold_uses_min_drain_floor(self):
        mon = _monitor()
        # No queue-delay samples yet: threshold = ratio * min_drain.
        assert mon.degradation_threshold() == 8.0

    def test_rising_queue_delay_raises_threshold(self):
        mon = _monitor()
        for t in range(5):
            mon.note_queue_delay(float(t), 5.0)
        assert mon.degradation_threshold() == 20.0

    def test_demotes_only_past_min_samples_and_threshold(self):
        mon = _monitor()
        mon.note_slot_opened(0, 0.0)
        mon.note_slot_opened(1, 1.0)
        assert mon.note_slot_decided(0, 18.0) == 18.0
        assert not mon.should_demote(18.0)  # 1 sample < min_samples
        mon.note_slot_decided(1, 19.0)
        mon.note_slot_opened(2, 2.0)
        mon.note_slot_decided(2, 20.0)
        assert mon.should_demote(20.0)  # mean 18 > threshold 8

    def test_healthy_latency_never_demotes(self):
        mon = _monitor()
        for slot in range(6):
            mon.note_slot_opened(slot, float(slot))
            mon.note_slot_decided(slot, float(slot) + 2.0)
        assert not mon.should_demote(8.0)

    def test_cooldown_after_vote(self):
        mon = _monitor(cooldown=50.0)
        for slot in range(3):
            mon.note_slot_opened(slot, float(slot))
            mon.note_slot_decided(slot, float(slot) + 20.0)
        assert mon.should_demote(23.0)
        mon.note_vote_cast(23.0)
        assert not mon.should_demote(24.0)
        # Latency is still degraded, but the cooldown gates re-voting.
        assert not mon.should_demote(72.9)

    def test_demotion_raises_floor_and_resets_evidence(self):
        mon = _monitor()
        for slot in range(3):
            mon.note_slot_opened(slot, float(slot))
            mon.note_slot_decided(slot, float(slot) + 20.0)
        mon.note_demotion(25.0, view=2)
        assert mon.view_floor == 2
        assert mon.demotions == 1
        # Stale pre-rotation latencies must not indict the new leader.
        assert not mon.should_demote(26.0)
        # Demotions never lower the floor.
        mon.note_demotion(30.0, view=2)
        assert mon.view_floor == 2
        assert mon.demotions == 1

    def test_stats_shape(self):
        mon = _monitor()
        stats = mon.stats()
        assert stats["view_floor"] == 1
        assert stats["votes_cast"] == 0
        assert stats["demotions"] == 0
        assert stats["threshold"] == 8.0


# ---------------------------------------------------------------------------
# The demotion protocol end to end
# ---------------------------------------------------------------------------


class TestDemotionIntegration:
    def test_throttled_leader_is_demoted_and_tail_recovers(self):
        from repro.analysis.metrics import run_monitor_tail

        on = run_monitor_tail(severity=8.0, monitor_on=True)
        off = run_monitor_tail(severity=8.0, monitor_on=False)
        assert on.view_floor == 2
        assert on.demotions >= 1
        assert off.demotions == 0 and off.view_floor == 1
        assert on.latency.p99 < off.latency.p99
        assert on.duration < off.duration
        # Both arms completed the identical workload.
        assert on.completed == off.completed == 40

    def test_demotion_votes_are_signed_and_quorum_gated(self):
        from repro.scenarios.library import get_scenario
        from repro.scenarios.runner import run_scenario

        registry = MetricsRegistry()
        result = run_scenario(get_scenario("slow-leader"), metrics=registry)
        assert result.ok
        counters = registry.to_dict()["counters"]
        assert counters["net.sent.DemotionVote"] > 0
        monitors = result.metrics["monitors"]
        # Quorum (2f+1 = 3 of 4) reached: every honest replica rotated.
        assert all(m["view_floor"] == 2 for m in monitors.values())

    def test_monitor_off_keeps_scenario_digests_identical(self):
        # The disabled-observability acceptance gate in miniature: a
        # pinned scenario re-run with metrics + the recorder attached
        # must produce the same trace digest as its plain run.
        from repro.scenarios.library import get_scenario
        from repro.scenarios.runner import run_scenario

        spec = get_scenario("smr-open-loop")
        plain = run_scenario(spec)
        observed = run_scenario(
            spec, metrics=MetricsRegistry(), recorder=FlightRecorder()
        )
        assert observed.trace_digest == plain.trace_digest

    def test_malformed_vote_target_rejected(self):
        from repro.smr.backends import smr_backend
        from repro.smr.kvstore import KVStore
        from repro.smr.replica import SMRReplica
        from repro.sim.runner import Cluster

        _config, registry, factory = smr_backend("fbft", 4, 1, t=1)
        monitor = MonitorConfig()
        replicas = [
            SMRReplica(pid, 4, 1, KVStore(), factory,
                       registry=registry, monitor=monitor)
            for pid in range(4)
        ]
        cluster = Cluster(replicas)
        cluster.start()
        victim = replicas[1]
        # view 2's demotion target must be (2 - 2) % 4 = 0, not 3; a
        # Byzantine vote naming the wrong target is dropped unrecorded.
        victim.on_message(2, DemotionVote(view=2, target=3, signature=None))
        assert victim._demotion_votes.get(2) in (None, set())
