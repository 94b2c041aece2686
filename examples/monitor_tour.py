#!/usr/bin/env python3
"""Observability tour: metrics, the causal record, and demoting a slow leader.

Three stops:

1. run a pinned scenario with a metrics registry attached and read the
   per-replica histograms out of the snapshot (the execution — and its
   trace digest — is identical to an unobserved run);
2. record the same run with a (deliberately small) flight recorder and
   print the tail of its timeline (send -> delivery -> certificate ->
   decide, parent ids threaded through the message envelopes; a parent
   that fell off the ring is marked evicted);
3. throttle a leader: honest protocol, every message 9 time units late —
   no timeout ever fires, so only the leader-performance monitor notices.
   Run the ``throttling-byzantine-leader`` scenario with the monitor on
   and off and compare the latency tails (experiment E18 sweeps this).

Run me:

    PYTHONPATH=src python examples/monitor_tour.py
"""

from repro.analysis import Stats
from repro.obs import FlightRecorder, MetricsRegistry
from repro.postmortem import FlightDump, render_timeline
from repro.scenarios import get_scenario
from repro.scenarios.runner import run_scenario


def stop_one_metrics() -> None:
    print("=" * 72)
    print("1. metrics: the smr-open-loop scenario, instrumented")
    print("=" * 72)
    spec = get_scenario("smr-open-loop")
    plain = run_scenario(spec)
    registry = MetricsRegistry()
    observed = run_scenario(spec, metrics=registry)
    assert observed.trace_digest == plain.trace_digest
    print("trace digest unchanged by instrumentation:",
          observed.trace_digest[:16])
    snapshot = registry.to_dict()
    sends = {
        name.removeprefix("net.sent."): count
        for name, count in snapshot["counters"].items()
        if name.startswith("net.sent.")
    }
    print(f"messages by type: {sends}")
    executed = snapshot["counters"]["replica.0.commands_executed"]
    delay = snapshot["histograms"]["replica.0.queue_delay"]
    print(
        f"replica 0: {executed} commands executed; request queue delay "
        f"count={delay['count']} mean={delay['mean']:.2f} "
        f"p50={delay['p50']} p99={delay['p99']}"
    )


def stop_two_recording() -> None:
    print()
    print("=" * 72)
    print("2. the flight record: who caused what")
    print("=" * 72)
    recorder = FlightRecorder(capacity=72)
    run_scenario(get_scenario("smr-open-loop"), recorder=recorder)
    print(f"{recorder.emitted} events emitted, {recorder.dropped} dropped")
    print("the ring's last 14 events ('<- ids' are causal parents):")
    dump = FlightDump(recorder.header(), list(recorder.events))
    print(render_timeline(dump, limit=14))


def stop_three_monitor() -> None:
    print()
    print("=" * 72)
    print("3. the performance monitor vs a throttled leader")
    print("=" * 72)
    on_spec = get_scenario("throttling-byzantine-leader")
    off_spec = on_spec.with_(
        name="throttling-byzantine-leader-unmonitored",
        protocol_options={**on_spec.protocol_options, "monitor": False},
    )
    print("leader 0 honest but +9 delay on every message it sends;")
    print("pacemaker timeout 60 — it never fires.\n")
    tails = {}
    for label, spec in (("monitor off", off_spec), ("monitor on ", on_spec)):
        result = run_scenario(spec)
        assert result.ok, [str(v) for v in result.failures]
        # Each client's first 4 completions land while the monitor is
        # still sampling: the tail is the steady state after them.
        tail = tails[label] = Stats.from_values(
            [latency for client in result.latencies for latency in client[4:]]
        )
        monitors = result.metrics.get("monitors", {}).values()
        print(
            f"{label}: p50={tail.p50:5.1f} p99={tail.p99:5.1f} "
            f"duration={result.decision_time:5.1f} demotions="
            f"{sum(m['demotions'] for m in monitors)} view_floor="
            f"{max([1, *(m['view_floor'] for m in monitors)])}"
        )
    off, on = tails["monitor off"].p99, tails["monitor on "].p99
    assert on < off
    print(
        "\nwith the monitor on, the honest replicas gathered 2f+1 signed "
        "demotion votes,\nrotated leadership away from replica 0 and pulled "
        f"p99 from {off:.1f} down to {on:.1f}."
    )


def main() -> None:
    stop_one_metrics()
    stop_two_recording()
    stop_three_monitor()


if __name__ == "__main__":
    main()
