"""A run pays for a send once and for "are we done?" once.

Two harness costs used to grow with run length without being protocol
work: the end-of-run trace digest re-sized every recorded send, and the
SMR stop predicate re-scanned every client's ``outcomes`` after every
event.  Both are now bookkeeping done where the fact is established —
``Envelope.size`` at send time, ``SMRClient._completed`` where
``completed_at`` is set — and these tests hold the two seams to
deterministic, zero-tolerance counts over the canonical library.
"""

import dataclasses

import pytest

from repro._core import pure
from repro.obs.recorder import FlightRecorder
from repro.obs.tracing import CausalTracer
from repro.scenarios import runner
from repro.scenarios.adapters import ADAPTERS, PacedSMRClient
from repro.scenarios.library import SCENARIOS, get_scenario
from repro.scenarios.spec import Crash
from repro.sim import Cluster, trace_digest
from repro.sim.events import Simulator
from repro.sim.network import Network, SynchronousDelay, payload_size
from repro.smr import SMRClient
from repro.smr.replica import Reply

from test_smr import make_smr

SMR_SCENARIOS = sorted(
    name for name, spec in SCENARIOS.items() if spec.protocol.endswith("-smr")
)


@pytest.fixture
def run_observed(monkeypatch):
    """``run_scenario`` that also hands back the ``Cluster`` it ran."""
    clusters = []

    def capture(*args, **kwargs):
        clusters.append(Cluster(*args, **kwargs))
        return clusters[-1]

    monkeypatch.setattr(runner, "Cluster", capture)

    def run(scenario, **observers):
        spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
        result = runner.run_scenario(spec, **observers)
        return result, clusters.pop()

    return run


@pytest.fixture
def top_level_size_calls(monkeypatch):
    """Counts non-recursive ``payload_size`` calls (a one-element list)."""
    calls, depth = [0], [0]
    real = pure.payload_size

    def counting(payload):
        if not depth[0]:
            calls[0] += 1
        depth[0] += 1
        try:
            return real(payload)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(pure, "payload_size", counting)
    return calls


def _clients(cluster):
    return [p for p in cluster.processes.values() if isinstance(p, SMRClient)]


def _scanned(client):
    """Completions counted the slow way, by walking ``outcomes``."""
    return sum(o.completed for o in client.outcomes.values())


# ---------------------------------------------------------------------------
# Size once
# ---------------------------------------------------------------------------


class TestRecordedSendSize:
    @pytest.mark.parametrize("observed", [False, True], ids=["plain", "traced"])
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_recorded_sizes_are_the_accounted_bytes(
        self, run_observed, name, observed
    ):
        # "traced" stamps every envelope through TeeTracer's _replace;
        # the library's partition scenarios cover held/released sends.
        observers = (
            {"tracer": CausalTracer(), "recorder": FlightRecorder()}
            if observed
            else {}
        )
        result, cluster = run_observed(name, **observers)
        sends = cluster.trace.sends
        assert len(sends) == result.messages_sent
        assert sum(env.size for env in sends) == result.bytes_sent
        # Payloads are immutable once sent, so the size accounted then is
        # the size a walk finds now — why the digest may format it.
        assert all(env.size == payload_size(env.payload) for env in sends)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_a_run_sizes_each_distinct_send_once(
        self, run_observed, top_level_size_calls, name
    ):
        result, cluster = run_observed(name)
        stats = cluster.network.stats
        assert top_level_size_calls[0] == stats.size_cache_misses
        digest = trace_digest(cluster.trace, cluster.sim, stats)
        assert digest == result.trace_digest
        assert top_level_size_calls[0] == stats.size_cache_misses

    def test_partition_held_and_released_envelopes_keep_their_size(self):
        sim = Simulator()
        net = Network(
            sim, delay_model=SynchronousDelay(1.0), record_deliveries=True
        )
        for pid in (0, 1):
            net.register(pid, lambda src, payload: None)
        recorded = []
        net.add_send_hook(recorded.append)
        net.start_partition([{0}, {1}])
        payload = ("held", 7)
        sent = net.send(0, 1, payload)
        assert net.held_messages == (sent,) and recorded == [sent]
        sim.schedule_at(5.0, net.heal_partition)
        sim.run()
        (released,) = net.delivery_log
        assert (sent.deliver_time, released.deliver_time) == (1.0, 6.0)
        assert released.size == sent.size == payload_size(payload)
        assert net.stats.bytes_sent == sent.size


# ---------------------------------------------------------------------------
# Count once
# ---------------------------------------------------------------------------


class _NoScan(dict):
    """An ``outcomes`` dict that refuses to be walked."""

    def _refuse(self, *args):
        raise AssertionError("completion check iterated outcomes")

    __iter__ = keys = values = items = _refuse


class TestCompletionCounter:
    @pytest.mark.parametrize("name", SMR_SCENARIOS)
    def test_counter_equals_a_scan_after_every_smr_scenario(
        self, run_observed, name
    ):
        result, cluster = run_observed(name)
        clients = _clients(cluster)
        assert clients
        assert all(c.completed_count == _scanned(c) for c in clients)
        assert result.completed_requests == sum(
            c.completed_count for c in clients
        )

    def test_counter_equals_a_scan_when_a_client_crashes(self, run_observed):
        # No library scenario crashes a client; derive one.
        base = get_scenario("smr-throughput-seed")
        spec = dataclasses.replace(
            base, name="client-crash", faults=(Crash(at=6.0, pid=base.n),)
        )
        result, cluster = run_observed(spec)
        crashed, survivor = _clients(cluster)
        assert result.ok and survivor.all_completed
        assert 0 < crashed.completed_count < len(crashed.outcomes)
        assert not crashed.all_completed
        assert crashed.completed_count == _scanned(crashed)
        assert survivor.completed_count == _scanned(survivor)

    def test_replies_after_completion_do_not_count_twice(self):
        cluster, replicas, (client,) = make_smr()
        client.load_workload([("set", "x", 1)])
        cluster.start()
        cluster.sim.run()  # all n replies delivered; f + 1 completed it
        assert client.completed_count == 1
        outcome = client.outcomes[0]
        for replica in replicas:
            client.on_message(
                replica.pid,
                Reply(client.pid, 0, outcome.result, outcome.slot),
            )
        assert client.completed_count == 1 and client.all_completed

    def test_not_complete_without_submissions_or_with_queued_work(self):
        cluster, _, (client,) = make_smr()
        cluster.start()
        cluster.sim.run()
        assert not client.all_completed  # nothing was ever submitted
        client.submit(("set", "x", 1))
        cluster.sim.run_until(lambda: client.all_completed, timeout=200)
        client.load_workload([("set", "y", 2)])
        assert client.completed_count == 1
        assert not client.all_completed  # queued, not yet submitted

    def test_paced_clients_are_not_complete_before_their_first_timer(self):
        spec = get_scenario("smr-open-loop")
        built = ADAPTERS[spec.protocol].build(spec)
        assert built.clients
        assert all(isinstance(c, PacedSMRClient) for c in built.clients)
        cluster = Cluster(built.processes, delay_model=spec.delay.build())
        cluster.start()
        # on_start has not run: nothing submitted, everything planned.
        assert not any(c.outcomes or c.all_completed for c in built.clients)
        cluster.sim.run_until(
            lambda: all(c.all_completed for c in built.clients), timeout=500
        )
        assert all(c.completed_count == len(c.outcomes) for c in built.clients)

    @pytest.mark.parametrize("window", [1, 4])
    def test_polling_completion_never_iterates_outcomes(self, window):
        cluster, _, (client,) = make_smr(window=window)
        client.outcomes = _NoScan()
        client.load_workload([("set", f"k{i}", i) for i in range(6)])
        cluster.start()
        cluster.sim.run_until(lambda: client.all_completed, timeout=500)
        assert client.completed_count == 6 == len(client.outcomes)
