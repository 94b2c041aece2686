"""A decided SMR slot keeps no consensus state.

A replica drops a slot's consensus instance, its decision-gossip tally
and its context's tie to the replica's the moment it adopts the slot's
decision; a client drops a request's reply votes once it completes.
What the consensus layer holds after a run therefore does not grow with
the number of commands.
"""

import gc
import tracemalloc

import pytest

from repro.scenarios import runner
from repro.scenarios.library import SCENARIOS, get_scenario
from repro.scenarios.spec import ScenarioSpec, WorkloadSpec
from repro.sim.process import ProcessContext
from repro.smr import SMRClient
from repro.smr.replica import SMRReplica

#: Every library entry that runs the SMR engine: both backends
#: (``fbft-smr`` and ``pbft-smr``), crashes with the disk kept or lost,
#: catchup, and leader demotion.
SMR_SCENARIOS = sorted(
    name for name, spec in SCENARIOS.items() if spec.protocol.endswith("-smr")
)


@pytest.fixture
def run_kept(monkeypatch):
    """``run_scenario`` that also hands back the ``Cluster`` it ran, kept
    alive for inspection."""
    clusters = []
    build = runner.Cluster

    def capture(*args, **kwargs):
        clusters.append(build(*args, **kwargs))
        return clusters[-1]

    monkeypatch.setattr(runner, "Cluster", capture)

    def run(spec):
        result = runner.run_scenario(spec)
        return result, clusters.pop()

    return run


def _durable_spec(commands):
    return ScenarioSpec(
        name=f"durable-{commands}", protocol="fbft-smr", n=4, f=1, t=1,
        workload=WorkloadSpec(requests_per_client=commands, window=2, seed=3),
        protocol_options={"durability": True, "checkpoint_interval": 8},
        timeout=100_000.0,
    )


def test_a_longer_durable_run_holds_no_more_consensus_state(run_kept):
    def held(commands):
        tracemalloc.start()
        try:
            # ``cluster`` keeps every replica alive for the snapshot.
            result, cluster = run_kept(_durable_spec(commands))
            gc.collect()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        assert result.ok and result.completed_requests == commands
        snapshot = snapshot.filter_traces([
            tracemalloc.Filter(True, "*/repro/core/*"),
            tracemalloc.Filter(True, "*/repro/sync/*"),
            tracemalloc.Filter(True, "*/repro/sim/process.py"),
        ]).filter_traces([
            # Signing-payload tuples pinned by the key registry's bounded
            # memos (MEMO_LIMIT entries each): bounded, but not yet full
            # after a short run.
            tracemalloc.Filter(False, "*/repro/core/payloads.py"),
        ])
        return sum(stat.size for stat in snapshot.statistics("filename"))

    short, long = held(50), held(200)
    # A kept instance costs kilobytes per slot (ack, commit and leader
    # tables, its pacemaker, its context); what is left is the slots in
    # flight when the run ended.
    assert long <= short + 4096, (short, long)


@pytest.mark.parametrize("name", SMR_SCENARIOS)
def test_a_finished_run_holds_only_live_slots(run_kept, monkeypatch, name):
    released = []
    release = ProcessContext.release

    def checked(parent, child):
        # Released only once nothing arms its timers: one still armed
        # would fire after (or through) a crash of the replica.
        released.append(dict(child._timers))
        release(parent, child)

    monkeypatch.setattr(ProcessContext, "release", checked)
    result, cluster = run_kept(get_scenario(name))
    assert result.ok
    assert released and not any(released)
    for process in cluster.processes.values():
        if isinstance(process, SMRReplica):
            assert not process._instances.keys() & process._decided.keys()
            # One adopted context per live instance, and no other.
            assert sorted(map(id, process.ctx._children)) == sorted(
                id(instance.ctx) for instance in process._instances.values()
            )
            assert not process._decide_gossip.keys() & process._decided.keys()
        elif isinstance(process, SMRClient):
            assert not any(
                process.outcomes[request_id].completed
                for request_id in process._reply_votes
            )


def test_a_dropped_instance_still_counts_toward_the_highest_view(run_kept):
    """Coverage reads each replica's highest view; the slow leader is
    demoted, so every replica's later slots ran in view 2."""
    result, cluster = run_kept(get_scenario("slow-leader"))
    assert result.ok
    replicas = [p for p in cluster.processes.values() if isinstance(p, SMRReplica)]
    for replica in replicas:
        assert not replica._instances
        assert replica.highest_view == 2
