"""Tests for the Kursawe-style optimistic baseline."""

import pytest

from repro.baselines.optimistic import OptimisticConfig, OptimisticProcess
from repro.byzantine.behaviors import SilentProcess
from repro.sim.network import RoundSynchronousDelay, SynchronousDelay
from repro.sim.runner import Cluster


def build(n, f, silent=(), inputs=None, fallback_timeout=4.0):
    config = OptimisticConfig(n=n, f=f, fallback_timeout=fallback_timeout)
    procs = []
    for pid in range(config.n):
        if pid in silent:
            procs.append(SilentProcess(pid))
        else:
            value = (inputs or {}).get(pid, "v")
            procs.append(OptimisticProcess(pid, config, value))
    return Cluster(procs, delay_model=RoundSynchronousDelay(1.0)), procs


class TestConfig:
    def test_needs_3f_plus_1(self):
        with pytest.raises(ValueError):
            OptimisticConfig(n=3, f=1)
        assert OptimisticConfig(n=4, f=1).fast_quorum == 4

    def test_quorums(self):
        config = OptimisticConfig(n=7, f=2)
        assert config.fast_quorum == 7  # unanimity
        assert config.quorum == 5


class TestFastPath:
    def test_zero_faults_two_delays(self):
        cluster, procs = build(4, 1)
        result = cluster.run_until_decided()
        assert result.decision_time == 2.0
        assert not any(p.fell_back for p in procs)

    def test_larger_cluster_zero_faults(self):
        cluster, procs = build(10, 3)
        result = cluster.run_until_decided()
        assert result.decision_time == 2.0


class TestFallback:
    def test_single_fault_breaks_fast_path(self):
        """One silent process denies unanimity: the decision arrives only
        after the fallback timeout plus two more hops."""
        cluster, procs = build(4, 1, silent={3})
        result = cluster.run_until_decided(correct_pids=range(3), timeout=100)
        assert result.decided
        assert result.decision_time > 2.0
        assert result.decision_time == 6.0  # fallback at 4 + prepare + commit

    def test_contrast_with_our_protocol(self):
        """The paper's point: under one fault, our generalized protocol at
        the same n = 3f + 1 still decides in 2 delays; Kursawe-style does
        not."""
        from repro.core.config import ProtocolConfig
        from repro.core.generalized import GeneralizedFBFTProcess
        from repro.crypto.keys import KeyRegistry

        config = ProtocolConfig(n=4, f=1, t=1)
        registry = KeyRegistry.for_processes(config.process_ids)
        ours = [
            GeneralizedFBFTProcess(pid, config, registry, "v")
            for pid in config.process_ids
        ]
        ours[3] = SilentProcess(3)
        ours_result = Cluster(
            ours, delay_model=RoundSynchronousDelay(1.0)
        ).run_until_decided(correct_pids=range(3), timeout=100)

        cluster, _ = build(4, 1, silent={3})
        kursawe_result = cluster.run_until_decided(
            correct_pids=range(3), timeout=100
        )
        assert ours_result.decision_time == 2.0
        assert kursawe_result.decision_time > ours_result.decision_time

    def test_fallback_preserves_accepted_value(self):
        cluster, procs = build(4, 1, silent={3}, inputs={0: "L"})
        result = cluster.run_until_decided(correct_pids=range(3), timeout=100)
        assert result.decision_value == "L"


class TestViewChange:
    def test_leader_crash_recovery(self):
        config = OptimisticConfig(n=4, f=1)
        procs = [
            OptimisticProcess(pid, config, f"v{pid}")
            for pid in range(config.n)
        ]
        cluster = Cluster(procs, delay_model=SynchronousDelay(1.0))
        procs[0].crash()
        result = cluster.run_until_decided(correct_pids=[1, 2, 3], timeout=500)
        assert result.decided
        assert result.decision_value == "v1"

    def test_no_fast_decision_after_view_change(self):
        config = OptimisticConfig(n=4, f=1)
        procs = [
            OptimisticProcess(pid, config, f"v{pid}")
            for pid in range(config.n)
        ]
        cluster = Cluster(procs, delay_model=SynchronousDelay(1.0))
        procs[0].crash()
        cluster.run_until_decided(correct_pids=[1, 2, 3], timeout=500)
        assert all(p.fell_back for p in procs[1:])

    def test_stale_view_prepares_and_commits_are_not_counted(self):
        # A schedule the guided fuzzer found and shrank, with no
        # Byzantine process and no crash: across two healing partitions
        # before GST, prepares and commits of a past view were counted
        # after a view change and process 0 decided 'v0', then 'v1' —
        # until the table declared OptPrepare / OptCommit "fresh".
        from repro.scenarios.runner import run_scenario
        from repro.scenarios.spec import (
            DelaySpec, PartitionHeal, PartitionStart, ScenarioSpec,
        )

        spec = ScenarioSpec(
            name="optimistic-stale-view-commit",
            protocol="optimistic", n=5, f=1, t=1,
            delay=DelaySpec(
                kind="partial", gst=34.060139696896705,
                pre_gst_max=18.349966390325594, seed=13,
            ),
            faults=(
                PartitionStart(at=0.87, groups=((1, 3), (0, 2, 4))),
                PartitionHeal(at=19.46),
                PartitionStart(at=19.76, groups=((0, 1, 4), (2, 3))),
                PartitionHeal(at=43.91),
            ),
        )
        result = run_scenario(spec)
        assert result.safety_violation is None
        assert result.ok, [str(v) for v in result.failures]


class TestScenarioAdapter:
    def test_registered_with_the_scenario_engine(self):
        from repro.scenarios import ADAPTERS

        assert "optimistic" in ADAPTERS
        assert ADAPTERS["optimistic"].min_n(1, 1) == 4
