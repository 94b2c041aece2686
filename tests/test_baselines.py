"""Tests for the baseline protocols: PBFT, FaB Paxos, crash Paxos."""

import pytest

from repro.baselines.fab import FaBConfig, FaBProcess
from repro.baselines.paxos import PaxosConfig, PaxosProcess
from repro.baselines.pbft import PBFTConfig, PBFTProcess
from repro.byzantine.behaviors import SilentProcess
from repro.scenarios import (
    ADAPTERS,
    ByzantineRole,
    DelaySpec,
    ScenarioSpec,
    run_scenario,
)
from repro.sim.network import RoundSynchronousDelay, SynchronousDelay
from repro.sim.runner import Cluster


def _run_minimal(protocol, f, t=None, silent=(), timeout=1_000.0):
    """A minimum deployment of ``protocol`` under round-synchronous
    delays, with the ``silent`` pids never taking a step."""
    n = ADAPTERS[protocol].min_n(f, f if t is None else t)
    return run_scenario(
        ScenarioSpec(
            name=f"{protocol}-minimal",
            protocol=protocol,
            n=n,
            f=f,
            t=t,
            delay=DelaySpec(kind="round"),
            byzantine=tuple(ByzantineRole(pid) for pid in silent),
            timeout=timeout,
        )
    )


class TestPBFT:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            PBFTConfig(n=3, f=1)
        with pytest.raises(ValueError):
            PBFTConfig(n=4, f=0)
        assert PBFTConfig(n=4, f=1).prepare_quorum == 3

    def test_common_case_three_delays(self):
        config = PBFTConfig(n=4, f=1)
        procs = [PBFTProcess(p, config, "v") for p in range(config.n)]
        result = Cluster(procs, delay_model=RoundSynchronousDelay()).run_until_decided()
        assert result.decision_time == 3.0

    @pytest.mark.parametrize("f", [1, 2, 3])
    def test_three_delays_at_any_scale(self, f):
        config = PBFTConfig(n=3 * f + 1, f=f)
        procs = [PBFTProcess(p, config, "v") for p in range(config.n)]
        result = Cluster(procs, delay_model=RoundSynchronousDelay()).run_until_decided()
        assert result.decision_time == 3.0

    def test_decides_leader_value(self):
        config = PBFTConfig(n=4, f=1)
        procs = [PBFTProcess(p, config, f"v{p}") for p in range(config.n)]
        result = Cluster(procs, delay_model=RoundSynchronousDelay()).run_until_decided()
        assert result.decision_value == "v0"

    def test_leader_crash_recovery(self):
        config = PBFTConfig(n=4, f=1)
        procs = [PBFTProcess(p, config, f"v{p}") for p in range(config.n)]
        cluster = Cluster(procs, delay_model=SynchronousDelay(1.0))
        procs[0].crash()
        result = cluster.run_until_decided(correct_pids=[1, 2, 3], timeout=500)
        assert result.decided
        assert result.decision_value == "v1"

    def test_prepared_value_survives_view_change(self):
        """If a value prepared in view 1, the next leader re-proposes it."""
        config = PBFTConfig(n=4, f=1)
        procs = [PBFTProcess(p, config, f"v{p}") for p in range(config.n)]
        cluster = Cluster(procs, delay_model=SynchronousDelay(1.0))
        cluster.start()
        cluster.sim.run(until=2.5)  # prepares delivered, commits in flight
        prepared = [p.prepared for p in procs if p.prepared]
        assert prepared, "processes should have prepared by 2.5"
        for p in procs:
            p.enter_view(2)
        cluster.sim.run(until=cluster.sim.now + 30)
        values = {p.decided_value for p in procs if p.decided}
        assert values == {"v0"}

    def test_silent_faults_do_not_slow_pbft(self):
        config = PBFTConfig(n=7, f=2)
        procs = [PBFTProcess(p, config, "v") for p in range(config.n)]
        procs[5] = SilentProcess(5)
        procs[6] = SilentProcess(6)
        cluster = Cluster(procs, delay_model=RoundSynchronousDelay())
        result = cluster.run_until_decided(correct_pids=range(5), timeout=50)
        assert result.decision_time == 3.0


class TestFaB:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            FaBConfig(n=5, f=1)  # needs 6
        config = FaBConfig(n=6, f=1)
        assert config.t == 1
        assert config.fast_quorum == 5
        assert config.select_threshold == 3

    def test_parameterized_configuration(self):
        config = FaBConfig(n=10, f=2, t=1)  # 3f + 2t + 1 = 9 <= 10
        assert config.fast_quorum == 9

    def test_common_case_two_delays(self):
        config = FaBConfig(n=6, f=1)
        procs = [FaBProcess(p, config, "v") for p in range(config.n)]
        result = Cluster(procs, delay_model=RoundSynchronousDelay()).run_until_decided()
        assert result.decision_time == 2.0

    def test_fast_with_t_crashes(self):
        config = FaBConfig(n=6, f=1, t=1)
        procs = [FaBProcess(p, config, "v") for p in range(config.n)]
        procs[5] = SilentProcess(5)
        cluster = Cluster(procs, delay_model=RoundSynchronousDelay())
        result = cluster.run_until_decided(correct_pids=range(5), timeout=50)
        assert result.decision_time == 2.0

    def test_leader_crash_recovery(self):
        config = FaBConfig(n=6, f=1)
        procs = [FaBProcess(p, config, f"v{p}") for p in range(config.n)]
        cluster = Cluster(procs, delay_model=SynchronousDelay(1.0))
        procs[0].crash()
        result = cluster.run_until_decided(correct_pids=range(1, 6), timeout=500)
        assert result.decided
        assert result.decision_value == "v1"

    def test_accepted_value_survives_recovery(self):
        """A fast-decided value must be re-proposed by the next leader."""
        config = FaBConfig(n=6, f=1)
        procs = [FaBProcess(p, config, f"v{p}") for p in range(config.n)]
        cluster = Cluster(procs, delay_model=SynchronousDelay(1.0))
        cluster.start()
        cluster.sim.run(until=2.5)
        decided = {p.decided_value for p in procs if p.decided}
        assert decided == {"v0"}
        for p in procs:
            p.enter_view(2)
        cluster.sim.run(until=cluster.sim.now + 30)
        assert {p.decided_value for p in procs if p.decided} == {"v0"}

    @pytest.mark.xfail(
        strict=True,
        reason="FaB's only decision quorum is n - t and it has no slow "
        "path, so more than t faults leave it undecided",
    )
    @pytest.mark.parametrize(
        "f, t, silent", [(2, 1, (7, 8)), (3, 1, (10, 11)), (3, 1, (9, 10, 11))]
    )
    def test_decides_beyond_t_faults(self, f, t, silent):
        result = _run_minimal("fab", f, t, silent=silent, timeout=5_000.0)
        assert result.decided, [str(v) for v in result.failures]

    def test_needs_two_more_processes_than_ours(self):
        from repro.core.quorums import min_processes_fab, min_processes_fast_bft

        for f in range(1, 6):
            for t in range(1, f + 1):
                assert (
                    min_processes_fab(f, t)
                    >= min_processes_fast_bft(f, t) + 2
                    or min_processes_fast_bft(f, t) == 3 * f + 1
                )


class TestPaxos:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            PaxosConfig(n=2, f=1)
        assert PaxosConfig(n=3, f=1).majority == 2

    def test_common_case_two_delays(self):
        config = PaxosConfig(n=3, f=1)
        procs = [PaxosProcess(p, config, "v") for p in range(config.n)]
        result = Cluster(procs, delay_model=RoundSynchronousDelay()).run_until_decided()
        assert result.decision_time == 2.0

    def test_leader_crash_recovery(self):
        config = PaxosConfig(n=3, f=1)
        procs = [PaxosProcess(p, config, f"v{p}") for p in range(config.n)]
        cluster = Cluster(procs, delay_model=SynchronousDelay(1.0))
        procs[0].crash()
        result = cluster.run_until_decided(correct_pids=[1, 2], timeout=500)
        assert result.decided
        assert result.decision_value == "v1"

    def test_accepted_value_survives_ballot_change(self):
        config = PaxosConfig(n=3, f=1)
        procs = [PaxosProcess(p, config, f"v{p}") for p in range(config.n)]
        cluster = Cluster(procs, delay_model=SynchronousDelay(1.0))
        cluster.start()
        cluster.sim.run(until=2.5)  # v0 decided at 2.0
        for p in procs:
            p.enter_ballot(2)
        cluster.sim.run(until=cluster.sim.now + 30)
        assert {p.decided_value for p in procs} == {"v0"}

    def test_old_ballot_accept_rejected_after_promise(self):
        config = PaxosConfig(n=3, f=1)
        procs = [PaxosProcess(p, config, f"v{p}") for p in range(config.n)]
        cluster = Cluster(procs, delay_model=SynchronousDelay(1.0))
        cluster.start()
        from repro.baselines.paxos import PaxosAccept, PaxosPrepare

        acceptor = procs[2]
        acceptor._handle_prepare(1, PaxosPrepare(ballot=5))
        before = acceptor.accepted_ballot
        acceptor._handle_accept(0, PaxosAccept(ballot=1, value="stale"))
        assert acceptor.accepted_ballot == before  # stale accept ignored

    def test_crash_minority_still_decides(self):
        config = PaxosConfig(n=5, f=2)
        procs = [PaxosProcess(p, config, "v") for p in range(config.n)]
        procs[3] = SilentProcess(3)
        procs[4] = SilentProcess(4)
        cluster = Cluster(procs, delay_model=RoundSynchronousDelay())
        result = cluster.run_until_decided(correct_pids=range(3), timeout=50)
        assert result.decision_time == 2.0


class TestLatencyComparison:
    def test_paper_motivation_table(self):
        """The gap the paper opens with: Paxos/ours 2 delays, PBFT 3."""
        results = {
            key: _run_minimal(key, f=1) for key in ("fbft", "fab", "pbft", "paxos")
        }
        assert {key: r.steps for key, r in results.items()} == {
            "fbft": 2, "fab": 2, "pbft": 3, "paxos": 2,
        }
        assert all(r.ok for r in results.values())

    def test_process_counts_at_f1(self):
        assert ADAPTERS["fbft"].min_n(1, 1) == 4
        assert ADAPTERS["fab"].min_n(1, 1) == 6
        assert ADAPTERS["pbft"].min_n(1, 1) == 4
        assert ADAPTERS["paxos"].min_n(1, 1) == 3
