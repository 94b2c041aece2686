"""The scenario engine: specs, adapters, runner, oracles, CLI.

The acceptance-critical cases live here: every canonical scenario passes
its oracles for FBFT and the baselines, and a deliberately injected
safety bug (relaxed fast quorum) is caught by the agreement oracle.
"""

import json
import math

import pytest

from repro.scenarios import (
    ADAPTERS,
    SCENARIOS,
    ByzantineRole,
    ScenarioError,
    ScenarioSpec,
    get_scenario,
    run_scenario,
)
from repro.scenarios.spec import (
    Crash,
    DelayRuleOff,
    DelayRuleOn,
    DelaySpec,
    PartitionHeal,
    PartitionStart,
    Recover,
    WorkloadSpec,
)


class TestSpecValidation:
    def test_defaults_are_valid(self):
        ScenarioSpec(name="ok").validate()

    def test_fault_budget_enforced(self):
        spec = ScenarioSpec(
            name="too-many", n=4, f=1,
            byzantine=(ByzantineRole(pid=0), ByzantineRole(pid=1)),
        )
        with pytest.raises(ScenarioError, match="fault budget"):
            spec.validate()

    def test_crash_counts_toward_budget_even_with_recover(self):
        spec = ScenarioSpec(
            name="crash-budget", n=4, f=1,
            byzantine=(ByzantineRole(pid=0),),
            faults=(Crash(at=1.0, pid=1), Recover(at=2.0, pid=1)),
        )
        with pytest.raises(ScenarioError, match="fault budget"):
            spec.validate()

    def test_byzantine_pid_out_of_range(self):
        with pytest.raises(ScenarioError, match="not in 0"):
            ScenarioSpec(
                name="bad", n=4, f=1, byzantine=(ByzantineRole(pid=9),)
            ).validate()

    def test_partition_group_out_of_range(self):
        spec = ScenarioSpec(
            name="bad-group", n=4, f=1,
            faults=(PartitionStart(at=0.0, groups=((0, 9),)),),
        )
        with pytest.raises(ScenarioError, match="partition group"):
            spec.validate()

    def test_byzantine_and_crashed_overlap_rejected(self):
        spec = ScenarioSpec(
            name="overlap", n=7, f=2,
            byzantine=(ByzantineRole(pid=1),),
            faults=(Crash(at=1.0, pid=1),),
        )
        with pytest.raises(ScenarioError, match="both Byzantine"):
            spec.validate()

    def test_unknown_behavior_rejected(self):
        with pytest.raises(ScenarioError, match="unknown Byzantine behavior"):
            ByzantineRole(pid=0, behavior="gaslight")

    def test_unknown_delay_kind_rejected(self):
        with pytest.raises(ScenarioError, match="unknown delay kind"):
            DelaySpec(kind="quantum")

    @pytest.mark.parametrize(
        "bounds", [(2.0, 1.0), (-0.5, 1.0), (math.nan, 1.0)],
        ids=["min-above-max", "negative-min", "nan-min"],
    )
    def test_bad_random_delay_bounds_fail_closed(self, bounds):
        min_delay, max_delay = bounds
        with pytest.raises(ScenarioError, match="min_delay <= max_delay"):
            DelaySpec(kind="random", min_delay=min_delay, max_delay=max_delay)
        data = get_scenario("fast-path-clean").to_dict()
        data["delay"] = dict(
            data["delay"], kind="random", min_delay=min_delay, max_delay=max_delay
        )
        with pytest.raises(ScenarioError, match="min_delay <= max_delay"):
            ScenarioSpec.from_dict(data)

    def test_unknown_protocol_option_rejected(self):
        spec = ScenarioSpec(
            name="opt", protocol="pbft", n=4, f=1,
            protocol_options={"warp_speed": True},
        )
        with pytest.raises(ScenarioError, match="warp_speed"):
            run_scenario(spec)

    def test_crash_only_protocol_rejects_byzantine_roles(self):
        spec = ScenarioSpec(
            name="paxos-byz", protocol="paxos", n=3, f=1,
            byzantine=(ByzantineRole(pid=0),),
        )
        with pytest.raises(ScenarioError, match="crash-fault only"):
            run_scenario(spec)


class TestSpecSerialization:
    def test_json_round_trip_for_every_canonical_scenario(self):
        for spec in SCENARIOS.values():
            data = json.loads(json.dumps(spec.to_dict()))
            assert ScenarioSpec.from_dict(data) == spec

    def test_round_trip_preserves_fault_schedule(self):
        spec = ScenarioSpec(
            name="rt", n=4, f=1,
            faults=(
                Crash(at=1.0, pid=2),
                Recover(at=5.0, pid=2),
                PartitionStart(at=2.0, groups=((0, 1), (2, 3))),
                PartitionHeal(at=9.0),
                DelayRuleOn(at=0.0, name="r", extra_delay=1.5, dst=(3,)),
                DelayRuleOff(at=4.0, name="r"),
            ),
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_workload_round_trip(self):
        spec = get_scenario("smr-open-loop")
        assert ScenarioSpec.from_dict(spec.to_dict()).workload == spec.workload


class TestWorkloadSpec:
    def test_commands_deterministic_per_seed(self):
        workload = WorkloadSpec(clients=2, requests_per_client=5, seed=3)
        assert workload.commands_for(0) == workload.commands_for(0)
        assert workload.commands_for(0) != workload.commands_for(1)

    def test_hot_fraction_hits_hot_key(self):
        workload = WorkloadSpec(
            clients=1, requests_per_client=50, hot_fraction=1.0, seed=1
        )
        assert all(cmd[1] == "k0" for cmd in workload.commands_for(0))


class TestCanonicalLibrary:
    def test_library_covers_fbft_and_all_baselines(self):
        protocols = {spec.protocol for spec in SCENARIOS.values()}
        assert {"fbft", "pbft", "fab", "paxos", "optimistic", "fbft-smr"} <= protocols

    def test_unknown_scenario_name_raises(self):
        with pytest.raises(ScenarioError, match="unknown scenario"):
            get_scenario("does-not-exist")

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_every_canonical_scenario_passes_all_oracles(self, name):
        result = run_scenario(get_scenario(name))
        assert result.ok, f"{name}: {[str(v) for v in result.failures]}"

    def test_fast_path_clean_is_two_steps(self):
        result = run_scenario(get_scenario("fast-path-clean"))
        assert result.decided and result.steps == 2

    def test_pbft_clean_is_three_steps(self):
        result = run_scenario(get_scenario("pbft-clean"))
        assert result.decided and result.steps == 3

    def test_partition_heal_decides_only_after_heal(self):
        result = run_scenario(get_scenario("partition-heal"))
        assert result.decided and result.decision_time > 50.0

    def test_smr_client_crash_does_not_consume_replica_budget(self):
        """Crashing a *client* (pid >= n) is free: it neither trips the
        f-budget validation nor fails liveness for the other clients."""
        spec = get_scenario("smr-open-loop").with_(
            name="smr-client-crash",
            faults=(Crash(at=0.5, pid=5),),  # pid 5 is the second client
        )
        spec.validate()  # budget: replica faults only
        result = run_scenario(spec)
        assert result.ok
        assert result.completed_requests < result.total_requests

    def test_smr_scenario_completes_workload(self):
        result = run_scenario(get_scenario("smr-open-loop"))
        assert result.completed_requests == result.total_requests == 8
        assert result.applied_slots >= 1

    def test_smr_crash_recovery_mid_slot(self):
        """A replica crashed mid-slot and recovered later: nothing executes
        twice, no slot timer fires while down, and the client's workload
        drains through the live majority."""
        result = run_scenario(get_scenario("smr-crash-recovery"))
        assert result.ok, [str(v) for v in result.failures]
        assert result.completed_requests == result.total_requests == 6
        dedup = next(
            v for v in result.verdicts if v.name == "no-duplicate-execution"
        )
        assert dedup.passed is True

    def test_throughput_family_batching_beats_seed_config(self):
        """Identical client load: the batched+pipelined engine drains it in
        less simulated time over fewer slots than the single-slot seed."""
        seed = run_scenario(get_scenario("smr-throughput-seed"))
        batched = run_scenario(get_scenario("smr-throughput-batched"))
        assert seed.ok and batched.ok
        assert seed.completed_requests == batched.completed_requests == 16
        assert batched.decision_time < seed.decision_time
        assert batched.applied_slots < seed.applied_slots

    def test_throughput_family_pbft_backend(self):
        """The pbft-smr adapter runs the same engine over PBFT instances;
        its extra message delay shows up as a slower drain."""
        pbft = run_scenario(get_scenario("smr-throughput-pbft"))
        fbft = run_scenario(get_scenario("smr-throughput-batched"))
        assert pbft.ok
        assert pbft.completed_requests == 16
        assert pbft.decision_time > fbft.decision_time

    def test_no_duplicate_execution_oracle_not_applicable_to_consensus(self):
        result = run_scenario(get_scenario("fast-path-clean"))
        dedup = next(
            v for v in result.verdicts if v.name == "no-duplicate-execution"
        )
        assert dedup.passed is None

    def test_bytes_accounted(self):
        result = run_scenario(get_scenario("fast-path-clean"))
        assert result.bytes_sent > 0
        assert result.messages_sent > 0

    def test_smr_result_carries_traffic_latencies_and_replica_state(
        self, monkeypatch
    ):
        spec = get_scenario("durable-recovery")
        adapter = ADAPTERS[spec.protocol]
        built = []
        build = adapter.build
        monkeypatch.setattr(
            adapter, "build", lambda spec: built.append(build(spec)) or built[0]
        )
        result = run_scenario(spec)
        assert sum(result.bytes_by_type.values()) == result.bytes_sent
        assert result.bytes_by_type.keys() == result.messages_by_type.keys()
        assert result.bytes_by_type["CatchupReply"] > 0
        (scenario,) = built
        assert result.latencies == tuple(
            tuple(client.latencies()) for client in scenario.clients
        )
        assert len(result.latencies[0]) == result.total_requests == 12
        assert result.replica_state == {
            replica.pid: {
                "executed_upto": replica.executed_upto,
                "stable_slot": replica.stable_checkpoint_slot,
                "wal_records": len(replica.storage.wal),
            }
            for replica in scenario.replicas
        }
        assert sorted(result.replica_state) == [0, 1, 2, 3]


#: The adversarial timing that exposes a relaxed fast quorum at n = 4:
#: the majority side's acks toward the minority process are stalled, so
#: the minority counts its own ack plus the Byzantine leader's.
_STALL_MAJORITY_ACKS = (
    DelayRuleOn(
        at=0.0, name="stall-majority-acks",
        src=(1, 2), dst=(3,), payload_types=("Ack",), extra_delay=5.0,
    ),
)


class TestInjectedSafetyBug:
    """Acceptance criterion: the agreement oracle catches a deliberately
    relaxed fast-quorum size that the sound configuration survives."""

    def _spec(self, **changes):
        base = get_scenario("equivocating-leader").with_(
            faults=_STALL_MAJORITY_ACKS
        )
        return base.with_(**changes)

    def test_sound_configuration_survives_the_same_adversary(self):
        result = run_scenario(self._spec(name="eq-sound"))
        assert result.ok
        assert result.decision_value == "x"  # possibly-decided value recovered

    def test_relaxed_fast_quorum_caught_by_agreement_oracle(self):
        result = run_scenario(self._spec(
            name="eq-buggy", protocol_options={"fast_quorum_delta": 1}
        ))
        assert not result.ok
        agreement = result.verdicts[0]
        assert agreement.name == "agreement"
        assert agreement.failed
        assert result.safety_violation is not None

    def test_validity_oracle_unaffected_by_the_bug(self):
        """Disagreement is on x vs y — both declared Byzantine proposals —
        so only the agreement oracle (not validity) must fire."""
        result = run_scenario(self._spec(
            name="eq-buggy-2", protocol_options={"fast_quorum_delta": 1}
        ))
        validity = next(v for v in result.verdicts if v.name == "validity")
        assert validity.passed is True


class TestFaultScheduleExecution:
    def test_crash_and_recover_round_trip(self):
        spec = ScenarioSpec(
            name="crash-recover", n=4, f=1,
            faults=(Crash(at=0.2, pid=3), Recover(at=3.0, pid=3)),
            timeout=600.0,
        )
        result = run_scenario(spec)
        # pid 3 is faulty (crashed once) so liveness doesn't oblige it,
        # but the others must decide and agree.
        assert result.ok
        assert set(result.per_pid_decisions) >= {0, 1, 2}

    def test_delay_rule_window_slows_but_does_not_stop(self):
        slow = ScenarioSpec(
            name="slow-proposes", n=4, f=1,
            faults=(
                DelayRuleOn(at=0.0, name="p", payload_types=("Propose",),
                            extra_delay=7.0),
                DelayRuleOff(at=30.0, name="p"),
            ),
            timeout=600.0,
        )
        result = run_scenario(slow)
        assert result.ok
        baseline = run_scenario(ScenarioSpec(name="clean", n=4, f=1))
        assert result.decision_time > baseline.decision_time

    def test_every_adapter_has_distinct_key(self):
        assert len(ADAPTERS) == len({a.key for a in ADAPTERS.values()})


class TestCLI:
    def test_list_command(self, capsys):
        from repro.scenarios.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fast-path-clean" in out and "fbft-smr" in out

    def test_run_command_ok(self, capsys):
        from repro.scenarios.__main__ import main

        assert main(["run", "fast-path-clean"]) == 0
        assert "agreement" in capsys.readouterr().out

    def test_run_json_output_parses(self, capsys):
        from repro.scenarios.__main__ import main

        assert main(["run", "fast-path-clean", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True and payload["steps"] == 2

    def test_run_unknown_scenario_exits_2(self, capsys):
        from repro.scenarios.__main__ import main

        assert main(["run", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err
