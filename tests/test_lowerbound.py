"""Tests for the lower-bound machinery (Section 4)."""

import pytest

from repro.core.config import ProtocolConfig
from repro.core.fastbft import FastBFTProcess
from repro.core.generalized import GeneralizedFBFTProcess
from repro.crypto.keys import KeyRegistry
from repro.lowerbound import (
    InitialConfiguration,
    all_fault_sets,
    binary_configuration,
    check_t_two_step,
    find_influential_process,
    run_splice_attack,
    run_t_faulty_execution,
    splice_boundary_demo,
)


def fbft_factory(n, f, t=None):
    config = ProtocolConfig(n=n, f=f, t=t if t is not None else f)
    registry = KeyRegistry.for_processes(config.process_ids)
    cls = FastBFTProcess if config.is_vanilla else GeneralizedFBFTProcess

    def factory(pid, input_value):
        return cls(pid, config, registry, input_value)

    return factory


def pbft_factory(n, f):
    from repro.baselines.pbft import PBFTConfig, PBFTProcess

    config = PBFTConfig(n=n, f=f)

    def factory(pid, input_value):
        return PBFTProcess(pid, config, input_value)

    return factory


class TestInitialConfigurations:
    def test_binary_configuration(self):
        config = binary_configuration(5, 2)
        assert config.inputs == (1, 1, 0, 0, 0)
        assert config.input_of(0) == 1
        assert config.input_of(4) == 0

    def test_extremes(self):
        assert binary_configuration(4, 0).inputs == (0, 0, 0, 0)
        assert binary_configuration(4, 4).inputs == (1, 1, 1, 1)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            binary_configuration(4, 5)

    def test_all_fault_sets(self):
        sets = all_fault_sets(4, 1)
        assert sets == [(0,), (1,), (2,), (3,)]
        assert len(all_fault_sets(6, 2)) == 15
        assert len(all_fault_sets(6, 2, limit=5)) == 5


class TestTFaultyExecutions:
    def test_our_protocol_is_two_step_without_leader_fault(self):
        factory = fbft_factory(4, 1)
        config = InitialConfiguration(inputs=("v",) * 4)
        result = run_t_faulty_execution(factory, config, faulty=[3])
        assert result.two_step
        assert result.consensus_value == "v"

    def test_our_protocol_is_two_step_even_with_faulty_leader(self):
        """T may include the leader: it behaves honestly in round 1 and
        crashes at DELTA — the fast path still completes (Section 4.3)."""
        factory = fbft_factory(4, 1)
        config = InitialConfiguration(inputs=("v",) * 4)
        result = run_t_faulty_execution(factory, config, faulty=[0])
        assert result.two_step

    def test_consensus_value_is_leaders_input(self):
        factory = fbft_factory(4, 1)
        config = InitialConfiguration(inputs=("L", "a", "b", "c"))
        result = run_t_faulty_execution(factory, config, faulty=[2])
        assert result.consensus_value == "L"

    def test_pbft_is_not_two_step(self):
        factory = pbft_factory(4, 1)
        config = InitialConfiguration(inputs=("v",) * 4)
        result = run_t_faulty_execution(factory, config, faulty=[3])
        assert not result.two_step

    def test_pbft_decides_with_grace_rounds(self):
        factory = pbft_factory(4, 1)
        config = InitialConfiguration(inputs=("v",) * 4)
        result = run_t_faulty_execution(
            factory, config, faulty=[3], grace_rounds=2
        )
        assert not result.two_step  # verdict still about 2 * DELTA
        assert len(result.decision_times) == 3  # but everyone decided by 4

    def test_invalid_faulty_pid_rejected(self):
        factory = fbft_factory(4, 1)
        config = InitialConfiguration(inputs=("v",) * 4)
        with pytest.raises(ValueError):
            run_t_faulty_execution(factory, config, faulty=[9])


class TestTwoStepChecker:
    def test_our_protocol_passes_all_fault_sets(self):
        report = check_t_two_step(
            fbft_factory(4, 1), n=4, t=1, protocol_name="fbft"
        )
        assert report.is_t_two_step
        assert report.executions == 4
        assert report.failures == ()

    def test_generalized_passes_at_3f_plus_1(self):
        report = check_t_two_step(fbft_factory(7, 2, t=1), n=7, t=1)
        assert report.is_t_two_step

    def test_pbft_fails_everywhere(self):
        report = check_t_two_step(
            pbft_factory(4, 1), n=4, t=1, protocol_name="pbft"
        )
        assert not report.is_t_two_step
        assert report.two_step_executions == 0

    def test_custom_configurations(self):
        configs = [
            InitialConfiguration(inputs=("a",) * 4),
            InitialConfiguration(inputs=("b",) * 4),
        ]
        report = check_t_two_step(
            fbft_factory(4, 1), n=4, t=1, configurations=configs
        )
        assert report.executions == 8
        assert report.is_t_two_step


class TestInfluentialProcess:
    def test_leader_is_influential(self):
        """Lemma 4.4's walk lands on the view-1 leader for our protocol."""
        witness = find_influential_process(fbft_factory(4, 1), n=4, t=1)
        assert witness is not None
        assert witness.pid == 0
        assert witness.check()
        assert witness.value0 == 0 and witness.value1 == 1

    def test_witness_structural_conditions(self):
        witness = find_influential_process(fbft_factory(9, 2), n=9, t=2)
        assert witness is not None
        assert witness.check()
        assert not (set(witness.t0_set) & set(witness.t1_set))
        assert witness.pid not in witness.t0_set
        assert witness.pid not in witness.t1_set

    def test_witness_configs_differ_only_at_pid(self):
        witness = find_influential_process(fbft_factory(4, 1), n=4, t=1)
        diffs = [
            i
            for i in range(4)
            if witness.config0.input_of(i) != witness.config1.input_of(i)
        ]
        assert diffs == [witness.pid]


class TestSpliceAttack:
    def test_disagreement_below_bound_vanilla(self):
        outcome = run_splice_attack(f=2, t=2, n=8)
        assert outcome.violated
        assert len(outcome.fast_decisions) == 4  # n - t - f x-deciders
        assert all(v == "x" for _, v, _ in outcome.fast_decisions)

    def test_safety_at_bound_vanilla(self):
        outcome = run_splice_attack(f=2, t=2, n=9)
        assert outcome.safe
        assert outcome.final_value == "x"

    def test_boundary_demo_flips_exactly_at_bound(self):
        below, at = splice_boundary_demo(f=2)
        assert below.violated and at.safe

    def test_generalized_boundary(self):
        below, at = splice_boundary_demo(f=3, t=2)
        assert below.n == 11 and below.violated
        assert at.n == 12 and at.safe

    def test_attack_needs_f_at_least_2(self):
        with pytest.raises(ValueError):
            run_splice_attack(f=1)

    def test_invalid_t_rejected(self):
        with pytest.raises(ValueError):
            run_splice_attack(f=2, t=3)

    def test_attack_above_bound_also_safe(self):
        outcome = run_splice_attack(f=2, t=2, n=10)
        assert outcome.safe
