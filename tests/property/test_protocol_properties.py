"""Property-based end-to-end tests: consensus invariants under random
fault patterns and random network timing.

These drive whole protocol executions inside hypothesis: whatever the
(bounded) adversary does to timing and whichever f processes fail,
consistency and validity must hold; liveness must hold once timing is
eventually synchronous.
"""

import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent.parent))

from repro.byzantine.behaviors import EquivocatingLeader, SilentProcess
from repro.core.fastbft import FastBFTProcess
from repro.core.generalized import GeneralizedFBFTProcess
from repro.sim.network import RandomDelay
from repro.sim.runner import Cluster

from helpers import examples, make_config, make_registry


def run_with_crashes(n, f, t, crashed, seed, inputs):
    config = make_config(n=n, f=f, t=t)
    registry = make_registry(config)
    cls = FastBFTProcess if config.is_vanilla else GeneralizedFBFTProcess
    processes = []
    for pid in config.process_ids:
        if pid in crashed:
            processes.append(SilentProcess(pid))
        else:
            processes.append(cls(pid, config, registry, inputs[pid]))
    cluster = Cluster(
        processes, delay_model=RandomDelay(0.5, 1.5, seed=seed)
    )
    correct = [pid for pid in config.process_ids if pid not in crashed]
    result = cluster.run_until_decided(correct_pids=correct, timeout=3000)
    return cluster, correct, result, config


class TestVanillaProtocol:
    @given(
        crashed=st.sets(st.integers(min_value=0, max_value=3), max_size=1),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=examples(25), deadline=None)
    def test_n4_f1_consistency_and_liveness(self, crashed, seed):
        inputs = {pid: f"v{pid}" for pid in range(4)}
        cluster, correct, result, config = run_with_crashes(
            4, 1, 1, crashed, seed, inputs
        )
        assert result.decided, f"no liveness with crashed={crashed} seed={seed}"
        value = cluster.trace.check_agreement(correct)
        # Extended validity: the decided value is some process's input.
        assert value in inputs.values()

    @given(
        crashed=st.sets(st.integers(min_value=0, max_value=8), max_size=2),
        seed=st.integers(min_value=0, max_value=2_000),
    )
    @settings(max_examples=examples(10), deadline=None)
    def test_n9_f2_consistency_and_liveness(self, crashed, seed):
        inputs = {pid: f"v{pid}" for pid in range(9)}
        cluster, correct, result, config = run_with_crashes(
            9, 2, 2, crashed, seed, inputs
        )
        assert result.decided
        value = cluster.trace.check_agreement(correct)
        assert value in inputs.values()


class TestGeneralizedProtocol:
    @given(
        crashed=st.sets(st.integers(min_value=0, max_value=6), max_size=2),
        seed=st.integers(min_value=0, max_value=2_000),
    )
    @settings(max_examples=examples(10), deadline=None)
    def test_n7_f2_t1_all_fault_patterns(self, crashed, seed):
        inputs = {pid: f"v{pid}" for pid in range(7)}
        cluster, correct, result, config = run_with_crashes(
            7, 2, 1, crashed, seed, inputs
        )
        assert result.decided
        value = cluster.trace.check_agreement(correct)
        assert value in inputs.values()


class TestEquivocationNeverBreaksConsistency:
    @given(
        split=st.integers(min_value=0, max_value=3),
        ack_subset=st.sets(st.integers(min_value=1, max_value=3), max_size=3),
        seed=st.integers(min_value=0, max_value=2_000),
    )
    @settings(max_examples=examples(20), deadline=None)
    def test_random_equivocation_patterns(self, split, ack_subset, seed):
        """Leader of view 1 equivocates arbitrarily: consistency must hold
        among the 3 correct processes of an n=4, f=1 deployment."""
        config = make_config(n=4, f=1)
        registry = make_registry(config)
        correct = [1, 2, 3]
        assignments = {
            pid: ("x" if i < split else "y")
            for i, pid in enumerate(correct)
        }
        leader = EquivocatingLeader(
            0,
            registry,
            config,
            view=1,
            assignments=assignments,
            ack_value="x",
            ack_to=tuple(sorted(ack_subset)),
            ack_time=1.0,
        )
        processes = [leader] + [
            FastBFTProcess(pid, config, registry, f"v{pid}") for pid in correct
        ]
        cluster = Cluster(
            processes, delay_model=RandomDelay(0.5, 1.5, seed=seed)
        )
        result = cluster.run_until_decided(correct_pids=correct, timeout=3000)
        assert result.decided
        cluster.trace.check_agreement(correct)
