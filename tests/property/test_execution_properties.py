"""Property-based tests over whole T-faulty executions (Section 4.1)."""

import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent.parent))

from repro.core.config import ProtocolConfig
from repro.core.fastbft import FastBFTProcess
from repro.core.generalized import GeneralizedFBFTProcess
from repro.crypto.keys import KeyRegistry
from repro.lowerbound import (
    InitialConfiguration,
    binary_configuration,
    run_t_faulty_execution,
)

from helpers import examples


def factory_for(n, f, t):
    config = ProtocolConfig(n=n, f=f, t=t)
    registry = KeyRegistry.for_processes(config.process_ids)
    cls = FastBFTProcess if config.is_vanilla else GeneralizedFBFTProcess
    return lambda pid, value: cls(pid, config, registry, value)


FACTORY_4 = factory_for(4, 1, 1)
FACTORY_7 = factory_for(7, 2, 1)


class TestTwoStepInvariants:
    @given(
        ones=st.integers(min_value=0, max_value=4),
        faulty=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=examples(40), deadline=None)
    def test_n4_always_two_step_and_valid(self, ones, faulty):
        """For every binary configuration I_0..I_4 and every singleton
        fault set: the execution is two-step, agreement holds (checked
        inside), and the decided value is the leader's input (extended
        validity made concrete for this leader-based protocol)."""
        configuration = binary_configuration(4, ones)
        result = run_t_faulty_execution(FACTORY_4, configuration, [faulty])
        assert result.two_step
        assert result.consensus_value == configuration.input_of(0)

    @given(
        ones=st.integers(min_value=0, max_value=7),
        faulty=st.sets(
            st.integers(min_value=0, max_value=6), min_size=1, max_size=1
        ),
    )
    @settings(max_examples=examples(25), deadline=None)
    def test_generalized_n7_two_step(self, ones, faulty):
        configuration = binary_configuration(7, ones)
        result = run_t_faulty_execution(FACTORY_7, configuration, faulty)
        assert result.two_step
        assert result.consensus_value == configuration.input_of(0)

    @given(ones=st.integers(min_value=0, max_value=4))
    @settings(max_examples=examples(10), deadline=None)
    def test_weak_validity_lemma_4_3(self, ones):
        """Lemma 4.3: in an all-same-input configuration, every T-faulty
        two-step execution decides that input."""
        if ones not in (0, 4):
            value = "same"
            configuration = InitialConfiguration(inputs=(value,) * 4)
        else:
            configuration = binary_configuration(4, ones)
            value = configuration.input_of(0)
        for faulty in range(4):
            result = run_t_faulty_execution(FACTORY_4, configuration, [faulty])
            assert result.two_step
            assert result.consensus_value == value

    @given(
        ones=st.integers(min_value=0, max_value=4),
        faulty=st.integers(min_value=0, max_value=3),
        delta=st.sampled_from([0.5, 1.0, 2.0, 10.0]),
    )
    @settings(max_examples=examples(30), deadline=None)
    def test_two_step_independent_of_delta(self, ones, faulty, delta):
        """The two-step property is about rounds, not absolute time."""
        configuration = binary_configuration(4, ones)
        result = run_t_faulty_execution(
            FACTORY_4, configuration, [faulty], delta=delta
        )
        assert result.two_step

    @given(
        ones=st.integers(min_value=0, max_value=4),
        faulty=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=examples(20), deadline=None)
    def test_executions_deterministic(self, ones, faulty):
        configuration = binary_configuration(4, ones)
        a = run_t_faulty_execution(FACTORY_4, configuration, [faulty])
        b = run_t_faulty_execution(FACTORY_4, configuration, [faulty])
        assert a == b
