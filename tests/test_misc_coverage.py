"""Coverage for remaining public surfaces: helpers, result objects,
edge parameters."""

import pytest

from repro.lowerbound import (
    InfluentialWitness,
    binary_configuration,
    suspect_fault_sets,
)


class TestInfluentialWitnessChecks:
    def _witness(self, **overrides):
        base = dict(
            pid=0,
            config0=binary_configuration(4, 0),
            config1=binary_configuration(4, 1),
            t0_set=(2,),
            t1_set=(1,),
            value0=0,
            value1=1,
        )
        base.update(overrides)
        return InfluentialWitness(**base)

    def test_valid_witness(self):
        assert self._witness().check()

    def test_same_values_invalid(self):
        assert not self._witness(value1=0).check()

    def test_overlapping_fault_sets_invalid(self):
        assert not self._witness(t0_set=(1,), t1_set=(1,)).check()

    def test_pid_in_fault_set_invalid(self):
        assert not self._witness(t0_set=(0,)).check()

    def test_configs_must_differ_only_at_pid(self):
        wrong = binary_configuration(4, 2)  # differs at pids 0 and 1
        assert not self._witness(config1=wrong).check()


class TestSuspectSetEdges:
    def test_exact_minimum_size(self):
        sets = suspect_fault_sets(suspects=[0, 1, 2, 3], t=1)
        assert len(sets) == 4

    def test_limit(self):
        sets = suspect_fault_sets(suspects=range(8), t=2, limit=3)
        assert len(sets) == 3

    def test_t2_requires_six_suspects(self):
        with pytest.raises(ValueError):
            suspect_fault_sets(suspects=range(5), t=2)
        assert suspect_fault_sets(suspects=range(6), t=2)


class TestConfigEdges:
    def test_large_views_wrap_leader(self):
        from repro.core.config import ProtocolConfig

        config = ProtocolConfig(n=4, f=1)
        assert config.leader_of(1_000_001) == 1_000_000 % 4

    def test_sub_resilient_flag_preserved(self):
        from repro.core.config import ProtocolConfig

        config = ProtocolConfig(n=8, f=2, allow_sub_resilient=True)
        assert config.allow_sub_resilient
        assert not config.meets_bound
        # Quorums still well-defined below the bound (used by E4).
        assert config.vote_quorum == 6

    def test_generalized_equivocation_threshold_at_t_equals_f(self):
        from repro.core.config import ProtocolConfig

        # t = f: both formulas coincide only at 2f = f + t.
        config = ProtocolConfig(n=9, f=2, t=2)
        assert config.equivocation_vote_threshold == 4 == 2 * config.f


class TestPacemakerTimeoutsCapped:
    def test_max_timeout_bounds_growth(self):
        from repro.sync.synchronizer import Pacemaker

        armed = []
        pm = Pacemaker(
            pid=0,
            n=4,
            f=1,
            current_view=lambda: 50,  # huge view
            enter_view=lambda v: None,
            broadcast=lambda m: None,
            set_timer=lambda name, delay, cb: armed.append(delay),
            cancel_timer=lambda name: None,
            base_timeout=10.0,
            max_timeout=1000.0,
        )
        pm.start()
        assert armed == [1000.0]
