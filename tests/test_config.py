"""Unit tests for ProtocolConfig and ReplicationConfig."""

import pytest

from repro.core.config import ProtocolConfig, ReplicationConfig


class TestReplicationConfig:
    def test_defaults_valid(self):
        config = ReplicationConfig()
        assert config.batch_size >= 1
        assert config.pipeline_depth >= 1
        assert config.batch_timeout == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_size": 0},
            {"batch_timeout": -1.0},
            {"pipeline_depth": 0},
            {"max_slots": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ReplicationConfig(**kwargs)


class TestValidation:
    def test_vanilla_minimum_accepted(self):
        for f in range(1, 6):
            config = ProtocolConfig(n=5 * f - 1, f=f)
            assert config.t == f
            assert config.is_vanilla

    def test_below_bound_rejected(self):
        with pytest.raises(ValueError, match="below the bound"):
            ProtocolConfig(n=8, f=2)

    def test_below_bound_allowed_with_flag(self):
        config = ProtocolConfig(n=8, f=2, allow_sub_resilient=True)
        assert not config.meets_bound

    def test_generalized_minimum(self):
        config = ProtocolConfig(n=7, f=2, t=1)
        assert config.meets_bound
        with pytest.raises(ValueError):
            ProtocolConfig(n=6, f=2, t=1)

    def test_t_defaults_to_f(self):
        assert ProtocolConfig(n=9, f=2).t == 2

    def test_invalid_f(self):
        with pytest.raises(ValueError):
            ProtocolConfig(n=4, f=0)

    def test_invalid_t(self):
        with pytest.raises(ValueError):
            ProtocolConfig(n=14, f=3, t=4)
        with pytest.raises(ValueError):
            ProtocolConfig(n=14, f=3, t=0)

    def test_headline_configuration(self):
        # f = t = 1 with just 4 processes — optimal for any partially
        # synchronous Byzantine consensus.
        config = ProtocolConfig(n=4, f=1)
        assert config.meets_bound


class TestDerivedQuantities:
    def test_quorums_vanilla(self):
        config = ProtocolConfig(n=9, f=2)
        assert config.vote_quorum == 7
        assert config.ack_quorum == 7
        assert config.fast_quorum == 7  # t = f
        assert config.cert_quorum == 3
        assert config.cert_request_targets == 5
        assert config.equivocation_vote_threshold == 4  # 2f

    def test_quorums_generalized(self):
        config = ProtocolConfig(n=7, f=2, t=1)
        assert config.vote_quorum == 5
        assert config.fast_quorum == 6  # n - t
        assert config.commit_quorum == 5  # ceil((7+2+1)/2)
        assert config.equivocation_vote_threshold == 3  # f + t

    def test_leader_rotation(self):
        config = ProtocolConfig(n=4, f=1)
        assert [config.leader_of(v) for v in range(1, 6)] == [0, 1, 2, 3, 0]

    def test_leader_of_view_zero_rejected(self):
        with pytest.raises(ValueError):
            ProtocolConfig(n=4, f=1).leader_of(0)

    def test_process_ids(self):
        assert ProtocolConfig(n=4, f=1).process_ids == (0, 1, 2, 3)

    def test_describe_mentions_parameters(self):
        text = ProtocolConfig(n=7, f=2, t=1).describe()
        assert "n=7" in text and "f=2" in text and "t=1" in text
