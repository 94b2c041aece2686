"""Unit tests for message types and signing payload constructors."""

import pytest

from repro.core.messages import Ack, AckSig, CertAck, CertRequest, Commit, Propose, Vote
from repro.core.payloads import (
    ack_payload,
    certack_payload,
    propose_payload,
    vote_payload,
)
from repro.crypto.keys import canonical_bytes

from helpers import (
    make_config,
    make_progress_cert,
    make_registry,
    make_signed_vote,
    make_vote_record,
)


@pytest.fixture
def config():
    return make_config(n=4, f=1)


@pytest.fixture
def registry(config):
    return make_registry(config)


class TestPayloadTags:
    def test_all_payload_kinds_distinct(self):
        payloads = [
            propose_payload("x", 1),
            vote_payload(None, 1),
            certack_payload("x", 1),
            ack_payload("x", 1),
        ]
        encoded = {canonical_bytes(p) for p in payloads}
        assert len(encoded) == len(payloads)

    def test_same_kind_different_args_distinct(self):
        assert propose_payload("x", 1) != propose_payload("x", 2)
        assert propose_payload("x", 1) != propose_payload("y", 1)
        assert ack_payload("x", 1) != certack_payload("x", 1)

    def test_vote_payload_binds_vote_content(self, config, registry):
        vote = make_vote_record(registry, config, "x", 1)
        a = canonical_bytes(vote_payload(vote, 2))
        b = canonical_bytes(vote_payload(None, 2))
        assert a != b


class TestMessageValues:
    def test_messages_are_hashable_values(self, config, registry):
        tau = registry.signer(0).sign(propose_payload("x", 1))
        m1 = Propose(value="x", view=1, cert=None, tau=tau)
        m2 = Propose(value="x", view=1, cert=None, tau=tau)
        assert m1 == m2
        assert hash(m1) == hash(m2)
        assert len({m1, m2}) == 1

    def test_ack_equality(self):
        assert Ack("x", 1) == Ack("x", 1)
        assert Ack("x", 1) != Ack("x", 2)

    def test_all_messages_canonicalize(self, config, registry):
        tau = registry.signer(0).sign(propose_payload("x", 1))
        cert = make_progress_cert(registry, config, "x", 2)
        sv = make_signed_vote(registry, config, 2, None, 2)
        phi = registry.signer(2).sign(certack_payload("x", 2))
        asig = registry.signer(2).sign(ack_payload("x", 2))
        from repro.core.certificates import CommitCertificate

        cc = CommitCertificate(value="x", view=2, signatures=(asig,))
        messages = [
            Propose(value="x", view=2, cert=cert, tau=tau),
            Ack(value="x", view=2),
            Vote(signed=sv),
            CertRequest(value="x", view=2, votes=(sv,)),
            CertAck(value="x", view=2, phi=phi),
            AckSig(value="x", view=2, phi=asig),
            Commit(value="x", view=2, cert=cc),
        ]
        encodings = [canonical_bytes(m) for m in messages]
        assert len(set(encodings)) == len(encodings)
        # Stable across re-encoding.
        assert encodings == [canonical_bytes(m) for m in messages]

    def test_vote_message_exposes_view(self, config, registry):
        sv = make_signed_vote(registry, config, 2, None, 7)
        assert Vote(signed=sv).view == 7

    def test_messages_frozen(self, config, registry):
        with pytest.raises(Exception):
            Ack("x", 1).value = "y"
