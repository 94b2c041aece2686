"""Tests for the generalized protocol (Section 3.4 + Appendix A)."""

import pytest

from repro.byzantine.behaviors import SilentProcess
from repro.core.generalized import GeneralizedFBFTProcess
from repro.core.messages import AckSig, Commit
from repro.sim.network import RoundSynchronousDelay, SynchronousDelay, payload_size
from repro.sim.runner import Cluster

from helpers import make_config, make_registry, record_sends


def build_generalized(config, registry, silent=(), inputs=None):
    processes = []
    for pid in config.process_ids:
        if pid in silent:
            processes.append(SilentProcess(pid))
        else:
            value = (inputs or {}).get(pid, "v")
            processes.append(
                GeneralizedFBFTProcess(pid, config, registry, value)
            )
    return Cluster(processes, delay_model=RoundSynchronousDelay(1.0))


class TestFastPath:
    def test_no_faults_two_delays(self):
        config = make_config(n=7, f=2, t=1)
        registry = make_registry(config)
        cluster = build_generalized(config, registry)
        result = cluster.run_until_decided()
        assert result.decision_time == 2.0

    def test_t_faults_still_two_delays(self):
        config = make_config(n=7, f=2, t=1)
        registry = make_registry(config)
        cluster = build_generalized(config, registry, silent={6})
        result = cluster.run_until_decided(correct_pids=range(6), timeout=50)
        assert result.decision_time == 2.0

    def test_optimal_resilience_fast_under_one_fault(self):
        """The paper's 'first protocol' claim: n = 3f + 1 with t = 1."""
        for f in (1, 2, 3):
            config = make_config(n=3 * f + 1, f=f, t=1)
            registry = make_registry(config)
            cluster = build_generalized(config, registry, silent={config.n - 1})
            result = cluster.run_until_decided(
                correct_pids=range(config.n - 1), timeout=50
            )
            assert result.decision_time == 2.0, f"f={f}"


class TestSlowPath:
    def test_more_than_t_faults_three_delays(self):
        """Figure 5: with t < faults <= f the slow path decides in 3."""
        config = make_config(n=7, f=2, t=1)
        registry = make_registry(config)
        cluster = build_generalized(config, registry, silent={5, 6})
        result = cluster.run_until_decided(correct_pids=range(5), timeout=50)
        assert result.decision_time == 3.0

    def test_slow_path_messages_present(self):
        config = make_config(n=7, f=2, t=1)
        registry = make_registry(config)
        cluster = build_generalized(config, registry, silent={5, 6})
        cluster.run_until_decided(correct_pids=range(5), timeout=50)
        kinds = cluster.trace.messages_by_type()
        assert kinds.get("AckSig", 0) > 0
        assert kinds.get("Commit", 0) > 0

    def test_commit_certificate_size(self):
        config = make_config(n=7, f=2, t=1)
        registry = make_registry(config)
        cluster = build_generalized(config, registry, silent={5, 6})
        sends = record_sends(cluster.network)
        cluster.run_until_decided(correct_pids=range(5), timeout=50)
        commits = [
            env.payload
            for env in sends
            if isinstance(env.payload, Commit)
        ]
        assert commits
        for commit in commits:
            assert len(commit.cert.signers) >= config.commit_quorum
            assert commit.cert.verify(registry, config.commit_quorum)

    def test_processes_track_latest_commit_cert(self):
        config = make_config(n=7, f=2, t=1)
        registry = make_registry(config)
        cluster = build_generalized(config, registry, silent={5, 6})
        cluster.run_until_decided(correct_pids=range(5), timeout=50)
        for pid in range(5):
            cc = cluster.process(pid).latest_commit_cert
            assert cc is not None
            assert cc.value == "v"

    def test_ack_sig_verification(self):
        """Invalid slow-path signatures must not count toward commit
        certificates."""
        from repro.crypto.keys import Signature

        config = make_config(n=7, f=2, t=1)
        registry = make_registry(config)
        cluster = build_generalized(config, registry)
        cluster.start()
        proc = cluster.process(3)
        good = registry.signer(4).sign(("ack", "v", 1))
        # Signer claims to be 5 but the digest is pid 4's.
        proc._handle_ack_sig(5, AckSig("v", 1, Signature(5, good.digest)))
        assert ("v", 1) not in proc._ack_sigs or 5 not in proc._ack_sigs[("v", 1)]

    def test_commit_with_invalid_cert_ignored(self):
        from repro.core.certificates import CommitCertificate

        config = make_config(n=7, f=2, t=1)
        registry = make_registry(config)
        cluster = build_generalized(config, registry)
        cluster.start()
        proc = cluster.process(3)
        bad = CommitCertificate(value="evil", view=1, signatures=())
        for sender in range(5):
            proc._handle_commit(sender, Commit(bad))
        assert not proc.decided

    def test_commit_value_and_view_are_its_certificates(self):
        """A ``Commit`` carries only its certificate: the value and view it
        commits are the certificate's, so no message can name others."""
        from repro.core.certificates import CommitCertificate

        cert = CommitCertificate(value="x", view=3, signatures=())
        commit = Commit(cert)
        assert (commit.value, commit.view) == ("x", 3)
        assert commit.signing_fields() == (cert,)
        with pytest.raises(TypeError):
            Commit(value="y", view=3, cert=cert)

    def test_commit_accounted_as_its_certificate(self):
        """Each ``Commit`` copy costs its certificate plus one framing,
        ``2 + payload_size(cert)`` bytes: the value and view are not sent
        a second time beside the certificate that names them."""
        config = make_config(n=7, f=2, t=1)
        registry = make_registry(config)
        cluster = build_generalized(config, registry, silent={5, 6})
        records = []
        cluster.network.add_send_hook(records.append)
        cluster.run_until_decided(correct_pids=range(5), timeout=50)
        commits = [r for r in records if isinstance(r.payload, Commit)]
        assert commits
        for record in commits:
            assert record.size == 2 + payload_size(record.payload.cert)


class TestVanillaEquivalence:
    def test_t_equals_f_matches_vanilla_fast_path(self):
        config = make_config(n=9, f=2)  # t defaults to f
        registry = make_registry(config)
        cluster = build_generalized(config, registry)
        result = cluster.run_until_decided()
        assert result.decision_time == 2.0

    def test_vanilla_class_rejects_t_less_than_f(self):
        from repro.core.fastbft import FastBFTProcess

        config = make_config(n=7, f=2, t=1)
        registry = make_registry(config)
        with pytest.raises(ValueError):
            FastBFTProcess(0, config, registry, "v")


class TestGeneralizedViewChange:
    def test_recovery_with_crashes_beyond_t(self):
        config = make_config(n=7, f=2, t=1)
        registry = make_registry(config)
        cluster = Cluster(
            [
                GeneralizedFBFTProcess(pid, config, registry, f"v{pid}")
                for pid in config.process_ids
            ],
            delay_model=SynchronousDelay(1.0),
        )
        cluster.process(0).crash()
        cluster.process(3).crash()
        correct = [1, 2, 4, 5, 6]
        result = cluster.run_until_decided(correct_pids=correct, timeout=500)
        assert result.decided
        cluster.trace.check_agreement(correct)

    def test_votes_carry_commit_certificates(self):
        """After a slow-path decision, view-change votes must include the
        collected commit certificate (Appendix A.2)."""
        config = make_config(n=7, f=2, t=1)
        registry = make_registry(config)
        cluster = build_generalized(config, registry, silent={5, 6})
        sends = record_sends(cluster.network)
        cluster.run_until_decided(correct_pids=range(5), timeout=50)
        proc = cluster.process(2)
        proc.enter_view(2)
        from repro.core.messages import Vote

        votes = [
            env.payload
            for env in sends
            if isinstance(env.payload, Vote) and env.src == 2
        ]
        assert votes
        assert votes[-1].signed.vote.commit_cert is not None
