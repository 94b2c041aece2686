"""The fast Byzantine consensus protocol of Section 3 (n >= 5f - 1).

:class:`FBFTBase` implements the complete machinery — fast path, view
change with the two-phase certificate construction, and (optionally) the
Appendix-A slow path — parameterized by :class:`ProtocolConfig`.

:class:`FastBFTProcess` is the vanilla Section-3 protocol: ``t = f``,
``n >= 5f - 1``, no slow path.  The generalized protocol lives in
:mod:`repro.core.generalized`.

Message flow (Figures 1 and 5):

* fast path — ``leader: propose(x, v, sigma, tau)`` → everyone validates,
  adopts the vote, broadcasts ``ack(x, v)``; anyone with ``n - t`` matching
  acks decides (``n - f`` in the vanilla protocol where t = f);
* view change — on entering view ``v``, send ``vote(vote_q, phi)`` to
  ``leader(v)``; the leader collects ``n - f`` valid votes, runs the
  selection algorithm (:mod:`repro.core.selection`), asks everyone to
  certify the outcome (``CertReq`` → ``f + 1`` × ``CertAck``), assembles
  the bounded progress certificate and proposes;
* slow path (Appendix A, generalized protocol only) — beside each ack a
  process broadcasts ``AckSig(x, v, phi)``; ``ceil((n + f + 1) / 2)`` of
  them form a commit certificate ``cc``, broadcast as ``Commit(cc)``
  (the certificate names ``x`` and ``v``, so the message carries them
  once); a commit quorum of valid ``Commit`` messages decides.

In :attr:`FBFTBase.MESSAGES`, proposals, votes and the certificate
round count only in the current view (``enter_view`` replays early
ones); acks, signed acks and commits are tallied per ``(value, view)``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional, Set, Tuple

from ..crypto.keys import KeyRegistry, Signature
from ..sync.synchronizer import Pacemaker
from .certificates import (
    CommitCertificate,
    ProgressCertificate,
    commit_certificate_valid,
    progress_certificate_valid,
)
from .config import ProtocolConfig
from .messages import Ack, AckSig, CertAck, CertRequest, Commit, Propose, Vote
from .payloads import ack_payload, certack_payload, propose_payload, vote_payload
from .protocol import ConsensusProcess
from .selection import AnyValueSafe, NeedMoreVotes, Selected, run_selection, selection_admits
from .votes import SignedVote, VoteRecord, signed_vote_valid

__all__ = ["FBFTBase", "FastBFTProcess"]

#: Default local timeout before suspecting the leader (simulated units;
#: must exceed the 2-delay fast path by a comfortable margin).
DEFAULT_BASE_TIMEOUT = 12.0


class FBFTBase(ConsensusProcess):
    """Complete protocol engine; see the module docstring."""

    MESSAGES = (
        (Propose, "_handle_propose", "current", "propose", None),
        (Ack, "_handle_ack", "none", "vote", "fast_quorum"),
        (Vote, "_handle_vote", "current", "view-vote", "vote_quorum"),
        (CertRequest, "_handle_certreq", "current", "cert-request", None),
        (CertAck, "_handle_certack", "current", "vote", None),
        (AckSig, "_handle_ack_sig", "none", "vote", None),
        (Commit, "_handle_commit", "none", "vote", "commit_quorum"),
    )

    #: Subclasses toggle the Appendix-A slow path.
    slow_path_enabled = False

    def __init__(
        self,
        pid: int,
        config: ProtocolConfig,
        registry: KeyRegistry,
        input_value: Any,
        pacemaker_enabled: bool = True,
        base_timeout: float = DEFAULT_BASE_TIMEOUT,
        cert_scheme: str = "bounded",
        exclude_equivocator: bool = True,
    ) -> None:
        super().__init__(pid, config, registry, input_value)
        if cert_scheme not in ("bounded", "naive"):
            raise ValueError(f"unknown cert_scheme {cert_scheme!r}")
        self.cert_scheme = cert_scheme
        #: The paper's equivocator-exclusion trick (Section 3.2).  Only
        #: disabled by the E11 ablation, which demonstrates that without
        #: it n = 5f - 1 is NOT safe.
        self.exclude_equivocator = exclude_equivocator
        self.view = 1
        #: vote_q from Section 3.2 — the adopted decision estimate.
        self.vote: Optional[VoteRecord] = None
        #: Latest commit certificate collected (generalized protocol).
        self.latest_commit_cert: Optional[CommitCertificate] = None
        #: Views in which we already acknowledged a proposal.
        self._acked_views: Set[int] = set()
        #: (value, view) -> senders of matching acks.
        self._acks: Dict[Tuple[Any, int], Set[int]] = {}
        #: (value, view) -> signer -> slow-path ack signature.
        self._ack_sigs: Dict[Tuple[Any, int], Dict[int, Signature]] = {}
        #: (value, view) pairs for which we already built+sent a commit.
        self._commits_sent: Set[Tuple[Any, int]] = set()
        #: (value, view) -> senders of valid Commit messages.
        self._commit_msgs: Dict[Tuple[Any, int], Set[int]] = {}
        # Leader state, reset on every view entry.
        self._lead_votes: Dict[int, SignedVote] = {}
        self._lead_selected: Any = None
        self._lead_certreq_sent = False
        self._lead_certacks: Dict[int, Signature] = {}
        self._lead_proposed = False
        #: Messages of ``current`` rows for views not entered yet.
        self._future: Dict[int, List[Tuple[int, Any]]] = {}
        self.pacemaker = Pacemaker(
            pid=pid,
            n=config.n,
            f=config.f,
            current_view=lambda: self.view,
            enter_view=self.enter_view,
            broadcast=self.broadcast,
            set_timer=lambda name, delay, cb: self.ctx.set_timer(name, delay, cb),
            cancel_timer=lambda name: self.ctx.cancel_timer(name),
            base_timeout=base_timeout,
            enabled=pacemaker_enabled,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def on_start(self) -> None:
        self.pacemaker.start()
        if self.config.leader_of(1) == self.pid:
            # View 1: any value is safe, the leader proposes its own input
            # with an empty certificate (Section 3.1).
            self._send_proposal(self.input_value, cert=None)

    # ------------------------------------------------------------------
    # View entry (driven by the pacemaker or test harnesses)
    # ------------------------------------------------------------------

    def enter_view(self, view: int) -> None:
        """Advance to ``view`` and send our vote to its leader.

        A correct process's view never decreases; entering re-arms no
        protocol state except the per-view leader machinery.
        """
        if view <= self.view:
            return
        if self.view_hook is not None:
            self.view_hook(view)
        self.view = view
        self._lead_votes = {}
        self._lead_selected = None
        self._lead_certreq_sent = False
        self._lead_certacks = {}
        self._lead_proposed = False
        wire_vote = self._wire_vote()
        phi = self.signer.sign(vote_payload(wire_vote, view))
        signed = SignedVote(voter=self.pid, vote=wire_vote, view=view, phi=phi)
        leader = self.config.leader_of(view)
        if leader == self.pid:
            self._lead_votes[self.pid] = signed
        else:
            self.send(leader, Vote(signed=signed))
        # Replay messages buffered for this view; drop older buffers.
        for stale in [v for v in self._future if v < view]:
            del self._future[stale]
        for sender, payload in self._future.pop(view, []):
            self.on_message(sender, payload)
        if leader == self.pid:
            self._leader_try_select()

    def _wire_vote(self) -> Optional[VoteRecord]:
        """The vote as sent on the wire: in the generalized protocol it
        carries the latest collected commit certificate (Appendix A.2)."""
        if self.vote is None:
            return None
        if self.slow_path_enabled:
            return replace(self.vote, commit_cert=self.latest_commit_cert)
        return self.vote

    # ------------------------------------------------------------------
    # Fast path
    # ------------------------------------------------------------------

    def _send_proposal(self, value: Any, cert: Optional[Any]) -> None:
        tau = self.signer.sign(propose_payload(value, self.view))
        self.broadcast(Propose(value=value, view=self.view, cert=cert, tau=tau))

    def _handle_propose(self, sender: int, message: Propose) -> None:
        view = message.view
        leader = self.config.leader_of(view)
        if sender != leader or message.tau.signer != leader:
            return
        if view in self._acked_views:
            return  # only the first proposal per view is acknowledged
        if not self.registry.verify(
            message.tau, propose_payload(message.value, view)
        ):
            return
        if not self._proposal_cert_valid(message.cert, message.value, view):
            return
        # Adopt the vote *before* acknowledging (Section 3.2) — the order
        # the consistency proof depends on.
        self.vote = VoteRecord(
            value=message.value,
            view=view,
            cert=message.cert,
            tau=message.tau,
        )
        self._acked_views.add(view)
        self.broadcast(Ack(value=message.value, view=view))
        if self.slow_path_enabled:
            phi = self.signer.sign(ack_payload(message.value, view))
            self.broadcast(AckSig(value=message.value, view=view, phi=phi))

    def _proposal_cert_valid(self, cert: Any, value: Any, view: int) -> bool:
        if self.cert_scheme == "naive":
            from .naive_certs import naive_certificate_valid

            if view == 1:
                return cert is None
            return naive_certificate_valid(
                cert, value, view, self.registry, self.config
            )
        if cert is not None and not isinstance(cert, ProgressCertificate):
            return False
        return progress_certificate_valid(
            cert, value, view, self.registry, self.config.cert_quorum
        )

    def _handle_ack(self, sender: int, message: Ack) -> None:
        key = (message.value, message.view)
        senders = self._acks.setdefault(key, set())
        senders.add(sender)
        if len(senders) >= self.config.fast_quorum:
            self.decide(message.value)

    # ------------------------------------------------------------------
    # Slow path (Appendix A; enabled by the generalized subclass)
    # ------------------------------------------------------------------

    def _handle_ack_sig(self, sender: int, message: AckSig) -> None:
        if not self.slow_path_enabled:
            return
        if message.phi.signer != sender:
            return
        if not self.registry.verify(
            message.phi, ack_payload(message.value, message.view)
        ):
            return
        key = (message.value, message.view)
        sigs = self._ack_sigs.setdefault(key, {})
        sigs[sender] = message.phi
        if len(sigs) >= self.config.commit_quorum and key not in self._commits_sent:
            self._commits_sent.add(key)
            cert = CommitCertificate(
                value=message.value,
                view=message.view,
                signatures=tuple(sigs[s] for s in sorted(sigs)),
            )
            self._note_commit_cert(cert)
            self.broadcast(Commit(cert=cert))

    def _handle_commit(self, sender: int, message: Commit) -> None:
        if not self.slow_path_enabled:
            return
        cert = message.cert
        if not commit_certificate_valid(
            cert, self.registry, self.config.commit_quorum
        ):
            return
        self._note_commit_cert(cert)
        key = (cert.value, cert.view)
        senders = self._commit_msgs.setdefault(key, set())
        senders.add(sender)
        if len(senders) >= self.config.commit_quorum:
            self.decide(cert.value)

    def _note_commit_cert(self, cert: CommitCertificate) -> None:
        """Track the latest (highest-view) commit certificate collected."""
        if (
            self.latest_commit_cert is None
            or cert.view > self.latest_commit_cert.view
        ):
            self.latest_commit_cert = cert

    # ------------------------------------------------------------------
    # View change: leader side
    # ------------------------------------------------------------------

    def _handle_vote(self, sender: int, message: Vote) -> None:
        if self.config.leader_of(message.view) != self.pid:
            return
        signed = message.signed
        if signed.voter != sender:
            return
        if not self._vote_valid(signed, message.view):
            return
        if sender not in self._lead_votes:
            self._lead_votes[sender] = signed
            self._leader_try_select()

    def _vote_valid(self, signed: SignedVote, view: int) -> bool:
        if self.cert_scheme == "naive":
            from .naive_certs import naive_signed_vote_valid

            return naive_signed_vote_valid(signed, view, self.registry, self.config)
        return signed_vote_valid(signed, view, self.registry, self.config)

    def _leader_try_select(self) -> None:
        """Run the selection algorithm once enough votes are in."""
        if self._lead_certreq_sent or self._lead_proposed:
            return
        if len(self._lead_votes) < self.config.vote_quorum:
            return
        outcome = run_selection(
            self._lead_votes, self.config, self.exclude_equivocator
        )
        if isinstance(outcome, NeedMoreVotes):
            return  # keep collecting; re-run on the next vote
        if isinstance(outcome, Selected):
            value = outcome.value
        else:
            assert isinstance(outcome, AnyValueSafe)
            value = self.input_value
        self._lead_selected = value
        votes = tuple(
            self._lead_votes[voter] for voter in sorted(self._lead_votes)
        )
        if self.cert_scheme == "naive":
            from .naive_certs import NaiveProgressCertificate

            cert = NaiveProgressCertificate(
                value=value, view=self.view, votes=votes
            )
            self._lead_proposed = True
            self._send_proposal(value, cert)
            return
        # Bounded scheme: ask for confirmation signatures (Section 3.2).
        # The paper requires contacting at least 2f + 1 processes; we
        # broadcast, which trivially covers that and tolerates silent ones.
        self._lead_certreq_sent = True
        self.broadcast(CertRequest(value=value, view=self.view, votes=votes))

    def _handle_certack(self, sender: int, message: CertAck) -> None:
        if self.config.leader_of(message.view) != self.pid:
            return
        if not self._lead_certreq_sent or self._lead_proposed:
            return
        if message.value != self._lead_selected:
            return
        if message.phi.signer != sender:
            return
        if not self.registry.verify(
            message.phi, certack_payload(message.value, message.view)
        ):
            return
        self._lead_certacks[sender] = message.phi
        if len(self._lead_certacks) >= self.config.cert_quorum:
            cert = ProgressCertificate(
                value=message.value,
                view=message.view,
                signatures=tuple(
                    self._lead_certacks[s] for s in sorted(self._lead_certacks)
                ),
            )
            self._lead_proposed = True
            self._send_proposal(message.value, cert)

    # ------------------------------------------------------------------
    # View change: certifier side
    # ------------------------------------------------------------------

    def _handle_certreq(self, sender: int, message: CertRequest) -> None:
        if sender != self.config.leader_of(message.view):
            return
        votes_map: Dict[int, SignedVote] = {}
        for signed in message.votes:
            if signed.voter in votes_map:
                return  # duplicate voter: malformed request
            votes_map[signed.voter] = signed
        if len(votes_map) < self.config.vote_quorum:
            return
        for signed in votes_map.values():
            if not self._vote_valid(signed, message.view):
                return
        if not selection_admits(
            votes_map, message.value, self.config, self.exclude_equivocator
        ):
            return
        phi = self.signer.sign(certack_payload(message.value, message.view))
        self.send(
            sender, CertAck(value=message.value, view=message.view, phi=phi)
        )


class FastBFTProcess(FBFTBase):
    """The vanilla Section-3 protocol: t = f, n >= 5f - 1, fast path only."""

    slow_path_enabled = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if not self.config.is_vanilla:
            raise ValueError(
                "FastBFTProcess is the vanilla t = f protocol; use "
                "GeneralizedFBFTProcess for t < f"
            )
