"""Byzantine behaviours: the adversary's toolbox.

A Byzantine process may send arbitrary messages — but only ones it can
actually produce: channels are authenticated (it cannot impersonate
others) and it holds only its own signing key (it cannot forge
signatures).  The classes here respect those limits by construction: they
are handed their own :class:`~repro.crypto.keys.Signer` and speak through
the ordinary process context.

* :class:`SilentProcess` — crashes immediately (sends nothing, ever);
* :class:`CrashAfter` — runs an honest protocol instance and stops at a
  chosen time (the failure mode of the lower bound's T-faulty executions);
* :class:`ScriptedByzantine` — replays a fixed schedule of sends;
* :class:`ByzantineForge` — helper that builds arbitrary (self-signed)
  protocol messages for scripts and tests;
* :class:`EquivocatingLeader` — proposes different values to different
  processes in its view (the misbehaviour at the heart of the paper's
  view-change analysis).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

from ..crypto.keys import KeyRegistry, Signature
from ..core.certificates import ProgressCertificate
from ..core.config import ProtocolConfig
from ..core.messages import Ack, AckSig, CertAck, Propose, Vote
from ..core.payloads import (
    ack_payload,
    certack_payload,
    propose_payload,
    vote_payload,
)
from ..core.votes import SignedVote, VoteRecord
from ..sim.process import Process, ProcessContext
from ..sync.synchronizer import WishMessage

__all__ = [
    "SilentProcess",
    "CrashAfter",
    "ScriptedSend",
    "ScriptedByzantine",
    "ByzantineForge",
    "EquivocatingLeader",
]


class SilentProcess(Process):
    """A process that never takes a step — the simplest Byzantine failure."""

    def on_start(self) -> None:
        self.crash()


class CrashAfter(Process):
    """Run an honest protocol instance, then crash at ``crash_time``.

    The crash fires *before* any message delivery scheduled at the same
    instant (timers are scheduled at start, deliveries later), matching
    the lower bound's "correct through the first round, silent from time
    DELTA on" failure mode (Section 4.1, T-faulty executions).
    """

    def __init__(self, inner: Process, crash_time: float) -> None:
        super().__init__(inner.pid)
        if crash_time < 0:
            raise ValueError("crash_time must be >= 0")
        self.inner = inner
        self.crash_time = crash_time

    def attach(self, ctx: ProcessContext) -> None:
        super().attach(ctx)
        self.inner.attach(ctx)

    def on_start(self) -> None:
        self.ctx.set_timer("byz-crash", self.crash_time - self.ctx.now, self.crash)
        self.inner.on_start()

    def on_message(self, sender: int, payload: Any) -> None:
        self.inner.on_message(sender, payload)


@dataclass(frozen=True)
class ScriptedSend:
    """One step of a Byzantine script: at ``time`` send ``payload`` to
    every process in ``to``."""

    time: float
    to: Tuple[int, ...]
    payload: Any


class ScriptedByzantine(Process):
    """Replays a fixed schedule of sends and otherwise stays silent."""

    def __init__(self, pid: int, script: Sequence[ScriptedSend]) -> None:
        super().__init__(pid)
        self.script = list(script)

    def on_start(self) -> None:
        for index, step in enumerate(self.script):
            self.ctx.set_timer(
                f"script-{index}",
                step.time - self.ctx.now,
                lambda s=step: self._execute(s),
            )

    def _execute(self, step: ScriptedSend) -> None:
        for dst in step.to:
            self.send(dst, step.payload)


class ByzantineForge:
    """Build protocol messages a Byzantine process is *able* to produce.

    Everything is signed with the owner's key only; attempting to fake
    another process's signature is impossible by construction, which is
    exactly the power model of Section 2.1.
    """

    def __init__(self, pid: int, registry: KeyRegistry, config: ProtocolConfig):
        self.pid = pid
        self.registry = registry
        self.config = config
        self.signer = registry.signer(pid)

    # -- fast path ------------------------------------------------------

    def propose(
        self, value: Any, view: int, cert: Optional[ProgressCertificate] = None
    ) -> Propose:
        """A proposal signed by the owner (meaningful when the owner is
        ``leader(view)``; otherwise correct processes will drop it)."""
        tau = self.signer.sign(propose_payload(value, view))
        return Propose(value=value, view=view, cert=cert, tau=tau)

    def ack(self, value: Any, view: int) -> Ack:
        return Ack(value=value, view=view)

    def ack_sig(self, value: Any, view: int) -> AckSig:
        phi = self.signer.sign(ack_payload(value, view))
        return AckSig(value=value, view=view, phi=phi)

    # -- view change ----------------------------------------------------

    def signed_vote(self, vote: Optional[VoteRecord], view: int) -> SignedVote:
        phi = self.signer.sign(vote_payload(vote, view))
        return SignedVote(voter=self.pid, vote=vote, view=view, phi=phi)

    def nil_vote(self, view: int) -> SignedVote:
        """A (possibly lying) nil vote for ``view``."""
        return self.signed_vote(None, view)

    def vote_message(self, vote: Optional[VoteRecord], view: int) -> Vote:
        return Vote(signed=self.signed_vote(vote, view))

    def cert_ack(self, value: Any, view: int) -> CertAck:
        phi = self.signer.sign(certack_payload(value, view))
        return CertAck(value=value, view=view, phi=phi)

    def wish(self, view: int) -> WishMessage:
        return WishMessage(view=view)

    # -- forgery attempts (for negative tests) --------------------------

    def forged_propose_as(self, impostor_of: int, value: Any, view: int) -> Propose:
        """A proposal whose ``tau`` *claims* to be from another process but
        is produced with the owner's key.  Correct processes must reject
        it; tests use this to check verification paths."""
        tau = self.signer.sign(propose_payload(value, view))
        fake = Signature(signer=impostor_of, digest=tau.digest)
        return Propose(value=value, view=view, cert=None, tau=fake)


class EquivocatingLeader(Process):
    """A Byzantine leader that proposes different values to different
    processes in its view, and acknowledges its preferred value to a
    chosen subset.

    ``assignments`` maps destination pid -> proposed value.  Destinations
    missing from the map receive nothing (selective silence).  At
    ``ack_time`` the leader sends an ack for ``ack_value`` to every pid
    in ``ack_to``.
    """

    def __init__(
        self,
        pid: int,
        registry: KeyRegistry,
        config: ProtocolConfig,
        view: int,
        assignments: Dict[int, Any],
        ack_value: Any = None,
        ack_to: Tuple[int, ...] = (),
        ack_time: float = 1.0,
        wishes: Sequence[Tuple[float, int]] = (),
        extra_script: Sequence[ScriptedSend] = (),
    ) -> None:
        super().__init__(pid)
        self.forge = ByzantineForge(pid, registry, config)
        self.view = view
        self.assignments = dict(assignments)
        self.ack_value = ack_value
        self.ack_to = tuple(ack_to)
        self.ack_time = ack_time
        self.wishes = list(wishes)
        self.extra_script = list(extra_script)

    def on_start(self) -> None:
        proposals: Dict[Any, Propose] = {}
        for dst, value in self.assignments.items():
            if value not in proposals:
                proposals[value] = self.forge.propose(value, self.view)
            self.send(dst, proposals[value])
        if self.ack_to and self.ack_value is not None:
            self.ctx.set_timer(
                "byz-acks",
                self.ack_time - self.ctx.now,
                self._send_acks,
            )
        for index, (time, wish_view) in enumerate(self.wishes):
            self.ctx.set_timer(
                f"byz-wish-{index}",
                time - self.ctx.now,
                lambda v=wish_view: self.broadcast(self.forge.wish(v)),
            )
        for index, step in enumerate(self.extra_script):
            self.ctx.set_timer(
                f"byz-extra-{index}",
                step.time - self.ctx.now,
                lambda s=step: [self.send(dst, s.payload) for dst in s.to],
            )

    def _send_acks(self) -> None:
        ack = self.forge.ack(self.ack_value, self.view)
        for dst in self.ack_to:
            self.send(dst, ack)
