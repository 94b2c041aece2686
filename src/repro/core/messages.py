"""Wire messages of the fast Byzantine consensus protocol.

One frozen dataclass per message type from Figures 1a, 1b and 5:

* :class:`Propose` — leader's proposal (fast path, step 1);
* :class:`Ack` — acknowledgment broadcast by every accepting process
  (fast path, step 2);
* :class:`Vote` — a process's decision estimate sent to the new leader on
  view change;
* :class:`CertRequest` / :class:`CertAck` — the extra round-trip that
  produces a bounded progress certificate;
* :class:`AckSig` — the slow path's signed ack (``sig`` in Figure 5),
  sent alongside :class:`Ack` so signature generation never delays the
  fast path;
* :class:`Commit` — slow-path commit: a commit certificate, which names
  the value and view it commits.

Messages are plain values: hashable, comparable, canonically serializable
(via ``signing_fields``), and carried verbatim by the simulated network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from ..crypto.keys import Signature
from .certificates import CommitCertificate, ProgressCertificate
from .votes import SignedVote

__all__ = [
    "Propose",
    "Ack",
    "Vote",
    "CertRequest",
    "CertAck",
    "AckSig",
    "Commit",
]


@dataclass(frozen=True)
class Propose:
    """``propose(x, v, sigma, tau)`` — Section 3.1.

    ``cert`` is the progress certificate proving ``value`` safe in
    ``view`` (``None`` in view 1); ``tau`` is the leader's signature over
    ``(propose, value, view)``.
    """

    value: Any
    view: int
    cert: Optional[ProgressCertificate]
    tau: Signature

    def signing_fields(self) -> Tuple[Any, ...]:
        return (self.value, self.view, self.cert, self.tau)


@dataclass(frozen=True)
class Ack:
    """``ack(x, v)`` — broadcast on accepting a proposal; ``n - f`` of
    these (``n - t`` on the generalized fast path) decide the value."""

    value: Any
    view: int

    def signing_fields(self) -> Tuple[Any, ...]:
        return (self.value, self.view)


@dataclass(frozen=True)
class Vote:
    """``vote(vote_q, phi)`` — sent to the leader of the new view."""

    signed: SignedVote

    def signing_fields(self) -> Tuple[Any, ...]:
        return (self.signed,)

    @property
    def view(self) -> int:
        return self.signed.view


@dataclass(frozen=True)
class CertRequest:
    """``CertReq(x, votes)`` — the leader exhibits its vote set and asks
    for confirmation that selecting ``value`` was correct."""

    value: Any
    view: int
    votes: Tuple[SignedVote, ...]

    def signing_fields(self) -> Tuple[Any, ...]:
        return (self.value, self.view, self.votes)


@dataclass(frozen=True)
class CertAck:
    """``CertAck(phi_ca)`` — a certifier's signature over
    ``(certack, x, v)``; ``f + 1`` of them form the progress certificate."""

    value: Any
    view: int
    phi: Signature

    def signing_fields(self) -> Tuple[Any, ...]:
        return (self.value, self.view, self.phi)


@dataclass(frozen=True)
class AckSig:
    """``sig(phi_ack)`` — Appendix A.1: signed ack for the slow path,
    sent as a separate message so the fast path is never delayed by
    signature generation."""

    value: Any
    view: int
    phi: Signature

    def signing_fields(self) -> Tuple[Any, ...]:
        return (self.value, self.view, self.phi)


@dataclass(frozen=True)
class Commit:
    """``Commit(cc)`` — Appendix A.1's ``Commit(x, v, cc)``: broadcast once
    a commit certificate ``cc`` has been assembled; a commit quorum of
    these decides ``x`` on the slow path.

    The certificate names ``x`` and ``v``, so the message carries them
    once: ``value`` and ``view`` read ``cert`` (as :attr:`Vote.view`
    reads ``signed``), and no ``Commit`` can name a value or view its
    certificate does not.
    """

    cert: CommitCertificate

    def signing_fields(self) -> Tuple[Any, ...]:
        return (self.cert,)

    @property
    def value(self) -> Any:
        return self.cert.value

    @property
    def view(self) -> int:
        return self.cert.view
