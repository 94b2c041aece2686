"""Votes: the per-process decision estimates exchanged during view change.

Each process ``q`` maintains ``vote_q = (x, u, sigma, tau)`` — value, view,
progress certificate, and the proposing leader's signature (Section 3.2).
Initially the vote is *nil* (modelled as ``None``).  In the generalized
protocol a vote additionally carries the latest commit certificate the
process has collected (Appendix A.2).

On entering view ``v`` a process sends ``vote(vote_q, phi)`` to the new
leader, where ``phi = sign_q((vote, vote_q, v))``; the leader (and later
every certifier re-checking the leader's selection) validates votes with
:func:`signed_vote_valid`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from ..crypto.keys import KeyRegistry, Signature
from .certificates import (
    CommitCertificate,
    ProgressCertificate,
    commit_certificate_valid,
    progress_certificate_valid,
)
from .config import ProtocolConfig
from .payloads import propose_payload, vote_payload

__all__ = ["VoteRecord", "SignedVote", "vote_record_valid", "signed_vote_valid"]


@dataclass(frozen=True)
class VoteRecord:
    """A non-nil vote: "value ``value`` in view ``view``" plus evidence.

    ``cert`` is the progress certificate from the proposal the voter
    acknowledged (``None`` exactly when ``view == 1``); ``tau`` is
    ``sign_{leader(view)}((propose, value, view))``.  ``commit_cert`` is
    the voter's latest collected commit certificate (generalized protocol
    only; ``None`` in the vanilla protocol).
    """

    value: Any
    view: int
    cert: Optional[ProgressCertificate]
    tau: Signature
    commit_cert: Optional[CommitCertificate] = None

    def signing_fields(self) -> Tuple[Any, ...]:
        return (self.value, self.view, self.cert, self.tau, self.commit_cert)


@dataclass(frozen=True)
class SignedVote:
    """A vote message as received by the leader of ``view``.

    ``vote`` is ``None`` for a nil vote.  ``phi`` is the voter's signature
    over ``(vote, vote, view)`` and authenticates both nil and non-nil
    votes — a Byzantine process cannot claim someone else voted nil.
    """

    voter: int
    vote: Optional[VoteRecord]
    view: int
    phi: Signature

    def signing_fields(self) -> Tuple[Any, ...]:
        return (self.voter, self.vote, self.view, self.phi)


def vote_record_valid(
    vote: VoteRecord, registry: KeyRegistry, config: ProtocolConfig
) -> bool:
    """Check a non-nil vote's evidence.

    Valid iff ``tau`` is ``leader(vote.view)``'s signature over
    ``(propose, value, view)`` and ``cert`` is a valid progress
    certificate for ``(value, view)`` (absent exactly for view 1).  A
    carried commit certificate, if any, must itself verify.
    """
    expected_signer = config.leader_of(vote.view)
    if vote.tau.signer != expected_signer:
        return False
    if not registry.verify(vote.tau, propose_payload(vote.value, vote.view)):
        return False
    if not progress_certificate_valid(
        vote.cert, vote.value, vote.view, registry, config.cert_quorum
    ):
        return False
    if vote.commit_cert is not None and not commit_certificate_valid(
        vote.commit_cert, registry, config.commit_quorum
    ):
        return False
    return True


def signed_vote_valid(
    signed: SignedVote,
    expected_view: int,
    registry: KeyRegistry,
    config: ProtocolConfig,
) -> bool:
    """Full validity check used by the leader and by certifiers.

    The envelope signature must bind voter, vote and the view the vote was
    cast *for*; a nil vote is valid on its own, a non-nil vote must carry
    valid evidence (:func:`vote_record_valid`).
    """
    if signed.view != expected_view:
        return False
    if signed.phi.signer != signed.voter:
        return False
    if not registry.verify(signed.phi, vote_payload(signed.vote, signed.view)):
        return False
    if signed.vote is None:
        return True
    if signed.vote.view >= expected_view:
        # A vote can only reference a proposal from an earlier view.
        return False
    return vote_record_valid(signed.vote, registry, config)
