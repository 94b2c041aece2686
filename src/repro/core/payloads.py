"""Canonical signing payloads for every signature in the protocol.

Each signature in the paper covers a tagged tuple; collecting the tag
constructors here guarantees signers and verifiers agree byte-for-byte and
that payloads of different message kinds can never collide.

Paper notation:

* ``tau   = sign_leader((propose, x, v))``   — Section 3.1
* ``phi_vote = sign_q((vote, vote_q, v))``   — Section 3.2
* ``phi_ca = sign_q((CertAck, x, v))``       — Section 3.2
* ``phi_ack = sign_q((ack, x, v))``          — Appendix A.1 (slow path)
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

__all__ = [
    "propose_payload",
    "vote_payload",
    "certack_payload",
    "ack_payload",
    "checkpoint_payload",
    "demotion_payload",
]


def propose_payload(value: Any, view: int) -> Tuple[Any, ...]:
    """Payload of the leader's proposal signature ``tau``."""
    return ("propose", value, view)


def vote_payload(vote: Optional[Any], view: int) -> Tuple[Any, ...]:
    """Payload of a view-change vote signature ``phi_vote``.

    ``vote`` is a :class:`~repro.core.votes.VoteRecord` or ``None`` (nil).
    """
    return ("vote", vote, view)


def certack_payload(value: Any, view: int) -> Tuple[Any, ...]:
    """Payload of a certificate-acknowledgment signature ``phi_ca``."""
    return ("certack", value, view)


def ack_payload(value: Any, view: int) -> Tuple[Any, ...]:
    """Payload of a slow-path ack signature ``phi_ack`` (Appendix A)."""
    return ("ack", value, view)


def checkpoint_payload(slot: int, digest: str) -> Tuple[Any, ...]:
    """Payload of a durability checkpoint vote (not in the paper's core:
    the SMR engine's checkpoint protocol, see ``repro.storage``).  The
    digest is the hex SHA-256 of the application state after executing
    every slot up to and including ``slot``."""
    return ("checkpoint", slot, digest)


def demotion_payload(view: int, target: int) -> Tuple[Any, ...]:
    """Payload of a leader-demotion vote (not in the paper's core: the
    performance monitor of ``repro.obs.monitor``).  ``target`` is the
    leader being demoted, ``view`` the view that replaces it."""
    return ("demote", view, target)
