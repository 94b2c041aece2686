"""Progress and commit certificates.

A *progress certificate* (Section 3.2) proves that a value is safe in a
view: ``f + 1`` signatures over ``(CertAck, x, v)`` from distinct
processes.  Since at most ``f`` processes are Byzantine, at least one
signer is correct and verified the leader's selection before signing.
Crucially its size is *bounded* — independent of the view number — which
is the point of the extra round-trip in the view change (experiment E7
contrasts this with the naive, unbounded scheme in
:mod:`repro.core.naive_certs`).

A *commit certificate* (Appendix A.1) backs the generalized protocol's
slow path: ``ceil((n + f + 1) / 2)`` signatures over ``(ack, x, v)``.

A *checkpoint certificate* is not in the paper: it backs the durability
subsystem (``repro.storage``).  ``2f + 1`` signatures over
``(checkpoint, slot, digest)`` prove that a quorum of replicas executed
every slot up to ``slot`` and arrived at application state ``digest`` —
which is what makes compacting the write-ahead log below ``slot`` safe,
and what lets a recovering replica trust a checkpoint handed to it by a
single (possibly Byzantine) peer during catchup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, FrozenSet, Optional, Tuple

from ..crypto.keys import KeyRegistry, Signature
from .payloads import ack_payload, certack_payload, checkpoint_payload

__all__ = [
    "ProgressCertificate",
    "CommitCertificate",
    "CheckpointCertificate",
    "progress_certificate_valid",
    "commit_certificate_valid",
    "checkpoint_certificate_valid",
]


@dataclass(frozen=True)
class ProgressCertificate:
    """``f + 1`` CertAck signatures certifying ``value`` is safe in ``view``."""

    value: Any
    view: int
    signatures: Tuple[Signature, ...]

    def signing_fields(self) -> Tuple[Any, ...]:
        return (self.value, self.view, tuple(sorted(
            (s.signer, s.digest) for s in self.signatures
        )))

    @property
    def signers(self) -> FrozenSet[int]:
        return frozenset(sig.signer for sig in self.signatures)

    def size_in_signatures(self) -> int:
        """Certificate size metric used by experiment E7."""
        return len(self.signatures)

    def verify(self, registry: KeyRegistry, cert_quorum: int) -> bool:
        """Check the certificate: enough *distinct* valid signers."""
        if len(self.signers) < cert_quorum:
            return False
        payload = certack_payload(self.value, self.view)
        return registry.verify_all(self.signatures, payload)


@dataclass(frozen=True)
class CommitCertificate:
    """``ceil((n + f + 1) / 2)`` ack signatures: slow-path commit evidence."""

    value: Any
    view: int
    signatures: Tuple[Signature, ...]

    def signing_fields(self) -> Tuple[Any, ...]:
        return (self.value, self.view, tuple(sorted(
            (s.signer, s.digest) for s in self.signatures
        )))

    @property
    def signers(self) -> FrozenSet[int]:
        return frozenset(sig.signer for sig in self.signatures)

    def verify(self, registry: KeyRegistry, commit_quorum: int) -> bool:
        if len(self.signers) < commit_quorum:
            return False
        payload = ack_payload(self.value, self.view)
        return registry.verify_all(self.signatures, payload)


@dataclass(frozen=True)
class CheckpointCertificate:
    """``2f + 1`` checkpoint-vote signatures over ``(slot, digest)``.

    At most ``f`` signers are Byzantine, so at least ``f + 1`` correct
    replicas vouch for the state digest — a recovering replica may adopt
    a certified checkpoint from a single responder (after re-hashing the
    accompanying state against ``digest``) without cross-checking.
    """

    slot: int
    digest: str
    signatures: Tuple[Signature, ...]

    def signing_fields(self) -> Tuple[Any, ...]:
        return (self.slot, self.digest, tuple(sorted(
            (s.signer, s.digest) for s in self.signatures
        )))

    @property
    def signers(self) -> FrozenSet[int]:
        return frozenset(sig.signer for sig in self.signatures)

    def verify(self, registry: KeyRegistry, checkpoint_quorum: int) -> bool:
        if len(self.signers) < checkpoint_quorum:
            return False
        payload = checkpoint_payload(self.slot, self.digest)
        return registry.verify_all(self.signatures, payload)


def progress_certificate_valid(
    cert: Optional[ProgressCertificate],
    value: Any,
    view: int,
    registry: KeyRegistry,
    cert_quorum: int,
) -> bool:
    """Validity of the certificate attached to a proposal or vote.

    In view 1 any value is safe by convention, so the certificate must be
    (and is allowed to be) absent.  In later views the certificate must
    match ``(value, view)`` and carry ``cert_quorum`` valid distinct
    signatures.
    """
    if view == 1:
        return cert is None
    if cert is None:
        return False
    if cert.value != value or cert.view != view:
        return False
    return cert.verify(registry, cert_quorum)


def commit_certificate_valid(
    cert: Optional[CommitCertificate],
    registry: KeyRegistry,
    commit_quorum: int,
) -> bool:
    """Validity of a commit certificate (any value/view it claims)."""
    if cert is None:
        return False
    return cert.verify(registry, commit_quorum)


def checkpoint_certificate_valid(
    cert: Optional[CheckpointCertificate],
    slot: int,
    digest: str,
    registry: KeyRegistry,
    checkpoint_quorum: int,
) -> bool:
    """Validity of a checkpoint certificate for exactly ``(slot, digest)``.

    The claimed slot and digest must match what the certificate's
    signatures actually cover, and ``checkpoint_quorum`` distinct valid
    signers must back it.
    """
    if cert is None:
        return False
    if cert.slot != slot or cert.digest != digest:
        return False
    return cert.verify(registry, checkpoint_quorum)
