"""The *naive* progress-certificate scheme the paper argues against.

Section 3.2 discusses letting the certificate simply be the leader's vote
set: every verifier can re-check the signatures and re-run the selection
locally.  The problem is recursion — each vote embeds the certificate of
an earlier view, which embeds votes, which embed certificates... so the
serialized certificate grows without bound across view changes (linear in
the view number if shared sub-certificates are deduplicated, exponential
if they are not).

This module implements that scheme so experiment E7 can measure the
growth and contrast it with the bounded ``f + 1``-signature certificates
of :mod:`repro.core.certificates`.  The protocol engine switches schemes
via ``cert_scheme="naive"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Set, Tuple

from ..crypto.keys import KeyRegistry, Signature
from .config import ProtocolConfig
from .payloads import propose_payload, vote_payload
from .selection import selection_admits
from .votes import SignedVote, VoteRecord

__all__ = [
    "NaiveProgressCertificate",
    "naive_certificate_valid",
    "naive_signed_vote_valid",
    "naive_vote_record_valid",
    "certificate_signature_count",
    "certificate_distinct_signatures",
]


@dataclass(frozen=True)
class NaiveProgressCertificate:
    """A certificate that *is* the vote set that justified the selection."""

    value: Any
    view: int
    votes: Tuple[SignedVote, ...]

    def signing_fields(self) -> Tuple[Any, ...]:
        return (self.value, self.view, self.votes)


def naive_certificate_valid(
    cert: Any,
    value: Any,
    view: int,
    registry: KeyRegistry,
    config: ProtocolConfig,
) -> bool:
    """Recursively validate a naive certificate for ``(value, view)``.

    The verifier checks the vote signatures, recursively validates the
    evidence inside each vote, and re-runs the selection algorithm to
    confirm it admits ``value`` — exactly the "simulate the selection
    process locally" idea from Section 3.2.
    """
    if view == 1:
        return cert is None
    if not isinstance(cert, NaiveProgressCertificate):
        return False
    if cert.value != value or cert.view != view:
        return False
    votes_map: Dict[int, SignedVote] = {}
    for signed in cert.votes:
        if signed.voter in votes_map:
            return False
        votes_map[signed.voter] = signed
    if len(votes_map) < config.vote_quorum:
        return False
    for signed in votes_map.values():
        if not naive_signed_vote_valid(signed, view, registry, config):
            return False
    return selection_admits(votes_map, value, config)


def naive_signed_vote_valid(
    signed: SignedVote,
    expected_view: int,
    registry: KeyRegistry,
    config: ProtocolConfig,
) -> bool:
    """Like :func:`repro.core.votes.signed_vote_valid`, with naive-scheme
    recursion into the vote's embedded certificate."""
    if signed.view != expected_view:
        return False
    if signed.phi.signer != signed.voter:
        return False
    if not registry.verify(signed.phi, vote_payload(signed.vote, signed.view)):
        return False
    if signed.vote is None:
        return True
    if signed.vote.view >= expected_view:
        return False
    return naive_vote_record_valid(signed.vote, registry, config)


def naive_vote_record_valid(
    vote: VoteRecord, registry: KeyRegistry, config: ProtocolConfig
) -> bool:
    expected_signer = config.leader_of(vote.view)
    if vote.tau.signer != expected_signer:
        return False
    if not registry.verify(vote.tau, propose_payload(vote.value, vote.view)):
        return False
    return naive_certificate_valid(
        vote.cert, vote.value, vote.view, registry, config
    )


# ----------------------------------------------------------------------
# Size metrics for experiment E7
# ----------------------------------------------------------------------

def certificate_signature_count(cert: Any) -> int:
    """Total signatures in a certificate, counted with multiplicity.

    This models the wire size of a certificate serialized without
    cross-reference sharing — the exponential blow-up the paper warns of.
    """
    if cert is None:
        return 0
    if isinstance(cert, NaiveProgressCertificate):
        total = 0
        for signed in cert.votes:
            total += 1  # phi
            if signed.vote is not None:
                total += 1  # tau
                total += certificate_signature_count(signed.vote.cert)
        return total
    # Bounded certificates expose their own metric.
    return cert.size_in_signatures()


def certificate_distinct_signatures(cert: Any) -> int:
    """Distinct signatures reachable from the certificate.

    This models a careful implementation that deduplicates shared
    sub-certificates — the paper's "linear with respect to the current
    view number" variant.
    """
    seen: Set[Signature] = set()
    _collect_signatures(cert, seen)
    return len(seen)


def _collect_signatures(cert: Any, seen: Set[Signature]) -> None:
    if cert is None:
        return
    if isinstance(cert, NaiveProgressCertificate):
        for signed in cert.votes:
            seen.add(signed.phi)
            if signed.vote is not None:
                seen.add(signed.vote.tau)
                _collect_signatures(signed.vote.cert, seen)
        return
    for sig in getattr(cert, "signatures", ()):  # bounded certificates
        seen.add(sig)
