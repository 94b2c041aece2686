"""Shared helpers for the test suite."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from hypothesis import settings

from repro.core.certificates import ProgressCertificate
from repro.core.config import ProtocolConfig
from repro.core.fastbft import FastBFTProcess
from repro.core.generalized import GeneralizedFBFTProcess
from repro.core.payloads import certack_payload, propose_payload, vote_payload
from repro.core.votes import SignedVote, VoteRecord
from repro.crypto.keys import KeyRegistry
from repro.sim.network import (
    Envelope,
    FanOut,
    Network,
    RoundSynchronousDelay,
    SynchronousDelay,
)
from repro.sim.runner import Cluster


#: ``max_examples`` of the default hypothesis profile (tests/conftest.py).
TIER1_EXAMPLES = 100


def examples(tier1: int) -> int:
    """``max_examples`` for a ``@given`` test that runs ``tier1`` examples
    in tier-1: scaled with the loaded profile, so ``explore`` draws ten
    times as many."""
    return tier1 * settings.default.max_examples // TIER1_EXAMPLES


def make_config(n: int, f: int, t: Optional[int] = None, **kwargs) -> ProtocolConfig:
    if t is None:
        t = f
    return ProtocolConfig(n=n, f=f, t=t, **kwargs)


def make_registry(config: ProtocolConfig) -> KeyRegistry:
    return KeyRegistry.for_processes(config.process_ids)


def build_cluster(
    config: ProtocolConfig,
    registry: Optional[KeyRegistry] = None,
    inputs: Optional[Sequence[Any]] = None,
    generalized: Optional[bool] = None,
    round_synchronous: bool = True,
    delta: float = 1.0,
    **proc_kwargs,
) -> Cluster:
    """A cluster of protocol processes with per-process inputs."""
    registry = registry or make_registry(config)
    if inputs is None:
        inputs = [f"v{pid}" for pid in config.process_ids]
    if generalized is None:
        generalized = not config.is_vanilla
    cls = GeneralizedFBFTProcess if generalized else FastBFTProcess
    processes = [
        cls(pid, config, registry, inputs[pid], **proc_kwargs)
        for pid in config.process_ids
    ]
    model = (
        RoundSynchronousDelay(delta) if round_synchronous else SynchronousDelay(delta)
    )
    return Cluster(processes, delay_model=model)


def envelopes_of(record: FanOut) -> List[Envelope]:
    """The per-recipient view of one send record: what ``len(dsts)``
    separate sends would have put in transit (unstamped)."""
    src, dsts, payload, send_time, deliver_times, size = record
    return [
        Envelope(src, dst, payload, send_time, at, size)
        for dst, at in zip(dsts, deliver_times)
    ]


def record_sends(network: Network) -> List[Envelope]:
    """Hook ``network`` and return the list the hook fills: the
    :func:`envelopes_of` every send from now on.  The trace keeps no
    records, so a test that reads the sends attaches this before the
    run."""
    sends: List[Envelope] = []
    network.add_send_hook(lambda record: sends.extend(envelopes_of(record)))
    return sends


def make_progress_cert(
    registry: KeyRegistry,
    config: ProtocolConfig,
    value: Any,
    view: int,
    signers: Optional[Sequence[int]] = None,
) -> ProgressCertificate:
    """A genuinely valid progress certificate (test utility)."""
    if signers is None:
        signers = list(config.process_ids)[: config.cert_quorum]
    payload = certack_payload(value, view)
    return ProgressCertificate(
        value=value,
        view=view,
        signatures=tuple(registry.signer(pid).sign(payload) for pid in signers),
    )


def make_vote_record(
    registry: KeyRegistry,
    config: ProtocolConfig,
    value: Any,
    view: int,
    commit_cert=None,
) -> VoteRecord:
    """A valid vote record for (value, view), signed by leader(view)."""
    leader = config.leader_of(view)
    tau = registry.signer(leader).sign(propose_payload(value, view))
    cert = None if view == 1 else make_progress_cert(registry, config, value, view)
    return VoteRecord(
        value=value, view=view, cert=cert, tau=tau, commit_cert=commit_cert
    )


def make_signed_vote(
    registry: KeyRegistry,
    config: ProtocolConfig,
    voter: int,
    vote: Optional[VoteRecord],
    view: int,
) -> SignedVote:
    phi = registry.signer(voter).sign(vote_payload(vote, view))
    return SignedVote(voter=voter, vote=vote, view=view, phi=phi)


def make_vote_set(
    registry: KeyRegistry,
    config: ProtocolConfig,
    view: int,
    assignments: Dict[int, Optional[Any]],
    vote_views: Optional[Dict[int, int]] = None,
) -> Dict[int, SignedVote]:
    """Build a vote map: voter -> value (None for nil), all for ``view``.

    ``vote_views`` optionally overrides the view each non-nil vote refers
    to (default: view 1, whose certificates are trivially absent).
    """
    votes: Dict[int, SignedVote] = {}
    for voter, value in assignments.items():
        if value is None:
            vote = None
        else:
            vview = (vote_views or {}).get(voter, 1)
            vote = make_vote_record(registry, config, value, vview)
        votes[voter] = make_signed_vote(registry, config, voter, vote, view)
    return votes
