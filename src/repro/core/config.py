"""Protocol configuration: the (n, f, t) triple and derived quorum sizes.

The paper's protocols are parameterized by

* ``n`` — total number of processes,
* ``f`` — maximum number of Byzantine processes tolerated (resilience),
* ``t`` — fast-path threshold: the protocol decides in two message delays
  whenever the *actual* number of faults is at most ``t`` (1 <= t <= f).

The requirement is ``n >= max(3f + 2t - 1, 3f + 1)`` (Sections 3 and 3.4).
For ``t = f`` this is the vanilla ``n >= 5f - 1`` protocol; for ``t = 1`` it
is the optimally resilient ``n >= 3f + 1`` protocol that stays fast under a
single Byzantine fault.

``allow_sub_resilient=True`` lets the lower-bound experiments (E4)
instantiate the protocol *below* the bound, which is exactly how we
demonstrate Theorem 4.5 executably: the same adversary that is harmless at
``n = 3f + 2t - 1`` forces disagreement at ``n = 3f + 2t - 2``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .quorums import (
    commit_quorum,
    min_processes_fast_bft,
)

__all__ = [
    "DurabilityConfig",
    "MonitorConfig",
    "ProtocolConfig",
    "ReplicationConfig",
]

ProcessId = int


@dataclass(frozen=True)
class DurabilityConfig:
    """Tuning knobs of the durability subsystem (``repro.storage``).

    * ``checkpoint_interval`` — slots between application-state
      checkpoints: after executing slot ``s`` with
      ``(s + 1) % interval == 0`` a replica snapshots its state machine
      and broadcasts a signed checkpoint vote; ``2f + 1`` matching votes
      make the checkpoint *stable*, after which the write-ahead log and
      the replica's execution/result caches are compacted up to it;
    * ``catchup_retry`` — how long a recovering replica waits for
      catchup replies before re-broadcasting its request.
    """

    checkpoint_interval: int = 4
    catchup_retry: float = 20.0

    def __post_init__(self) -> None:
        if self.checkpoint_interval < 1:
            raise ValueError(
                f"checkpoint_interval must be >= 1, got {self.checkpoint_interval}"
            )
        if self.catchup_retry <= 0:
            raise ValueError(
                f"catchup_retry must be > 0, got {self.catchup_retry}"
            )


@dataclass(frozen=True)
class MonitorConfig:
    """Tuning knobs of the leader performance monitor (``repro.obs``).

    * ``window`` — span (simulated time) of the sliding windows over
      observed slot latency and local request queue delay;
    * ``degradation_ratio`` — mean slot latency above ``ratio *
      max(queue-delay baseline, min_drain)`` counts as a degraded
      leader and triggers a demotion vote;
    * ``min_drain`` — floor on the queue-delay baseline, so an idle
      replica (empty queue, baseline ~0) does not declare any nonzero
      latency degraded;
    * ``min_samples`` — latency observations required in the window
      before the detector may fire (no votes off one outlier);
    * ``cooldown`` — quiet period after casting a vote or applying a
      demotion; the anti-flapping guard alongside the adaptive
      baseline.
    """

    window: float = 30.0
    degradation_ratio: float = 4.0
    min_drain: float = 2.0
    min_samples: int = 3
    cooldown: float = 60.0

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ValueError(f"window must be > 0, got {self.window}")
        if self.degradation_ratio <= 1:
            raise ValueError(
                f"degradation_ratio must be > 1, got {self.degradation_ratio}"
            )
        if self.min_drain <= 0:
            raise ValueError(f"min_drain must be > 0, got {self.min_drain}")
        if self.min_samples < 1:
            raise ValueError(
                f"min_samples must be >= 1, got {self.min_samples}"
            )
        if self.cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {self.cooldown}")


@dataclass(frozen=True)
class ReplicationConfig:
    """Tuning knobs of the SMR replication engine (``repro.smr``).

    * ``batch_size`` — maximum client commands packed into one slot's
      :class:`~repro.smr.replica.Batch` proposal;
    * ``batch_timeout`` — how long a replica may hold an under-full batch
      open waiting for more commands (``0`` proposes immediately, which
      preserves the single-command latency of the unbatched engine);
    * ``pipeline_depth`` — consensus instances a replica keeps in flight
      concurrently; execution stays strictly in slot order regardless;
    * ``max_slots`` — hard cap on the log length (runaway guard).
    """

    batch_size: int = 8
    batch_timeout: float = 0.0
    pipeline_depth: int = 4
    max_slots: int = 10_000

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.batch_timeout < 0:
            raise ValueError(
                f"batch_timeout must be >= 0, got {self.batch_timeout}"
            )
        if self.pipeline_depth < 1:
            raise ValueError(
                f"pipeline_depth must be >= 1, got {self.pipeline_depth}"
            )
        if self.max_slots < 1:
            raise ValueError(f"max_slots must be >= 1, got {self.max_slots}")


@dataclass(frozen=True)
class ProtocolConfig:
    """Static parameters shared by every process in a deployment."""

    n: int
    f: int
    t: int = -1  # defaults to f (vanilla 5f - 1 protocol)
    allow_sub_resilient: bool = False

    def __post_init__(self) -> None:
        if self.t == -1:
            object.__setattr__(self, "t", self.f)
        if self.f < 1:
            raise ValueError(f"f must be >= 1, got {self.f}")
        if not (1 <= self.t <= self.f):
            raise ValueError(f"need 1 <= t <= f, got t={self.t}, f={self.f}")
        required = min_processes_fast_bft(self.f, self.t)
        if self.n < required and not self.allow_sub_resilient:
            raise ValueError(
                f"n={self.n} is below the bound max(3f+2t-1, 3f+1)={required} "
                f"for f={self.f}, t={self.t}; pass allow_sub_resilient=True "
                f"only for lower-bound experiments"
            )
        if self.n < self.f + 2:
            raise ValueError(f"n={self.n} too small to even run (f={self.f})")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------

    @property
    def process_ids(self) -> tuple:
        """All process ids, ``0 .. n-1``."""
        return tuple(range(self.n))

    def leader_of(self, view: int) -> ProcessId:
        """The agreed leader map: round-robin over process ids.

        The paper uses ``leader(v) = p_((v mod n)+1)``; with 0-based ids we
        use the equivalent rotation ``(v - 1) mod n`` so view 1 is led by
        process 0.
        """
        if view < 1:
            raise ValueError(f"views are numbered from 1, got {view}")
        return (view - 1) % self.n

    @property
    def vote_quorum(self) -> int:
        """Votes a new leader collects during view change: ``n - f``."""
        return self.n - self.f

    @property
    def ack_quorum(self) -> int:
        """Acks needed to decide in the vanilla protocol: ``n - f``."""
        return self.n - self.f

    @property
    def fast_quorum(self) -> int:
        """Acks needed for the generalized fast path: ``n - t``."""
        return self.n - self.t

    @property
    def cert_request_targets(self) -> int:
        """Processes the leader asks to certify its selection: ``2f + 1``."""
        return 2 * self.f + 1

    @property
    def cert_quorum(self) -> int:
        """CertAck signatures forming a progress certificate: ``f + 1``."""
        return self.f + 1

    @property
    def commit_quorum(self) -> int:
        """Signatures/commits for the slow path: ``ceil((n + f + 1) / 2)``."""
        return commit_quorum(self.n, self.f)

    @property
    def equivocation_vote_threshold(self) -> int:
        """Votes for one value (excluding the equivocator) that make it the
        unique safe choice: ``2f`` vanilla (Section 3.2), ``f + t``
        generalized (Appendix A.2)."""
        return 2 * self.f if self.t == self.f else self.f + self.t

    @property
    def is_vanilla(self) -> bool:
        """True when t = f, i.e. the Section 3 protocol with n >= 5f - 1."""
        return self.t == self.f

    @property
    def meets_bound(self) -> bool:
        """Whether n satisfies the paper's (tight) lower bound."""
        return self.n >= min_processes_fast_bft(self.f, self.t)

    def describe(self) -> str:
        return (
            f"n={self.n} f={self.f} t={self.t} "
            f"(vote_q={self.vote_quorum}, fast_q={self.fast_quorum}, "
            f"commit_q={self.commit_quorum})"
        )
