"""Leader performance monitor: demote slow leaders before timeouts fire.

The paper's protocol only reacts to a leader at the extremes — it works,
or its view timer expires.  A *correct-but-slow* leader (or a Byzantine
one throttling just under the timeout) keeps the cluster live but drags
every slot to near-timeout latency, and the pacemaker never rotates it.
This module closes that gap, following the indy-plenum style of
instance-change-on-degradation:

* every replica tracks the observed **slot latency** (consensus open →
  decide) and its own **backlog drain rate** (how long client requests
  wait locally before being packed into a batch) in sliding windows;
* when mean slot latency degrades past ``degradation_ratio`` times the
  drain baseline (clamped below by ``min_drain``), the replica
  broadcasts a **signed demotion vote** naming the current leader and
  the view that succeeds it;
* ``2f + 1`` matching votes trigger a coordinated view change through
  the existing wish-amplification pacemaker — so replicas that reach
  the quorum at different times still synchronize, and ``f`` Byzantine
  replicas can neither trigger nor block a demotion alone;
* a ``cooldown`` after every vote and demotion, plus the drain-rate
  baseline rising under genuine load, prevents rotation flapping when
  the whole cluster (not the leader) is slow.

The monitor *observes* through the window accounting here; the protocol
actions (signing, broadcasting, quorum counting, pacemaker advocacy)
live in :class:`~repro.smr.replica.SMRReplica`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Optional, Tuple

from ..core.config import MonitorConfig

__all__ = ["SlidingWindow", "DemotionVote", "LeaderMonitor"]


class SlidingWindow:
    """Time-bounded sample window: keeps ``(time, value)`` pairs no older
    than ``span`` behind the latest observation/prune."""

    __slots__ = ("span", "_items")

    def __init__(self, span: float) -> None:
        if span <= 0:
            raise ValueError(f"window span must be positive, got {span}")
        self.span = span
        self._items: Deque[Tuple[float, float]] = deque()

    def add(self, time: float, value: float) -> None:
        self._items.append((time, value))
        self.prune(time)

    def prune(self, now: float) -> None:
        cutoff = now - self.span
        items = self._items
        while items and items[0][0] < cutoff:
            items.popleft()

    def clear(self) -> None:
        self._items.clear()

    @property
    def count(self) -> int:
        return len(self._items)

    @property
    def mean(self) -> Optional[float]:
        if not self._items:
            return None
        return sum(value for _, value in self._items) / len(self._items)


@dataclass(frozen=True)
class DemotionVote:
    """``demote(view)``: the sender wants ``target`` replaced by entering
    ``view``.  Signed over :func:`repro.core.payloads.demotion_payload`
    so Byzantine replicas cannot forge a quorum."""

    view: int
    target: int
    signature: Any = None


class LeaderMonitor:
    """Sliding-window degradation detector for one replica."""

    def __init__(self, pid: int, n: int, config: MonitorConfig) -> None:
        self.pid = pid
        self.n = n
        self.config = config
        #: Demotions apply cluster-wide view floors: every consensus
        #: instance (current and future) runs at >= this view.
        self.view_floor = 1
        self.votes_cast = 0
        self.demotions = 0
        self._latency = SlidingWindow(config.window)
        self._drain = SlidingWindow(config.window)
        self._open: Dict[int, float] = {}
        self._cooldown_until = float("-inf")

    # ------------------------------------------------------------------
    # Observations
    # ------------------------------------------------------------------

    def note_slot_opened(self, slot: int, now: float) -> None:
        self._open.setdefault(slot, now)

    def note_slot_decided(self, slot: int, now: float) -> Optional[float]:
        opened = self._open.pop(slot, None)
        if opened is None:
            return None
        latency = now - opened
        self._latency.add(now, latency)
        return latency

    def note_queue_delay(self, now: float, delay: float) -> None:
        self._drain.add(now, delay)

    # ------------------------------------------------------------------
    # Detection
    # ------------------------------------------------------------------

    def degradation_threshold(self) -> float:
        """Latency above this means the leader, not the workload, is slow.

        The baseline is this replica's own request queue delay: under a
        genuine load burst *both* sides grow, so the threshold rises and
        the monitor stays quiet (anti-flapping); under a throttling
        leader only the slot latency grows.
        """
        cfg = self.config
        drain = self._drain.mean
        baseline = max(
            drain if drain is not None else 0.0, cfg.min_drain
        )
        return cfg.degradation_ratio * baseline

    def should_demote(self, now: float) -> bool:
        if now < self._cooldown_until:
            return False
        self._latency.prune(now)
        self._drain.prune(now)
        if self._latency.count < self.config.min_samples:
            return False
        mean = self._latency.mean
        return mean is not None and mean > self.degradation_threshold()

    # ------------------------------------------------------------------
    # Protocol bookkeeping (driven by SMRReplica)
    # ------------------------------------------------------------------

    def note_vote_cast(self, now: float) -> None:
        self.votes_cast += 1
        self._cooldown_until = now + self.config.cooldown

    def note_demotion(self, now: float, view: int) -> None:
        """A demotion quorum formed: raise the floor and reset windows —
        latencies observed under the deposed leader must not condemn its
        successor."""
        if view <= self.view_floor:
            return
        self.view_floor = view
        self.demotions += 1
        self._latency.clear()
        self._open.clear()
        self._cooldown_until = now + self.config.cooldown

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        return {
            "view_floor": self.view_floor,
            "votes_cast": self.votes_cast,
            "demotions": self.demotions,
            "window_latency_mean": self._latency.mean,
            "window_latency_samples": self._latency.count,
            "window_drain_mean": self._drain.mean,
            "threshold": self.degradation_threshold(),
        }
