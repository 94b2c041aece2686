"""View synchronization (the "pacemaker").

The paper (Section 3) assumes a background view-synchronization protocol
with three properties:

1. a correct process's view number never decreases;
2. in any infinite execution, a correct leader is elected infinitely often;
3. if a correct leader is elected after GST, no correct process changes
   its view for at least ``5 * DELTA``.

Any synchronizer from the literature qualifies; we implement a compact
wish-amplification synchronizer with exponentially growing timeouts
(Bracha-style double-threshold echo, as used by e.g. Bravo-Chockler-
Gotsman and HotStuff-family pacemakers):

* every process tracks the highest view each peer *wishes* to enter;
* a timeout makes a process wish for ``current_view + 1``;
* seeing ``f + 1`` wishes above its own makes a process adopt and
  re-broadcast the ``(f + 1)``-th highest wish (amplification — at least
  one of those wishers is correct);
* seeing ``2f + 1`` wishes at or above some view makes the process enter
  that view.

Timeouts double every view, so after GST views eventually last long
enough (property 3) and a correct leader is reached (property 2 — the
leader map is round-robin).  Wishes are monotone, so views never decrease
(property 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..core.quorums import majority_correct, one_correct

__all__ = ["WishMessage", "Pacemaker"]


@dataclass(frozen=True)
class WishMessage:
    """``wish(v)``: the sender wants to enter view ``v``."""

    view: int

    def signing_fields(self) -> Tuple[str, int]:
        return ("wish", self.view)


class Pacemaker:
    """Wish-amplification view synchronizer bound to one process.

    The owning process provides the environment through callables so the
    pacemaker stays protocol-agnostic (the baselines reuse it too):
    ``current_view`` reads the process view, ``enter_view`` advances it,
    ``broadcast`` sends a :class:`WishMessage` to everyone, ``set_timer``
    arms the named local timeout.
    """

    TIMER_NAME = "pacemaker"

    def __init__(
        self,
        pid: int,
        n: int,
        f: int,
        current_view: Callable[[], int],
        enter_view: Callable[[int], None],
        broadcast: Callable[[WishMessage], None],
        set_timer: Callable[[str, float, Callable[[], None]], None],
        cancel_timer: Callable[[str], None],
        base_timeout: float = 12.0,
        multiplier: float = 2.0,
        max_timeout: float = 1e9,
        enabled: bool = True,
        entry_quorum: Optional[int] = None,
        amplify_quorum: Optional[int] = None,
    ) -> None:
        self.entry_quorum = (
            entry_quorum if entry_quorum is not None else majority_correct(f)
        )
        self.amplify_quorum = (
            amplify_quorum if amplify_quorum is not None else one_correct(f)
        )
        if n < self.entry_quorum:
            # The entry threshold must fit in n.  We deliberately do not
            # demand n >= 3f + 1 here: the lower-bound experiments run the
            # protocol below its resilience bound on purpose.
            raise ValueError(
                f"pacemaker entry quorum {self.entry_quorum} exceeds n={n}"
            )
        self.pid = pid
        self.n = n
        self.f = f
        self._current_view = current_view
        self._enter_view = enter_view
        self._broadcast = broadcast
        self._set_timer = set_timer
        self._cancel_timer = cancel_timer
        self.base_timeout = base_timeout
        self.multiplier = multiplier
        self.max_timeout = max_timeout
        self.enabled = enabled
        self._wishes: Dict[int, int] = {}
        self._my_wish = 1
        self._stopped = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self.enabled and not self._stopped:
            self._arm()

    def stop(self) -> None:
        """Stop initiating view changes (the process may still follow)."""
        self._stopped = True
        self._cancel_timer(self.TIMER_NAME)

    def _arm(self) -> None:
        view = self._current_view()
        timeout = min(
            self.base_timeout * (self.multiplier ** (view - 1)),
            self.max_timeout,
        )
        self._set_timer(self.TIMER_NAME, timeout, self._on_timeout)

    def _on_timeout(self) -> None:
        if self._stopped:
            return
        self._advocate(self._current_view() + 1)
        self._arm()

    # ------------------------------------------------------------------
    def advocate(self, view: int) -> None:
        """Externally request a view change (e.g. the leader-performance
        monitor demoting a slow leader): wish for ``view`` through the
        normal amplification path, so processes that were asked at
        different times still enter together on ``2f + 1`` wishes."""
        if self._stopped:
            return
        self._advocate(view)

    def _advocate(self, view: int) -> None:
        """Wish for ``view`` (monotone) and tell everyone."""
        if view <= self._my_wish:
            return
        self._my_wish = view
        self._wishes[self.pid] = view
        self._broadcast(WishMessage(view=view))
        self._check_entry()

    def on_wish(self, sender: int, message: WishMessage) -> None:
        """Handle a peer's wish; may amplify and may enter a view."""
        previous = self._wishes.get(sender, 0)
        if message.view <= previous:
            return
        self._wishes[sender] = message.view
        amplify_to = self._kth_highest_wish(self.amplify_quorum)
        if amplify_to > self._my_wish:
            self._advocate(amplify_to)
        self._check_entry()

    # ------------------------------------------------------------------
    def _kth_highest_wish(self, k: int) -> int:
        wishes = sorted(self._wishes.values(), reverse=True)
        if len(wishes) < k:
            return 0
        return wishes[k - 1]

    def _check_entry(self) -> None:
        entry_view = self._kth_highest_wish(self.entry_quorum)
        if entry_view > self._current_view():
            self._enter_view(entry_view)
            if not self._stopped:
                self._arm()
