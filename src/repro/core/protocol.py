"""Common base classes for consensus process implementations.

:class:`DecidingProcess` adds the one-shot ``Decide(x)`` callback of the
consensus problem (Section 2.2) to a simulated process; the cluster
harness wires ``decision_hook`` so decisions land in the trace recorder.
Beside it sits ``view_hook``: whoever owns the process (the cluster, or
an SMR replica for its per-slot instances) is told of each view entry.
Its message table holds the row every protocol shares: a
:class:`~repro.sync.synchronizer.WishMessage` goes to ``self.pacemaker``.

:class:`ConsensusProcess` further binds a process to this paper's
protocol configuration and key registry; the baselines (PBFT, FaB, Paxos)
derive from :class:`DecidingProcess` directly with their own parameters.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..crypto.keys import KeyRegistry, Signer
from ..sim.process import Process
from ..sim.trace import ConsistencyViolation
from ..sync.synchronizer import WishMessage
from .config import ProtocolConfig

__all__ = ["DecidingProcess", "ConsensusProcess"]


class DecidingProcess(Process):
    """A process with an input value and a one-shot decision."""

    MESSAGES = ((WishMessage, "_handle_wish", "none", "wish", None),)

    def __init__(self, pid: int, input_value: Any) -> None:
        super().__init__(pid)
        self.input_value = input_value
        self.decision_hook: Optional[Callable[[Any], None]] = None
        #: Called with the view (or ballot) being entered, right after
        #: the entry's monotonic guard and before any state change or
        #: send — so a hook that logs the entry logs it first.
        self.view_hook: Optional[Callable[[int], None]] = None
        self._decided_value: Optional[Any] = None
        self._has_decided = False

    @property
    def decided(self) -> bool:
        return self._has_decided

    @property
    def decided_value(self) -> Any:
        return self._decided_value

    def decide(self, value: Any) -> None:
        """Trigger the one-shot ``Decide`` callback.

        Further calls with the same value are ignored (a process may keep
        assembling quorums after deciding); a different value indicates a
        protocol bug and raises immediately.
        """
        if self._has_decided:
            if self._decided_value != value:
                raise ConsistencyViolation(
                    f"process {self.pid} decided {self._decided_value!r} "
                    f"then {value!r}"
                )
            return
        self._has_decided = True
        self._decided_value = value
        if self.decision_hook is not None:
            self.decision_hook(value)
        self.on_decide(value)

    def on_decide(self, value: Any) -> None:
        """Subclass hook invoked once, after the decision is recorded."""

    def _handle_wish(self, sender: int, message: WishMessage) -> None:
        self.pacemaker.on_wish(sender, message)


class ConsensusProcess(DecidingProcess):
    """A deciding process bound to this paper's (n, f, t) configuration."""

    def __init__(
        self,
        pid: int,
        config: ProtocolConfig,
        registry: KeyRegistry,
        input_value: Any,
    ) -> None:
        if pid not in config.process_ids:
            raise ValueError(f"pid {pid} not in 0..{config.n - 1}")
        super().__init__(pid, input_value)
        self.config = config
        self.registry = registry
        self.signer: Signer = registry.signer(pid)
