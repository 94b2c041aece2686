"""T-faulty two-step executions (Section 4.1), executable.

The lower bound reasons about executions with very specific shapes:

* rounds are lock-step — every message sent in round ``i`` is delivered
  exactly at time ``i * DELTA`` (our
  :class:`~repro.sim.network.RoundSynchronousDelay`);
* the ``t`` processes in ``T`` follow the protocol honestly during the
  first round and then crash (our
  :class:`~repro.byzantine.behaviors.CrashAfter` with
  ``crash_time = DELTA``);
* every correct process decides no later than time ``2 * DELTA``.

:func:`run_t_faulty_execution` builds and runs exactly that execution for
a given protocol factory, initial configuration and fault set, and
reports whether it was two-step.  The checker (experiment E10) uses it to
verify our protocol *is* t-two-step; Lemma 4.4's influential-process
search replays it over the binary initial configurations ``I_0 .. I_n``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Tuple

from ..byzantine.behaviors import CrashAfter
from ..sim.network import RoundSynchronousDelay
from ..sim.process import Process
from ..sim.runner import Cluster

__all__ = [
    "InitialConfiguration",
    "binary_configuration",
    "TFaultyResult",
    "run_t_faulty_execution",
]

#: A protocol factory builds the process with the given pid and input.
ProtocolFactory = Callable[[int, Any], Process]


@dataclass(frozen=True)
class InitialConfiguration:
    """``I : Pi -> V`` — every process's input value (Section 4.1)."""

    inputs: Tuple[Any, ...]

    @property
    def n(self) -> int:
        return len(self.inputs)

    def input_of(self, pid: int) -> Any:
        return self.inputs[pid]


def binary_configuration(n: int, ones: int) -> InitialConfiguration:
    """``I_i`` from Lemma 4.4: the first ``ones`` processes propose 1,
    the rest propose 0."""
    if not (0 <= ones <= n):
        raise ValueError(f"need 0 <= ones <= n, got {ones}/{n}")
    return InitialConfiguration(
        inputs=tuple(1 if pid < ones else 0 for pid in range(n))
    )


@dataclass(frozen=True)
class TFaultyResult:
    """Outcome of one T-faulty execution."""

    two_step: bool
    consensus_value: Any
    decision_times: Tuple[Tuple[int, float], ...]
    faulty: Tuple[int, ...]


def run_t_faulty_execution(
    factory: ProtocolFactory,
    configuration: InitialConfiguration,
    faulty: Iterable[int],
    delta: float = 1.0,
    grace_rounds: int = 0,
) -> TFaultyResult:
    """Run the T-faulty execution and report whether it was two-step.

    ``grace_rounds`` extends the observation window past ``2 * DELTA``
    (useful for diagnosing *why* a protocol is not two-step); the
    ``two_step`` verdict always refers to decisions by ``2 * DELTA``.
    """
    faulty_set = tuple(sorted(set(faulty)))
    n = configuration.n
    for pid in faulty_set:
        if not (0 <= pid < n):
            raise ValueError(f"faulty pid {pid} out of range")
    processes: list[Process] = []
    for pid in range(n):
        proc = factory(pid, configuration.input_of(pid))
        if pid in faulty_set:
            proc = CrashAfter(proc, crash_time=delta)
        processes.append(proc)
    correct = [pid for pid in range(n) if pid not in faulty_set]
    cluster = Cluster(processes, delay_model=RoundSynchronousDelay(delta))
    horizon = (2 + grace_rounds) * delta
    cluster.run(until=horizon + delta * 1e-6)
    trace = cluster.trace
    times = trace.decision_times(correct)
    value = trace.check_agreement(correct)  # raises on disagreement
    two_step = len(times) == len(correct) and all(
        t <= 2 * delta + 1e-9 for t in times.values()
    )
    return TFaultyResult(
        two_step=two_step,
        consensus_value=value,
        decision_times=tuple(sorted(times.items())),
        faulty=faulty_set,
    )
