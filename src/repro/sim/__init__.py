"""Deterministic discrete-event simulation substrate.

This package provides everything the protocols run on: the event loop
(:mod:`~repro.sim.events`), the reliable authenticated network with
pluggable delay models (:mod:`~repro.sim.network`), the process
abstraction (:mod:`~repro.sim.process`), trace recording
(:mod:`~repro.sim.trace`) and the cluster harness
(:mod:`~repro.sim.runner`).
"""

from .digest import cluster_digest, trace_digest
from .events import EventHandle, SimulationError, SimulationTimeout, Simulator
from .network import (
    DEFAULT_DELTA,
    DelayModel,
    DelayRule,
    Envelope,
    FanOut,
    Network,
    NetworkStats,
    PartialSynchronyDelay,
    RandomDelay,
    RoundSynchronousDelay,
    SynchronousDelay,
    payload_size,
)
from .process import Process, ProcessContext, Timer
from .runner import Cluster, ClusterResult
from .trace import ConsistencyViolation, Decision, TraceRecorder, message_delays

__all__ = [
    "Cluster",
    "ClusterResult",
    "ConsistencyViolation",
    "DEFAULT_DELTA",
    "Decision",
    "DelayModel",
    "DelayRule",
    "Envelope",
    "EventHandle",
    "FanOut",
    "Network",
    "NetworkStats",
    "PartialSynchronyDelay",
    "Process",
    "ProcessContext",
    "RandomDelay",
    "RoundSynchronousDelay",
    "SimulationError",
    "SimulationTimeout",
    "Simulator",
    "SynchronousDelay",
    "Timer",
    "TraceRecorder",
    "cluster_digest",
    "message_delays",
    "payload_size",
    "trace_digest",
]
