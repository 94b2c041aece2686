"""Observability: metrics, flight recorder, leader monitor.

Three layers, all opt-in and all zero-cost when absent:

* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges and sim-time histograms, exportable as JSON, fed per replica
  by a :class:`ReplicaMetrics` subscription.
* :mod:`repro.obs.recorder` — a :class:`FlightRecorder`, the run's one
  causal record: every protocol message of every protocol (send and
  delivery) and every local transition (decides, view changes, WAL and
  checkpoint activity, demotions, fault firings) with multi-parent
  causality, in a bounded ring, dumped as JSON lines for ``python -m
  repro.postmortem``.
* :mod:`repro.obs.monitor` — a :class:`LeaderMonitor` per replica:
  sliding-window latency/backlog tracking plus the signed demotion-vote
  protocol that rotates a correct-but-slow (or throttling-Byzantine)
  leader out before its timeout would ever fire.

A run is watched through exactly two seams: the network's tracer slot
(messages; the recorder is its one client) and the cluster's observer
(:meth:`repro.sim.runner.Cluster.observe`: local transitions; the
recorder and the metrics subscribe).  With observability disabled (the
default everywhere) the simulation's golden trace digests are
byte-identical to an uninstrumented build — and they stay byte-identical
with observers *attached*, because the ``Envelope.trace`` side channel
never reaches the recorded fan-outs and observed runs preserve delivery (time,
insertion-order) exactly.
"""

from typing import Any, Dict

from .metrics import Counter, Gauge, Histogram, MetricsRegistry, ReplicaMetrics
from .monitor import DemotionVote, LeaderMonitor, SlidingWindow
from .recorder import FlightEvent, FlightRecorder

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ReplicaMetrics",
    "DemotionVote",
    "LeaderMonitor",
    "SlidingWindow",
    "FlightEvent",
    "FlightRecorder",
    "observers_from_flags",
]


def observers_from_flags(
    metrics_out: str, trace_out: str, record_out: str
) -> Dict[str, Any]:
    """The ``run_scenario`` observer arguments the CLIs' three telemetry
    flags ask for: ``--metrics-out`` a fresh registry, ``--trace-out``
    and ``--record-out`` one fresh recorder between them."""
    observers: Dict[str, Any] = {}
    if metrics_out:
        observers["metrics"] = MetricsRegistry()
    if trace_out or record_out:
        observers["recorder"] = FlightRecorder()
    return observers
