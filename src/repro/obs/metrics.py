"""Deterministic metrics: counters, gauges, sim-time histograms.

Everything here measures *simulated* quantities (event counts, simulated
latencies), so snapshots are exactly reproducible run over run — unlike
the wall-clock rates E21 records (``benchmarks/bench_e21_obsoverhead.py``).

Design constraints, in order:

1. **Zero overhead when disabled.**  A disabled registry hands out the
   shared :data:`NULL_METRIC` null-object whose methods do nothing, and
   instrumented code holds no registry at all: the replicas' instruments
   are fed by :class:`ReplicaMetrics`, a subscriber to the cluster's
   observer, which is ``None`` when nobody asked for metrics.
2. **Bounded memory.**  Histograms keep a fixed-size reservoir of the
   most recent observations (plus exact running count/total/min/max),
   so a long run cannot grow a metric without bound.
3. **Determinism.**  The reservoir is "last K values", not random
   sampling: percentile snapshots depend only on the observation
   sequence, never on an RNG.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRIC",
    "ReplicaMetrics",
]


class Counter:
    """Monotonically increasing event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot(self) -> int:
        return self.value


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Any = 0

    def set(self, value: Any) -> None:
        self.value = value

    def snapshot(self) -> Any:
        return self.value


def percentile_nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted non-empty sample.

    Deterministic and numpy-free: the reservoir snapshot must not vary
    with interpolation-mode defaults across numpy versions.
    """
    if not sorted_values:
        raise ValueError("cannot take a percentile of an empty sample")
    # ceil(q/100 * len), clamped to [1, len].
    rank = -(-q * len(sorted_values) // 100)
    rank = min(max(1, int(rank)), len(sorted_values))
    return float(sorted_values[rank - 1])


class Histogram:
    """Sim-time sample distribution with a fixed-size reservoir.

    Exact ``count``/``total``/``min``/``max`` over every observation;
    percentiles are computed from the retained window of the most
    recent ``capacity`` values (a ring buffer, overwritten oldest-first).
    """

    __slots__ = (
        "name", "capacity", "count", "total", "minimum", "maximum",
        "_ring", "_cursor",
    )

    def __init__(self, name: str, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"histogram capacity must be >= 1, got {capacity}")
        self.name = name
        self.capacity = capacity
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self._ring: List[float] = []
        self._cursor = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        if len(self._ring) < self.capacity:
            self._ring.append(value)
        else:
            self._ring[self._cursor] = value
            self._cursor = (self._cursor + 1) % self.capacity

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def values(self) -> List[float]:
        """The retained reservoir (most recent ``capacity`` samples)."""
        return list(self._ring)

    def percentile(self, q: float) -> Optional[float]:
        if not self._ring:
            return None
        return percentile_nearest_rank(sorted(self._ring), q)

    def snapshot(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class _NullMetric:
    """Absorbs every metric operation; shared by disabled registries."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: Any) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def snapshot(self) -> None:
        return None


NULL_METRIC = _NullMetric()


class _Namespace:
    """Registry view that prefixes every metric name."""

    __slots__ = ("_registry", "_prefix")

    def __init__(self, registry: "MetricsRegistry", prefix: str) -> None:
        self._registry = registry
        self._prefix = prefix

    def counter(self, name: str) -> Any:
        return self._registry.counter(self._prefix + name)

    def gauge(self, name: str) -> Any:
        return self._registry.gauge(self._prefix + name)

    def histogram(self, name: str, capacity: Optional[int] = None) -> Any:
        return self._registry.histogram(self._prefix + name, capacity)

    def namespace(self, prefix: str) -> "_Namespace":
        return _Namespace(self._registry, self._prefix + prefix + ".")


class MetricsRegistry:
    """Get-or-create store of named metrics.

    ``namespace("replica.0")`` returns a view that prefixes names with
    ``replica.0.`` — per-process instrumentation shares one registry
    without name collisions, and :meth:`to_dict` snapshots everything.
    """

    def __init__(self, enabled: bool = True, reservoir: int = 256) -> None:
        self.enabled = enabled
        self.reservoir = reservoir
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Any:
        if not self.enabled:
            return NULL_METRIC
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Any:
        if not self.enabled:
            return NULL_METRIC
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str, capacity: Optional[int] = None) -> Any:
        if not self.enabled:
            return NULL_METRIC
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(
                name, capacity or self.reservoir
            )
        return metric

    def namespace(self, prefix: str) -> _Namespace:
        return _Namespace(self, prefix + ".")

    # ------------------------------------------------------------------
    def collect_network(self, network: Any, sent_by_type: Dict[str, int]) -> None:
        """Fold one finished run's traffic in (O(types), at collection
        time — never on the send hot path): the network's own counters
        as gauges, and ``sent_by_type`` — the trace recorder's
        :meth:`~repro.sim.trace.TraceRecorder.messages_by_type` — added
        to the ``net.sent.<TypeName>`` counters, which therefore
        accumulate over every run a shared registry watches."""
        stats = network.stats
        self.gauge("net.messages_sent").set(stats.messages_sent)
        self.gauge("net.messages_delivered").set(stats.messages_delivered)
        self.gauge("net.bytes_sent").set(stats.bytes_sent)
        for name, count in sent_by_type.items():
            self.counter("net.sent." + name).inc(count)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe snapshot of every metric, sorted by name."""
        out: Dict[str, Any] = {
            "counters": {
                name: metric.value
                for name, metric in sorted(self._counters.items())
            },
            "gauges": {
                name: metric.value
                for name, metric in sorted(self._gauges.items())
            },
            "histograms": {
                name: metric.snapshot()
                for name, metric in sorted(self._histograms.items())
            },
        }
        return out

    def to_json(self, indent: Optional[int] = None) -> str:
        """The :meth:`to_dict` snapshot as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """The snapshot in the Prometheus text exposition format.

        Metric names are sanitized (``replica.0.requests`` →
        ``replica_0_requests``); histograms export as summaries (exact
        ``_count``/``_sum`` plus reservoir quantiles).  Output is sorted
        by name, so two identical runs export byte-identical text.
        """
        lines: List[str] = []
        for name, counter in sorted(self._counters.items()):
            prom = _prom_name(name)
            lines.append(f"# TYPE {prom} counter")
            lines.append(f"{prom} {_prom_value(counter.value)}")
        for name, gauge in sorted(self._gauges.items()):
            prom = _prom_name(name)
            lines.append(f"# TYPE {prom} gauge")
            lines.append(f"{prom} {_prom_value(gauge.value)}")
        for name, histogram in sorted(self._histograms.items()):
            prom = _prom_name(name)
            lines.append(f"# TYPE {prom} summary")
            for q in (0.5, 0.95, 0.99):
                value = histogram.percentile(q * 100)
                if value is not None:
                    lines.append(
                        f'{prom}{{quantile="{q}"}} {_prom_value(value)}'
                    )
            lines.append(f"{prom}_sum {_prom_value(histogram.total)}")
            lines.append(f"{prom}_count {histogram.count}")
        return "\n".join(lines) + "\n" if lines else ""


class ReplicaMetrics:
    """The metrics' subscription to a cluster's observer
    (:meth:`~repro.sim.runner.Cluster.observe`): turns the SMR replicas'
    lifecycle events into the ``replica.<pid>.*`` instruments.

    The instruments of every pid in ``pids`` exist from construction, so
    a replica that never saw a request still reports its zeros.
    """

    def __init__(self, registry: MetricsRegistry, pids: Sequence[int]) -> None:
        #: (pid, observed event kind) -> the instrument it feeds.
        self._instruments: Dict[Tuple[int, str], Any] = {}
        for pid in pids:
            ns = registry.namespace(f"replica.{pid}")
            self._instruments.update({
                (pid, "request"): ns.counter("requests"),
                (pid, "batched"): ns.histogram("queue_delay"),
                (pid, "executed"): ns.counter("commands_executed"),
                (pid, "slot-latency"): ns.histogram("slot_latency"),
                (pid, "demotion-vote"): ns.counter("demotion_votes"),
                (pid, "demotion"): ns.counter("demotions"),
            })
        #: (pid, request key) -> when the request reached that replica.
        self._arrived: Dict[Tuple[int, Any], float] = {}

    def observe(
        self,
        kind: str,
        pid: int,
        time: float,
        slot: Optional[int],
        view: Optional[int],
        detail: Any,
    ) -> None:
        """One event, stamped by :meth:`~repro.sim.runner.Cluster.observe`."""
        instrument = self._instruments.get((pid, kind))
        if instrument is None:
            return
        if kind == "request":  # detail: the (client, request_id) key
            instrument.inc()
            self._arrived[pid, detail] = time
        elif kind == "batched":  # detail: the keys packed into the batch
            for key in detail:
                arrived = self._arrived.pop((pid, key), None)
                if arrived is not None:
                    instrument.observe(time - arrived)
        elif kind == "slot-latency":  # detail: open -> decide, sim time
            instrument.observe(detail)
        else:  # detail: commands the slot applied, for "executed"
            instrument.inc(detail if kind == "executed" else 1)


_PROM_INVALID = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    prom = _PROM_INVALID.sub("_", name)
    if prom and prom[0].isdigit():
        prom = "_" + prom
    return prom


def _prom_value(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    try:
        return repr(float(value))
    except (TypeError, ValueError):
        return "NaN"
