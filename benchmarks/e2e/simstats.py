"""The instrumented warm-up pass: simulated statistics and layer counters.

Everything here is read *after* a run from objects the program already
built — the ``ScenarioResult`` and the ``BuiltScenario`` the adapter
returned — so the execution (and its trace digest) is the one an
un-instrumented pass produces; the benchmark checks that it is.

The only seam used is ``scenarios.runner.ADAPTERS``: each adapter is
swapped for a proxy whose ``build()`` keeps the ``BuiltScenario`` it
hands to the runner.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.fuzz.campaign import CampaignReport, run_campaign
from repro.scenarios import runner as scenario_runner
from repro.scenarios.runner import ScenarioResult, run_scenario
from repro.scenarios.spec import Recover, ScenarioSpec

from workloads import Inputs, execute_pass


class _BuildTap:
    """Adapter proxy: delegates everything, remembers what it built."""

    def __init__(self, inner: Any, sink: List[Any]) -> None:
        self._inner = inner
        self._sink = sink

    def build(self, spec: ScenarioSpec) -> Any:
        built = self._inner.build(spec)
        self._sink.append(built)
        return built

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


@contextmanager
def tapped_adapters(sink: List[Any]) -> Iterator[None]:
    adapters = scenario_runner.ADAPTERS
    originals = dict(adapters)
    for key, adapter in originals.items():
        adapters[key] = _BuildTap(adapter, sink)
    try:
        yield
    finally:
        adapters.update(originals)


@dataclass
class RunFacts:
    """The simulated statistics of one ``run_scenario`` call."""

    ops: int
    #: Per-op simulated latencies: submit -> f+1 matching replies for
    #: SMR commands, start -> last live honest decide otherwise.
    latencies: List[float]
    duration: float
    messages: int
    bytes: int
    events: int
    verify_hits: int = 0
    verify_misses: int = 0
    batch_verifies: int = 0
    views_advanced: int = 0
    # -- command workloads only (SMR runs whose op is a command)
    applied_slots: int = 0
    submitted: int = 0
    request_sends: int = 0
    replicas: int = 0
    completions: List[float] = field(default_factory=list)
    recoveries: int = 0
    catchup_request_msgs: int = 0
    recovery_deltas: List[float] = field(default_factory=list)


def _facts_of(result: ScenarioResult, built: Any, count_commands: bool) -> RunFacts:
    duration = result.decision_time if result.decision_time is not None else 0.0
    facts = RunFacts(
        ops=result.total_requests if count_commands else 1,
        latencies=[duration],
        duration=duration,
        messages=result.messages_sent,
        bytes=result.bytes_sent,
        events=result.events_processed,
        views_advanced=sum(v - 1 for v in result.coverage.get("views", ())),
    )
    registry = getattr(built, "registry", None)
    if registry is not None:
        facts.verify_hits = registry.cache_hits
        facts.verify_misses = registry.cache_misses
        facts.batch_verifies = registry.batch_verifies
    if not count_commands:
        return facts
    spec = result.spec
    facts.applied_slots = result.applied_slots
    facts.replicas = spec.n
    facts.request_sends = result.messages_by_type.get("Request", 0)
    facts.catchup_request_msgs = result.messages_by_type.get("CatchupRequest", 0)
    outcomes = [o for client in built.clients for o in client.outcomes.values()]
    facts.submitted = len(outcomes)
    facts.completions = sorted(
        o.completed_at for o in outcomes if o.completed_at is not None
    )
    facts.latencies = [o.latency for o in outcomes if o.latency is not None]
    durable = {r.pid: r for r in built.replicas if r.storage is not None}
    for event in spec.faults:
        if isinstance(event, Recover) and event.pid in durable:
            facts.recoveries += 1
            delta = _recovery_delta(durable[event.pid], event)
            if delta is not None:
                facts.recovery_deltas.append(delta)
    return facts


def _recovery_delta(replica: Any, event: Recover) -> Optional[float]:
    """Recover -> catchup finished (target reached, catchup inactive).

    The one statistic with no public read: the catchup manager's
    completion time.  If a refactor moves it this reports nothing (and
    says so) instead of failing the benchmark.
    """
    manager = getattr(replica, "_catchup", None)
    completed_at = getattr(manager, "completed_at", None)
    if completed_at is None:
        print(
            f"e2e: no catchup completion time for pid {event.pid}; "
            "storage.recovery_deltas under-reports",
            file=sys.stderr,
        )
        return None
    return completed_at - event.at


@dataclass
class WarmupOutcome:
    results: List[ScenarioResult]
    report: Optional[CampaignReport]
    facts: List[RunFacts]


def instrumented_pass(inputs: Inputs) -> WarmupOutcome:
    """One full pass with the adapter tap on; see the module docstring."""
    sink: List[Any] = []
    facts: List[RunFacts] = []
    count_commands = inputs.op == "command"

    def run(spec: ScenarioSpec) -> ScenarioResult:
        result = run_scenario(spec)
        facts.append(_facts_of(result, sink.pop(), count_commands))
        return result

    with tapped_adapters(sink):
        results, report = execute_pass(
            inputs, run=run, campaign=lambda config: run_campaign(config, run=run)
        )
    return WarmupOutcome(results=results, report=report, facts=facts)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------


def percentile(sorted_values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(1, math.ceil(share * len(sorted_values)))
    return sorted_values[rank - 1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def sim_metrics(facts: Sequence[RunFacts]) -> Tuple[Dict[str, float], int]:
    """The exact end-to-end metrics over ``facts``; also the latency
    sample count."""
    ops = sum(f.ops for f in facts)
    latencies = sorted(x for f in facts for x in f.latencies)
    metrics = {
        "sim_latency_p50": percentile(latencies, 0.50),
        "sim_latency_p95": percentile(latencies, 0.95),
        "sim_latency_max": latencies[-1],
        "sim_ops_per_delta": _ratio(ops, sum(f.duration for f in facts)),
        "msgs_per_op": _ratio(sum(f.messages for f in facts), ops),
        "bytes_per_op": _ratio(sum(f.bytes for f in facts), ops),
        "sim_events_per_op": _ratio(sum(f.events for f in facts), ops),
    }
    return metrics, len(latencies)


def layer_counters(
    facts: Sequence[RunFacts], report: Optional[CampaignReport]
) -> Dict[str, float]:
    """Per-layer counters readable without a profile (exact).

    The ``smr.*`` and ``storage.*`` counters are per *command*: only the
    workloads whose op is a command carry the facts behind them.
    """
    ops = sum(f.ops for f in facts)
    smr = [f for f in facts if f.replicas]
    smr_ops = sum(f.ops for f in smr)
    hits = sum(f.verify_hits for f in facts)
    verifies = hits + sum(f.verify_misses for f in facts)
    gaps = [
        later - earlier
        for f in smr
        for earlier, later in zip(f.completions, f.completions[1:])
    ]
    # Every (re)transmission of a request goes to all n replicas.
    transmissions = sum(_ratio(f.request_sends, f.replicas) for f in smr)
    recoveries = sum(f.recoveries for f in smr)
    deltas = [d for f in smr for d in f.recovery_deltas]
    # A catchup round broadcasts one request to the n - 1 peers.
    catchup_rounds = sum(
        _ratio(f.catchup_request_msgs, f.replicas - 1) for f in smr
    )
    counters = {
        "crypto.verifies_per_op": _ratio(verifies, ops),
        "crypto.batch_verifies_per_op": _ratio(
            sum(f.batch_verifies for f in facts), ops
        ),
        "crypto.verify_cache_hit_ratio": _ratio(hits, verifies),
        "smr.cmds_per_slot": _ratio(
            smr_ops, sum(f.applied_slots for f in smr)
        ),
        "smr.client_retries_per_op": _ratio(
            transmissions - sum(f.submitted for f in smr), smr_ops
        ),
        "smr.outage_deltas": max(gaps, default=0.0),
        "storage.catchup_requests_per_recovery": _ratio(
            catchup_rounds, recoveries
        ),
        "storage.recovery_deltas": max(deltas, default=0.0),
        "sync.view_entries_per_pass": float(
            sum(f.views_advanced for f in facts)
        ),
        "fuzz.unique_signatures": 0.0,
        "fuzz.novel_ratio": 0.0,
        "fuzz.mutated_share": 0.0,
    }
    if report is not None and report.executed:
        mutants = report.trajectory[-1].get("mutants", 0) if report.trajectory else 0
        counters["fuzz.unique_signatures"] = float(report.unique_signatures)
        counters["fuzz.novel_ratio"] = report.unique_signatures / report.executed
        counters["fuzz.mutated_share"] = mutants / report.executed
    return counters

