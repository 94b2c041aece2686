"""Execution-coverage facts extracted from a finished scenario run.

The coverage-guided fuzzer (:mod:`repro.fuzz`) steers mutation toward
*novel protocol behavior*, which requires a compact, deterministic
description of what one execution actually exercised: how far each
replica's view advanced, whether the decision took the fast or the slow
path, which partition shapes and delay rules were live, whether
checkpoints and peer catchup fired, and how close each oracle came to a
violation (the graded ``margin`` on :class:`InvariantVerdict`).

Everything here is a *post-hoc read* of state the run already produced —
no hooks, no extra events — so attaching coverage to a result can never
perturb the trace digest.  The returned dict is JSON-safe and fully
deterministic; bucketing into signature features is the fuzzer's job
(:mod:`repro.fuzz.signature`), not ours.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .adapters import BuiltScenario
from .invariants import InvariantVerdict
from .spec import (
    Crash,
    DelayRuleOn,
    PartitionStart,
    Recover,
    ScenarioSpec,
)

__all__ = ["collect_coverage"]


def _rule_descriptor(event: DelayRuleOn) -> str:
    """A stable label for what a delay rule targets."""
    if event.payload_types:
        target = "payload:" + ",".join(sorted(event.payload_types))
    elif event.src is not None:
        target = "edge:src"
    elif event.dst is not None:
        target = "edge:dst"
    else:
        target = "all"
    if event.hold_until is not None:
        target += ":hold"
    return target


def _schedule_facts(spec: ScenarioSpec) -> Dict[str, Any]:
    partitions: List[str] = []
    crashes = recovers = disk_lost = 0
    rules: List[str] = []
    for event in spec.faults:
        if isinstance(event, Crash):
            crashes += 1
            if event.disk == "lost":
                disk_lost += 1
        elif isinstance(event, Recover):
            recovers += 1
        elif isinstance(event, PartitionStart):
            partitions.append("|".join(str(len(g)) for g in sorted(
                event.groups, key=len
            )))
        elif isinstance(event, DelayRuleOn):
            rules.append(_rule_descriptor(event))
    return {
        "partitions": sorted(partitions),
        "crashes": crashes,
        "recovers": recovers,
        "disk_lost": disk_lost,
        "rules": sorted(rules),
        "byzantine": sorted(role.behavior for role in spec.byzantine),
    }


def _honest_views(built: BuiltScenario) -> List[int]:
    """The highest view each honest participant reached, sorted.

    Consensus processes expose ``view`` (Paxos calls it ``ballot``); SMR
    replicas run one consensus instance per slot, so a replica's view is
    the maximum over its instances, decided ones included
    (:attr:`~repro.smr.replica.SMRReplica.highest_view`), floored by the
    leader monitor's view floor when one is attached.
    """
    views: List[int] = []
    if built.mode == "smr":
        honest = set(built.honest_pids)
        for replica in built.replicas:
            if replica.pid not in honest:
                continue
            view = replica.highest_view
            if replica.leader_monitor is not None:
                view = max(view, replica.leader_monitor.view_floor)
            views.append(int(view))
        return sorted(views)
    for pid in built.honest_pids:
        process = built.process_by_pid(pid)
        view = getattr(process, "view", None)
        if view is None:
            view = getattr(process, "ballot", 1)
        views.append(int(view))
    return sorted(views)


def _path_taken(
    built: BuiltScenario, decided: bool, steps: Optional[int]
) -> str:
    if not decided:
        return "none"
    claimed = built.adapter.claimed_fast_delays
    if steps is not None and steps <= claimed:
        return "fast"
    return "slow"


def collect_coverage(
    spec: ScenarioSpec,
    built: BuiltScenario,
    decided: bool,
    steps: Optional[int],
    messages_by_type: Dict[str, int],
    verdicts: Tuple[InvariantVerdict, ...],
) -> Dict[str, Any]:
    """All execution facts the fuzzer's signature is built from."""
    checkpoint_slot = -1
    if built.mode == "smr":
        checkpoint_slot = max(
            (replica.stable_checkpoint_slot for replica in built.replicas),
            default=-1,
        )
    oracle_status = {True: "pass", False: "fail", None: "na"}
    return {
        "protocol": spec.protocol,
        "n": spec.n,
        "f": spec.f,
        "t": spec.t,
        "delay": spec.delay.kind,
        "decided": decided,
        "steps": steps,
        "path": _path_taken(built, decided, steps),
        "views": _honest_views(built),
        **_schedule_facts(spec),
        "checkpoint_slot": checkpoint_slot,
        "catchup_msgs": messages_by_type.get("CatchupRequest", 0)
        + messages_by_type.get("CatchupReply", 0),
        "msgs": dict(sorted(messages_by_type.items())),
        "oracles": {v.name: oracle_status[v.passed] for v in verdicts},
        "margins": {
            v.name: v.margin for v in verdicts if v.margin is not None
        },
    }
