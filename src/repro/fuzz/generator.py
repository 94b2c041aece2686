"""The blind scenario generator and the shrinker.

:func:`generate_scenario` maps a seed to a random-but-*survivable*
scenario: fault mixes stay within the protocol's budget, partitions heal,
delay rules lift — so a correct protocol must pass every oracle on every
seed.  Any failing seed is therefore a bug (in the protocol, the engine,
or the schedule's assumptions) worth keeping; :func:`shrink_spec` reduces
it to a minimal reproducer by dropping schedule elements while the
failure persists.  A blind sweep is
:func:`~repro.fuzz.campaign.run_blind`: the campaign loop drawing only
from this generator.
"""

from __future__ import annotations

import random
from typing import Callable, List, Sequence, Tuple

from ..scenarios.adapters import ADAPTERS
from ..scenarios.spec import (
    ByzantineRole,
    Crash,
    DelayRuleOff,
    DelayRuleOn,
    DelaySpec,
    FaultEvent,
    PartitionHeal,
    PartitionStart,
    Recover,
    ScenarioError,
    ScenarioSpec,
)

__all__ = ["DEFAULT_FUZZ_PROTOCOLS", "generate_scenario", "shrink_spec"]

#: Protocol families the fuzzer exercises by default: ours plus the
#: Byzantine and crash baselines (optimistic's unanimity fast path makes
#: random schedules assert too little, so it is opt-in).
DEFAULT_FUZZ_PROTOCOLS: Tuple[str, ...] = ("fbft", "pbft", "fab", "paxos")

_HORIZON = 60.0  # all scheduled chaos happens inside this window


def generate_scenario(
    seed: int,
    protocols: Sequence[str] = DEFAULT_FUZZ_PROTOCOLS,
) -> ScenarioSpec:
    """Deterministically derive a survivable scenario from ``seed``."""
    unknown = set(protocols) - set(ADAPTERS)
    if unknown or not protocols:
        raise ScenarioError(
            f"unknown fuzz protocols {sorted(unknown)}; known: {sorted(ADAPTERS)}"
        )
    rng = random.Random(seed)
    protocol = protocols[rng.randrange(len(protocols))]
    adapter = ADAPTERS[protocol]
    f = rng.choice((1, 1, 2))  # bias small: most bugs do not need f = 2
    if protocol == "fbft":
        t = rng.choice((f, 1))
    elif protocol == "fab":
        t = 1  # keep clusters small (n = 3f + 2t + 1)
    else:
        t = f
    n = adapter.min_n(f, t) + rng.choice((0, 0, 1))

    if rng.random() < 0.5:
        delay = DelaySpec(kind=rng.choice(("synchronous", "round")))
    else:
        delay = DelaySpec(
            kind="partial",
            gst=rng.uniform(10.0, 40.0),
            pre_gst_max=rng.uniform(5.0, 20.0),
            seed=seed,
        )

    pids = list(range(n))
    # FaB's only decide path needs n - t acceptances, so a schedule that
    # permanently downs more than t replicas can never decide — a
    # liveness "failure" the protocol never claimed to survive.  Every
    # other family has a slow path (or majority quorum) live under f
    # faults, so f is the right survivability budget there.
    budget = t if protocol == "fab" else f
    byzantine: List[ByzantineRole] = []
    faults: List[FaultEvent] = []
    used: set = set()

    # Byzantine roles (Byzantine-tolerant families only).
    if adapter.byzantine and budget and rng.random() < 0.5:
        pid = rng.choice(pids)
        behavior = "silent"
        if (
            "equivocate" in adapter.behaviors
            and pid == 0
            and n >= 4
            and rng.random() < 0.6
        ):
            behavior = "equivocate"
        if behavior == "equivocate":
            minority = (rng.choice(pids[1:]),)
            byzantine.append(
                ByzantineRole(
                    pid=0, behavior="equivocate", view=1,
                    values=("x", "y"), minority=minority,
                )
            )
        elif rng.random() < 0.5:
            byzantine.append(
                ByzantineRole(
                    pid=pid, behavior="crash_after",
                    at=round(rng.uniform(0.5, _HORIZON / 2), 2),
                )
            )
        else:
            byzantine.append(ByzantineRole(pid=pid, behavior="silent"))
        used.add(byzantine[-1].pid)
        budget -= 1

    # Scheduled crashes within the remaining budget.
    crash_count = rng.randint(0, budget)
    candidates = [pid for pid in pids if pid not in used]
    for pid in rng.sample(candidates, k=min(crash_count, len(candidates))):
        faults.append(Crash(at=round(rng.uniform(0.0, _HORIZON / 2), 2), pid=pid))
        used.add(pid)

    # A healing partition.
    if rng.random() < 0.4 and n >= 3:
        size = rng.randint(1, n - 1)
        left = tuple(sorted(rng.sample(pids, k=size)))
        right = tuple(pid for pid in pids if pid not in left)
        start = round(rng.uniform(0.0, _HORIZON / 3), 2)
        heal = round(start + rng.uniform(5.0, _HORIZON / 2), 2)
        faults.append(PartitionStart(at=start, groups=(left, right)))
        faults.append(PartitionHeal(at=heal))

    # A transient delay rule on a random edge or message type.
    if rng.random() < 0.4:
        start = round(rng.uniform(0.0, _HORIZON / 3), 2)
        stop = round(start + rng.uniform(5.0, _HORIZON / 2), 2)
        name = f"fuzz-delay-{seed}"
        if rng.random() < 0.5:
            rule = DelayRuleOn(
                at=start, name=name,
                extra_delay=round(rng.uniform(0.5, 5.0), 2),
                dst=(rng.choice(pids),),
            )
        else:
            rule = DelayRuleOn(
                at=start, name=name,
                extra_delay=round(rng.uniform(0.5, 5.0), 2),
                src=(rng.choice(pids),),
            )
        faults.append(rule)
        faults.append(DelayRuleOff(at=stop, name=name))

    faults.sort(key=lambda event: event.at)
    return ScenarioSpec(
        name=f"fuzz-{seed}",
        protocol=protocol,
        n=n, f=f, t=t,
        delay=delay,
        faults=tuple(faults),
        byzantine=tuple(byzantine),
        timeout=3000.0,
        description=f"fuzzer seed {seed}",
    )


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------


def _paired_removals(spec: ScenarioSpec) -> List[Tuple[FaultEvent, ...]]:
    """Candidate fault schedules, each with one logical element removed.

    Removals keep the schedule well-formed: a ``PartitionStart`` goes with
    its following ``PartitionHeal``, a ``DelayRuleOn`` with its matching
    ``DelayRuleOff``, a ``Crash`` with the ``Recover`` of the same pid —
    so shrinking never *introduces* a new failure mode (e.g. an unhealed
    partition) that would masquerade as the original bug.
    """
    events = list(spec.faults)
    candidates: List[Tuple[FaultEvent, ...]] = []
    consumed: set = set()
    for index, event in enumerate(events):
        if index in consumed:
            continue
        drop = {index}
        if isinstance(event, PartitionStart):
            for j in range(index + 1, len(events)):
                if isinstance(events[j], PartitionHeal):
                    drop.add(j)
                    break
        elif isinstance(event, DelayRuleOn):
            for j in range(index + 1, len(events)):
                other = events[j]
                if isinstance(other, DelayRuleOff) and other.name == event.name:
                    drop.add(j)
                    break
        elif isinstance(event, Crash):
            for j in range(index + 1, len(events)):
                other = events[j]
                if isinstance(other, Recover) and other.pid == event.pid:
                    drop.add(j)
                    break
        elif isinstance(event, (PartitionHeal, DelayRuleOff)):
            continue  # only removed together with their opener
        consumed |= drop
        candidates.append(
            tuple(e for k, e in enumerate(events) if k not in drop)
        )
    return candidates


def shrink_spec(
    spec: ScenarioSpec,
    still_fails: Callable[[ScenarioSpec], bool],
    max_attempts: int = 100,
) -> ScenarioSpec:
    """Greedily minimize ``spec`` while ``still_fails`` holds.

    Tries, in order: dropping fault-schedule elements (in matched pairs),
    dropping Byzantine roles, and simplifying the delay model to
    synchronous.  Runs to a fixed point or ``max_attempts`` executions.
    """
    attempts = 0
    current = spec
    progress = True
    while progress and attempts < max_attempts:
        progress = False
        for faults in _paired_removals(current):
            candidate = current.with_(faults=faults)
            attempts += 1
            if still_fails(candidate):
                current = candidate
                progress = True
                break
        if progress:
            continue
        for role in current.byzantine:
            candidate = current.with_(
                byzantine=tuple(r for r in current.byzantine if r is not role)
            )
            attempts += 1
            if still_fails(candidate):
                current = candidate
                progress = True
                break
        if progress:
            continue
        if current.delay.kind != "synchronous":
            candidate = current.with_(
                delay=DelaySpec(kind="synchronous", delta=current.delay.delta)
            )
            attempts += 1
            if still_fails(candidate):
                current = candidate
                progress = True
    return current
