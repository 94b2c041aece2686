"""Corpus-driven mutation operators over :class:`ScenarioSpec`.

Every operator is a pure function ``(spec, rng) -> spec-or-None`` (plus
the corpus for splicing) driven by an injected :class:`random.Random`,
so a campaign seed fully determines the mutation stream.  Operators
preserve *survivability* by construction and by post-check: partitions
always heal, delay rules always lift (or hold only until a bounded
time), crashes stay within the ``f`` budget (``ScenarioSpec.validate``
is the final arbiter) — so, exactly as for :func:`generate_scenario`,
any failing mutant is a bug worth keeping, not a schedule that cheated.

The star operator is the plenum-style *stasher* (SNIPPETS.md snippet 2):
a ``DelayRuleOn`` scoped to a single payload type — stash every ``Vote``
or every ``SlotMessage`` for a while, or add per-type jitter — which
reorders exactly one protocol phase against the others, the surgical
nudge that flushes out ordering assumptions a whole-link delay never
exercises.

Mutants drop the base spec's ``expect_fast_path``/``liveness_deadline``
claims: added chaos legitimately breaks latency promises, and keeping
them would turn schedule noise into false "bugs".  ``expect_decision``
stays — a survivable schedule must still terminate.
"""

from __future__ import annotations

from random import Random
from typing import Callable, List, Optional, Tuple

from ..scenarios.spec import (
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
from .corpus import Corpus
from .generator import _HORIZON

__all__ = ["MUTATORS", "PAYLOAD_TYPES", "mutate"]

#: Per-payload-type stasher targets, per protocol family: the concrete
#: payload class names each family puts on the wire (what
#: ``messages_by_type`` records).  SMR families share the replication
#: envelope types.
PAYLOAD_TYPES = {
    "fbft": ("Propose", "Ack", "Vote", "CertRequest", "CertAck"),
    "pbft": ("PrePrepare", "Prepare", "PBFTCommit", "PBFTViewChange"),
    "fab": ("FabPropose", "FabAccept", "FabReport"),
    "paxos": ("PaxosPrepare", "PaxosPromise", "PaxosAccept", "PaxosAccepted"),
    "optimistic": ("OptPropose", "OptAck", "OptPrepare", "OptCommit"),
    "fbft-smr": ("Request", "SlotMessage", "SlotDecided", "CheckpointVote"),
    "pbft-smr": ("Request", "SlotMessage", "SlotDecided", "CheckpointVote"),
}


# ----------------------------------------------------------------------
# Schedule elements: matched (opener, closer) groups
# ----------------------------------------------------------------------


def _elements(spec: ScenarioSpec) -> List[Tuple[FaultEvent, ...]]:
    """The schedule as logical elements: each opener grouped with its
    matching closer (crash+recover, partition+heal, rule on+off)."""
    events = list(spec.faults)
    elements: List[Tuple[FaultEvent, ...]] = []
    consumed: set = set()
    for index, event in enumerate(events):
        if index in consumed:
            continue
        group = [event]
        consumed.add(index)
        closer: Optional[Callable[[FaultEvent], bool]] = None
        if isinstance(event, PartitionStart):
            closer = lambda other: isinstance(other, PartitionHeal)
        elif isinstance(event, DelayRuleOn):
            closer = lambda other, name=event.name: (
                isinstance(other, DelayRuleOff) and other.name == name
            )
        elif isinstance(event, Crash):
            closer = lambda other, pid=event.pid: (
                isinstance(other, Recover) and other.pid == pid
            )
        if closer is not None:
            for j in range(index + 1, len(events)):
                if j not in consumed and closer(events[j]):
                    group.append(events[j])
                    consumed.add(j)
                    break
        elements.append(tuple(group))
    return elements


def _assemble(spec: ScenarioSpec, elements: List[Tuple[FaultEvent, ...]]) -> ScenarioSpec:
    flat = [event for group in elements for event in group]
    flat.sort(key=lambda event: event.at)
    return spec.with_(faults=tuple(flat))


def _shift(event: FaultEvent, delta: float) -> FaultEvent:
    from dataclasses import replace

    at = round(min(_HORIZON, max(0.0, event.at + delta)), 2)
    return replace(event, at=at)


def _crashable_pids(spec: ScenarioSpec) -> List[int]:
    """Replica pids a new crash may target without double-crashing."""
    taken = set(spec.byzantine_pids)
    for event in spec.faults:
        if isinstance(event, (Crash, Recover)):
            taken.add(event.pid)
    return [pid for pid in range(spec.n) if pid not in taken]


# ----------------------------------------------------------------------
# Operators
# ----------------------------------------------------------------------


def op_perturb_times(
    spec: ScenarioSpec, rng: Random, corpus: Optional[Corpus]
) -> Optional[ScenarioSpec]:
    """Shift whole elements in time (closers keep their opener gap)."""
    elements = _elements(spec)
    if not elements:
        return None
    shifted = []
    for group in elements:
        delta = round(rng.uniform(-8.0, 8.0), 2)
        low = min(event.at for event in group)
        delta = max(delta, -low)  # never before time 0
        shifted.append(tuple(_shift(event, delta) for event in group))
    return _assemble(spec, shifted)


def op_drop_element(
    spec: ScenarioSpec, rng: Random, corpus: Optional[Corpus]
) -> Optional[ScenarioSpec]:
    """Remove one logical element (never splitting a matched pair)."""
    elements = _elements(spec)
    if not elements:
        return None
    victim = rng.randrange(len(elements))
    return _assemble(
        spec, [group for i, group in enumerate(elements) if i != victim]
    )


def op_add_crash(
    spec: ScenarioSpec, rng: Random, corpus: Optional[Corpus]
) -> Optional[ScenarioSpec]:
    """Crash a fresh replica within the fault budget; maybe recover it.

    The budget is the protocol's *liveness* tolerance: ``f`` for
    families with a slow path, but ``t`` for FaB, whose only decide
    path needs ``n - t`` acceptances (more permanent downs than that
    and no schedule can ever decide — not a bug worth reporting).
    """
    budget = spec.t if spec.protocol == "fab" else spec.f
    if len(spec.faulty_pids) >= budget:
        return None
    candidates = _crashable_pids(spec)
    if not candidates:
        return None
    pid = rng.choice(candidates)
    at = round(rng.uniform(0.0, _HORIZON / 2), 2)
    disk = "lost" if rng.random() < 0.25 else "retained"
    extra: List[FaultEvent] = [Crash(at=at, pid=pid, disk=disk)]
    if rng.random() < 0.5:
        extra.append(Recover(at=round(at + rng.uniform(3.0, 20.0), 2), pid=pid))
    return _assemble(spec, _elements(spec) + [tuple(extra)])


def op_add_partition(
    spec: ScenarioSpec, rng: Random, corpus: Optional[Corpus]
) -> Optional[ScenarioSpec]:
    """Install a healing partition (two- or three-way)."""
    if spec.n < 3:
        return None
    pids = list(range(spec.n))
    ways = 3 if spec.n >= 5 and rng.random() < 0.3 else 2
    shuffled = rng.sample(pids, k=len(pids))
    cuts = sorted(rng.sample(range(1, len(pids)), k=ways - 1))
    groups = []
    previous = 0
    for cut in cuts + [len(pids)]:
        groups.append(tuple(sorted(shuffled[previous:cut])))
        previous = cut
    start = round(rng.uniform(0.0, _HORIZON / 3), 2)
    heal = round(start + rng.uniform(5.0, _HORIZON / 2), 2)
    element = (
        PartitionStart(at=start, groups=tuple(groups)),
        PartitionHeal(at=heal),
    )
    return _assemble(spec, _elements(spec) + [element])


def op_add_stasher(
    spec: ScenarioSpec, rng: Random, corpus: Optional[Corpus]
) -> Optional[ScenarioSpec]:
    """Plenum-style delay-rule stasher on one payload type.

    Either *stash* (hold every matching message until a release time) or
    *jitter* (add per-message extra delay), optionally scoped to one
    source or destination — reordering a single protocol phase.
    """
    types = PAYLOAD_TYPES.get(spec.protocol)
    if not types:
        return None
    payload = rng.choice(types)
    start = round(rng.uniform(0.0, _HORIZON / 2), 2)
    name = f"stash-{payload}-{start}"
    kwargs = {}
    if rng.random() < 0.5:
        kwargs["hold_until"] = round(start + rng.uniform(5.0, 25.0), 2)
    else:
        kwargs["extra_delay"] = round(rng.uniform(0.5, 8.0), 2)
    scope = rng.random()
    if scope < 0.3:
        kwargs["src"] = (rng.randrange(spec.n),)
    elif scope < 0.6:
        kwargs["dst"] = (rng.randrange(spec.n),)
    stop = round(
        max(start, kwargs.get("hold_until", start)) + rng.uniform(1.0, 10.0), 2
    )
    element = (
        DelayRuleOn(at=start, name=name, payload_types=(payload,), **kwargs),
        DelayRuleOff(at=stop, name=name),
    )
    return _assemble(spec, _elements(spec) + [element])


def op_tweak_delay(
    spec: ScenarioSpec, rng: Random, corpus: Optional[Corpus]
) -> Optional[ScenarioSpec]:
    """Swap or reparameterize the delay model."""
    roll = rng.random()
    if roll < 0.4:
        delay = DelaySpec(kind=rng.choice(("synchronous", "round")))
    elif roll < 0.8:
        delay = DelaySpec(
            kind="partial",
            gst=round(rng.uniform(5.0, 45.0), 2),
            pre_gst_max=round(rng.uniform(2.0, 20.0), 2),
            seed=rng.randrange(1 << 16),
        )
    else:
        delay = DelaySpec(
            kind="random",
            min_delay=0.5,
            max_delay=round(rng.uniform(1.0, 3.0), 2),
            seed=rng.randrange(1 << 16),
        )
    if delay == spec.delay:
        return None
    return spec.with_(delay=delay)


def op_toggle_disk(
    spec: ScenarioSpec, rng: Random, corpus: Optional[Corpus]
) -> Optional[ScenarioSpec]:
    """Flip one crash between disk-retained and disk-lost recovery."""
    crashes = [
        (i, event)
        for i, event in enumerate(spec.faults)
        if isinstance(event, Crash)
    ]
    if not crashes:
        return None
    index, crash = crashes[rng.randrange(len(crashes))]
    flipped = Crash(
        at=crash.at,
        pid=crash.pid,
        disk="lost" if crash.disk == "retained" else "retained",
    )
    faults = list(spec.faults)
    faults[index] = flipped
    return spec.with_(faults=tuple(faults))


def op_drop_byzantine(
    spec: ScenarioSpec, rng: Random, corpus: Optional[Corpus]
) -> Optional[ScenarioSpec]:
    """Remove one Byzantine role (frees fault budget for new chaos)."""
    if not spec.byzantine:
        return None
    victim = rng.randrange(len(spec.byzantine))
    return spec.with_(
        byzantine=tuple(
            role for i, role in enumerate(spec.byzantine) if i != victim
        )
    )


def op_tweak_workload(
    spec: ScenarioSpec, rng: Random, corpus: Optional[Corpus]
) -> Optional[ScenarioSpec]:
    """Reshape an SMR workload: contention, pacing, windowing."""
    if spec.workload is None:
        return None
    workload = spec.workload
    changes = {
        "hot_fraction": round(rng.choice((0.0, 0.3, 0.8)), 2),
        "window": rng.choice((1, 2, 4)),
        "batch_size": rng.choice((1, 2, 4)),
        "seed": rng.randrange(1 << 16),
    }
    from dataclasses import replace

    mutated = replace(workload, **changes)
    if mutated == workload:
        return None
    return spec.with_(workload=mutated)


def op_splice(
    spec: ScenarioSpec, rng: Random, corpus: Optional[Corpus]
) -> Optional[ScenarioSpec]:
    """Graft schedule elements from a same-shape corpus donor."""
    if corpus is None or not corpus.entries:
        return None
    shape = (spec.protocol, spec.n, spec.f, spec.t)
    donors = [
        entry
        for entry in corpus.entries
        if (
            entry.spec.get("protocol"),
            entry.spec.get("n"),
            entry.spec.get("f"),
            entry.spec.get("t"),
        ) == shape
    ]
    if not donors:
        return None
    donor = donors[rng.randrange(len(donors))].scenario()
    donated = _elements(donor)
    if not donated:
        return None
    take = rng.sample(donated, k=rng.randint(1, len(donated)))
    return _assemble(spec, _elements(spec) + take)


#: Name -> operator, in a stable order (the rng picks among them).
MUTATORS: Tuple[Tuple[str, Callable], ...] = (
    ("perturb-times", op_perturb_times),
    ("drop-element", op_drop_element),
    ("add-crash", op_add_crash),
    ("add-partition", op_add_partition),
    ("add-stasher", op_add_stasher),
    ("tweak-delay", op_tweak_delay),
    ("toggle-disk", op_toggle_disk),
    ("drop-byzantine", op_drop_byzantine),
    ("tweak-workload", op_tweak_workload),
    ("splice", op_splice),
)

#: Selection weights, aligned with MUTATORS.  Operators that *add* chaos
#: (stashers, partitions, crashes, splices) move a run's behavioral
#: signature far more often than parameter tweaks, so they get most of
#: the draw; the tweaks stay in the pool for fine exploration around a
#: behavior the heavy operators discovered.
MUTATOR_WEIGHTS: Tuple[int, ...] = (1, 2, 3, 3, 4, 2, 1, 1, 1, 3)


def _sanitize(spec: ScenarioSpec, name: str) -> ScenarioSpec:
    """Mutants carry no latency claims: added chaos legitimately breaks
    fast-path and deadline promises, and a false 'bug' poisons the
    corpus.  Decision/agreement/validity expectations all stay."""
    return spec.with_(
        name=name,
        expect_fast_path=False,
        liveness_deadline=None,
        timeout=max(spec.timeout, 3000.0),
        description=f"mutant of {spec.name}",
    )


def mutate(
    spec: ScenarioSpec,
    rng: Random,
    corpus: Optional[Corpus],
    name: str,
    attempts: int = 8,
) -> Optional[Tuple[ScenarioSpec, str]]:
    """Apply a weighted stack of operators; retry until a valid mutant.

    Usually one operator fires; sometimes two or three stack, AFL
    "havoc"-style, so mutants can jump further than any single operator
    reaches from the base behavior.  Returns ``(mutant, op_names)``
    (names ``"+"``-joined in application order) or ``None`` when no
    attempt produced a structurally valid, budget-respecting spec.
    """
    for _ in range(attempts):
        stack = 1
        if rng.random() < 0.4:
            stack += 1
        if rng.random() < 0.2:
            stack += 1
        candidate = spec
        applied: List[str] = []
        for _slot in range(stack):
            (pick,) = rng.choices(range(len(MUTATORS)), weights=MUTATOR_WEIGHTS)
            op_name, operator = MUTATORS[pick]
            mutated = operator(candidate, rng, corpus)
            if mutated is None:
                continue
            candidate = mutated
            applied.append(op_name)
        if not applied:
            continue
        candidate = _sanitize(candidate, name)
        try:
            candidate.validate()
        except ScenarioError:
            continue
        if candidate.faults == spec.faults and candidate.delay == spec.delay \
                and candidate.byzantine == spec.byzantine \
                and candidate.workload == spec.workload:
            continue  # no-op mutation: nothing new to run
        return candidate, "+".join(applied)
    return None
