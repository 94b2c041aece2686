#!/usr/bin/env python3
"""Scenario tour: declarative fault injection against the paper's protocol.

Three stops:

1. a canonical library scenario (an equivocating leader, the paper's
   central misbehaviour) run through the invariant oracles;
2. a custom spec built inline — a healing partition plus a delay rule —
   showing the vocabulary the engine gives you;
3. a short blind fuzz campaign over random fault schedules.

Run:  PYTHONPATH=src python examples/scenario_tour.py
"""

from repro.fuzz import run_blind
from repro.scenarios import DelaySpec, ScenarioSpec, get_scenario, run_scenario
from repro.scenarios.spec import DelayRuleOn, DelayRuleOff, PartitionHeal, PartitionStart


def main() -> None:
    print("=" * 64)
    print("1. canonical scenario: equivocating-leader")
    print("=" * 64)
    result = run_scenario(get_scenario("equivocating-leader"))
    print(result.summary())

    print()
    print("=" * 64)
    print("2. custom spec: partition that heals + stalled view changes")
    print("=" * 64)
    custom = ScenarioSpec(
        name="custom-demo",
        protocol="fbft",
        n=4, f=1,
        delay=DelaySpec(kind="synchronous"),
        faults=(
            PartitionStart(at=0.0, groups=((0, 1), (2, 3))),
            PartitionHeal(at=40.0),
            DelayRuleOn(at=0.0, name="slow-votes", payload_types=("Vote",),
                        extra_delay=3.0),
            DelayRuleOff(at=80.0, name="slow-votes"),
        ),
        timeout=2000.0,
        description="no quorum until the split heals at t = 40",
    )
    print(run_scenario(custom).summary())

    print()
    print("=" * 64)
    print("3. fuzz: 10 random survivable schedules, all oracles must pass")
    print("=" * 64)
    report = run_blind(10)
    print(report.summary())


if __name__ == "__main__":
    main()
