"""Declarative fault/workload scenarios with invariant oracles.

The paper's claims — two-step decisions in the common case, safety at
``n >= 5f - 1``, recovery via view change after GST — are statements
about *specific adversarial timings and fault mixes*.  This package turns
such executions from hand-wired test scripts into data:

* :mod:`~repro.scenarios.spec` — :class:`ScenarioSpec`, a declarative
  description of a run: cluster shape, delay model + GST, a timed fault
  schedule (crashes, recoveries, partitions, delay rules), static
  Byzantine roles, and an optional client workload;
* :mod:`~repro.scenarios.adapters` — a small adapter per protocol family
  (ours and all four baselines, plus the SMR stack) so one spec runs
  against any of them;
* :mod:`~repro.scenarios.runner` — materializes a spec on the simulator
  and records a structured :class:`ScenarioResult`;
* :mod:`~repro.scenarios.invariants` — post-hoc oracles (agreement,
  validity, certificate well-formedness, fast-path step count,
  liveness after GST) evaluated from the trace;
* :mod:`~repro.scenarios.library` — the named canonical scenarios;
* ``python -m repro.scenarios list|run|digest`` — the CLI.

Randomized schedules, their shrinking and fuzz campaigns live in
:mod:`repro.fuzz`.
"""

from .adapters import ADAPTERS, ScenarioAdapter
from .invariants import InvariantVerdict, evaluate_invariants
from .library import SCENARIOS, get_scenario
from .runner import ScenarioResult, run_scenario, run_scenarios
from .spec import (
    ByzantineRole,
    Crash,
    DelayRuleOff,
    DelayRuleOn,
    DelaySpec,
    PartitionHeal,
    PartitionStart,
    Recover,
    ScenarioError,
    ScenarioSpec,
    WorkloadSpec,
)

__all__ = [
    "ADAPTERS",
    "ByzantineRole",
    "Crash",
    "DelayRuleOff",
    "DelayRuleOn",
    "DelaySpec",
    "InvariantVerdict",
    "PartitionHeal",
    "PartitionStart",
    "Recover",
    "SCENARIOS",
    "ScenarioAdapter",
    "ScenarioError",
    "ScenarioResult",
    "ScenarioSpec",
    "WorkloadSpec",
    "evaluate_invariants",
    "get_scenario",
    "run_scenario",
    "run_scenarios",
]
