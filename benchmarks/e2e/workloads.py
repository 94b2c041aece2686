"""The four seeded workloads of the end-to-end benchmark.

Each workload turns ``--seed`` into plain input values
(:class:`~repro.scenarios.spec.ScenarioSpec`, plus one
:class:`~repro.fuzz.campaign.CampaignConfig` for ``scenario_fuzz``) and
nothing else: the program under test only ever sees those inputs,
through ``run_scenario`` / ``run_campaign``.  Why each workload exists
is recorded in ``BENCHMARK.json`` and the README next to this file.

Sizes are per *pass* (one full execution of the inputs).  ``--quick``
divides them by :data:`QUICK_DIVISOR` for the smoke test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.quorums import (
    min_processes_fab,
    min_processes_fast_bft,
    min_processes_pbft,
)
from repro.fuzz.campaign import CampaignConfig, CampaignReport, run_campaign
from repro.scenarios.library import SCENARIOS
from repro.scenarios.runner import ScenarioResult, run_scenario
from repro.scenarios.spec import (
    ByzantineRole,
    Crash,
    DelaySpec,
    Recover,
    ScenarioSpec,
    WorkloadSpec,
)

QUICK_DIVISOR = 20

#: Simulated-time budget for the long SMR runs (never reached; the
#: runner stops on completion).
_SMR_TIMEOUT = 100_000.0

RunFn = Callable[[ScenarioSpec], ScenarioResult]


@dataclass(frozen=True)
class Item:
    """One ``run_scenario`` input of a pass."""

    spec: ScenarioSpec
    #: Pinned digest (canonical library scenarios only).
    golden: Optional[str] = None
    #: Whether the run must decide in exactly 2 message delays.
    two_step: bool = False


@dataclass(frozen=True)
class Inputs:
    """Everything one pass executes, derived from the seed alone."""

    workload: str
    #: What ``ops_per_s`` counts: ``command`` (SMR), ``instance``
    #: (single-shot consensus) or ``execution`` (scenario runs).
    op: str
    items: Tuple[Item, ...]
    campaign: Optional[CampaignConfig] = None
    sizes: Dict[str, Any] = field(default_factory=dict)

    @property
    def ops_per_pass(self) -> int:
        ops = sum(ops_of(self, item) for item in self.items)
        if self.campaign is not None:
            ops += self.campaign.budget
        return ops


def ops_of(inputs: Inputs, item: Item) -> int:
    if inputs.op == "command":
        return item.spec.workload.total_requests
    return 1


# ----------------------------------------------------------------------
# Input generation
# ----------------------------------------------------------------------


def _scaled(full: int, quick: bool) -> int:
    return max(1, full // QUICK_DIVISOR) if quick else full


def _smr_steady(seed: int, quick: bool) -> Inputs:
    clients, per_client = 8, _scaled(125, quick)
    f = 1
    spec = ScenarioSpec(
        name="e2e-smr-steady",
        protocol="fbft-smr",
        n=min_processes_fast_bft(f, f),
        f=f,
        delay=DelaySpec(kind="synchronous"),
        workload=WorkloadSpec(
            clients=clients,
            requests_per_client=per_client,
            window=8,
            key_space=64,
            hot_fraction=0.1,
            seed=seed,
        ),
        protocol_options={"batch_size": 8, "pipeline_depth": 4},
        timeout=_SMR_TIMEOUT,
    )
    return Inputs(
        workload="smr_steady",
        op="command",
        items=(Item(spec),),
        sizes={"clients": clients, "requests_per_client": per_client,
               "n": spec.n, "f": f},
    )


def _smr_durable_faults(seed: int, quick: bool) -> Inputs:
    clients, per_client = 4, _scaled(250, quick)
    f, t = 2, 1
    spec = ScenarioSpec(
        name="e2e-smr-durable-faults",
        protocol="fbft-smr",
        n=min_processes_fast_bft(f, t),
        f=f,
        t=t,
        delay=DelaySpec(kind="synchronous"),
        # Open loop: every client submits one command per message delay
        # whether or not a leader exists, so requests due during the
        # outage are counted from when they were due.
        workload=WorkloadSpec(
            clients=clients,
            requests_per_client=per_client,
            rate=1.0,
            batch_size=1,
            key_space=64,
            hot_fraction=0.1,
            seed=seed,
        ),
        faults=(
            Crash(10.0, 2, disk="lost"),
            Crash(30.0, 0, disk="retained"),  # pid 0 leads view 1
            Recover(60.0, 2),
            Recover(130.0, 0),
        ),
        protocol_options={
            "batch_size": 8,
            "pipeline_depth": 4,
            "durability": True,
            "checkpoint_interval": 8,
        },
        timeout=_SMR_TIMEOUT,
    )
    return Inputs(
        workload="smr_durable_faults",
        op="command",
        items=(Item(spec),),
        sizes={"clients": clients, "requests_per_client": per_client,
               "n": spec.n, "f": f, "t": t},
    )


_CONSENSUS_FAULT_LEVELS = (1, 2, 4, 6)


def _consensus_bound(seed: int, quick: bool) -> Inputs:
    per_level = _scaled(10, quick)
    rng = Random(f"e2e/consensus_bound/{seed}")
    items: List[Item] = []
    for f in _CONSENSUS_FAULT_LEVELS:
        n_vanilla = min_processes_fast_bft(f, f)
        n_general = min_processes_fast_bft(f, 1)
        for index in range(per_level):
            random_delay = DelaySpec(kind="random", seed=rng.randrange(1 << 30))
            tag = f"f{f}-{index}"
            items.append(Item(
                ScenarioSpec(
                    name=f"e2e-fast-{tag}", protocol="fbft",
                    n=n_vanilla, f=f,
                    delay=DelaySpec(kind="round"),
                    expect_fast_path=True,
                ),
                two_step=True,
            ))
            items.append(Item(
                ScenarioSpec(
                    name=f"e2e-viewchange-{tag}", protocol="fbft",
                    n=n_vanilla, f=f,
                    delay=random_delay,
                    byzantine=(ByzantineRole(pid=0, behavior="silent"),),
                ),
            ))
            # More than t silent processes push the generalized protocol
            # onto its 3-delay slow path; at f = 1 (= t) there is no such
            # fault level, so the run is clean.
            silent = tuple(
                ByzantineRole(pid=n_general - 1 - k, behavior="silent")
                for k in range(f)
            ) if f > 1 else ()
            items.append(Item(
                ScenarioSpec(
                    name=f"e2e-slow-{tag}", protocol="fbft",
                    n=n_general, f=f, t=1,
                    delay=random_delay, byzantine=silent,
                ),
            ))
            items.append(Item(
                ScenarioSpec(
                    name=f"e2e-pbft-{tag}", protocol="pbft",
                    n=min_processes_pbft(f), f=f, delay=random_delay,
                ),
            ))
            items.append(Item(
                ScenarioSpec(
                    name=f"e2e-fab-{tag}", protocol="fab",
                    n=min_processes_fab(f, f), f=f, delay=random_delay,
                ),
            ))
    return Inputs(
        workload="consensus_bound",
        op="instance",
        items=tuple(items),
        sizes={"fault_levels": list(_CONSENSUS_FAULT_LEVELS),
               "seeds_per_level": per_level, "families": 5,
               "max_n": max(item.spec.n for item in items)},
    )


def _scenario_fuzz(seed: int, quick: bool, golden_path: Path) -> Inputs:
    golden = json.loads(golden_path.read_text(encoding="utf-8"))
    if sorted(golden) != sorted(SCENARIOS):
        raise SystemExit(
            f"{golden_path} does not pin exactly the canonical library"
        )
    budget = _scaled(512, quick)
    items = tuple(
        Item(spec, golden=golden[name])
        for name, spec in SCENARIOS.items()
    )
    return Inputs(
        workload="scenario_fuzz",
        op="execution",
        items=items,
        campaign=CampaignConfig(
            budget=budget, round_size=8, shards=1, start_seed=seed
        ),
        sizes={"canonical": len(items), "campaign_budget": budget},
    )


def make_inputs(workload: str, seed: int, quick: bool, repo_root: Path) -> Inputs:
    if workload == "smr_steady":
        return _smr_steady(seed, quick)
    if workload == "smr_durable_faults":
        return _smr_durable_faults(seed, quick)
    if workload == "consensus_bound":
        return _consensus_bound(seed, quick)
    if workload == "scenario_fuzz":
        return _scenario_fuzz(
            seed, quick,
            repo_root / "tests" / "golden" / "scenario_digests.json",
        )
    raise SystemExit(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------
# Executing and judging one pass
# ----------------------------------------------------------------------


@dataclass
class PassOutcome:
    """The verdict on one pass, and the fingerprint of its execution."""

    attempted: int
    failed: int
    problems: List[str]
    #: Per-item trace digests + the campaign report digest: equal
    #: fingerprints mean the program executed identically.
    fingerprint: Tuple[str, ...]


def execute_pass(
    inputs: Inputs,
    run: RunFn = run_scenario,
    campaign: Callable[[CampaignConfig], CampaignReport] = run_campaign,
) -> Tuple[List[ScenarioResult], Optional[CampaignReport]]:
    """Hand the inputs to the program's public entry points.

    This is the timed region.  The set-up probe uses the defaults; the
    other passes substitute wrappers that observe each call (and each
    campaign execution, through ``run_campaign(run=...)``): a stopwatch
    in the timed passes, the adapter tap in the warm-up, spans under
    the profile.
    """
    results = [run(item.spec) for item in inputs.items]
    report = campaign(inputs.campaign) if inputs.campaign is not None else None
    return results, report


def judge_pass(
    inputs: Inputs,
    results: List[ScenarioResult],
    report: Optional[CampaignReport],
) -> PassOutcome:
    """Count attempted/failed ops and collect the reasons."""
    attempted = failed = 0
    problems: List[str] = []
    for item, result in zip(inputs.items, results):
        ops = ops_of(inputs, item)
        attempted += ops
        bad = _item_problem(inputs, item, result)
        if bad is None:
            continue
        problems.append(f"{item.spec.name}: {bad}")
        if inputs.op == "command" and result.ok:
            # Oracles held: only the commands that never completed failed.
            failed += max(1, result.total_requests - result.completed_requests)
        else:
            failed += ops
    fingerprint = [result.trace_digest for result in results]
    if inputs.campaign is not None and report is not None:
        budget = inputs.campaign.budget
        attempted += budget
        missing = budget - report.executed
        if missing or report.failures:
            failed += missing + len(report.failures)
            problems.append(
                f"campaign: executed {report.executed}/{budget}, "
                f"{len(report.failures)} oracle failures"
            )
        fingerprint.append(report.digest)
    return PassOutcome(
        attempted=attempted,
        failed=failed,
        problems=problems,
        fingerprint=tuple(fingerprint),
    )


def _item_problem(
    inputs: Inputs, item: Item, result: ScenarioResult
) -> Optional[str]:
    if not result.ok:
        return "oracle failed: " + "; ".join(str(v) for v in result.failures)
    if not result.decided:
        return "did not finish within the simulated timeout"
    if result.completed_requests != result.total_requests:
        return (
            f"completed {result.completed_requests}/"
            f"{result.total_requests} requests"
        )
    if item.two_step and result.steps != 2:
        return f"fast path took {result.steps} message delays, not 2"
    if item.golden is not None and result.trace_digest != item.golden:
        return "trace digest differs from tests/golden/scenario_digests.json"
    return None
