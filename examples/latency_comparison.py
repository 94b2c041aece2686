#!/usr/bin/env python3
"""The latency/resilience landscape of consensus protocols (Section 1).

Reproduces the paper's motivating comparison as two tables:

1. minimum process counts per (f, t) — ours is always exactly two
   processes cheaper than FaB Paxos, and for t = 1 it matches the
   optimal 3f + 1 of any partially synchronous Byzantine consensus;
2. measured common-case latency — in lock-step message delays and in
   simulated time under randomized link delays.

Every run goes through the scenario engine, so its oracles (agreement,
validity, certificates, liveness) judge each one.
"""

from repro.analysis import Stats, format_table
from repro.scenarios import ADAPTERS, DelaySpec, ScenarioSpec, run_scenario

NAMES = {
    "fbft": "FBFT (this paper)",
    "fab": "FaB Paxos",
    "pbft": "PBFT",
    "paxos": "Paxos (crash)",
}


def run_minimal(key: str, delay: DelaySpec):
    """A minimum f = 1 deployment of ``key``, judged by every oracle."""
    spec = ScenarioSpec(
        name=f"{key}-f1", protocol=key, n=ADAPTERS[key].min_n(1, 1), f=1,
        delay=delay, timeout=1_000.0,
    )
    result = run_scenario(spec)
    assert result.ok, [str(verdict) for verdict in result.failures]
    return result


def resilience_table() -> None:
    rows = []
    for f, t in [(1, 1), (2, 1), (2, 2), (3, 1), (3, 3), (5, 5)]:
        rows.append(
            [f, t] + [ADAPTERS[key].min_n(f, t) for key in NAMES]
        )
    print("Minimum number of processes (fast Byzantine / classic / crash):\n")
    print(
        format_table(
            ["f", "t", "FBFT (ours)", "FaB Paxos", "PBFT", "Paxos"], rows
        )
    )


def latency_table(runs: int = 25) -> None:
    rows = []
    for key, name in NAMES.items():
        delays = run_minimal(key, DelaySpec(kind="round")).steps
        stats = Stats.from_values([
            run_minimal(
                key,
                DelaySpec(kind="random", min_delay=0.5, max_delay=1.5, seed=run),
            ).decision_time
            for run in range(runs)
        ])
        rows.append(
            [name, ADAPTERS[key].min_n(1, 1), delays,
             round(stats.mean, 3), round(stats.p95, 3)]
        )
    print(
        f"\nCommon-case latency at f = 1 ({runs} runs, link delay ~ U[0.5, 1.5]):\n"
    )
    print(format_table(["protocol", "n", "delays", "mean", "p95"], rows))


def main() -> None:
    resilience_table()
    latency_table()
    print(
        "\nReading: our protocol decides as fast as crash Paxos and FaB "
        "Paxos (2 delays)\nwhile PBFT needs 3 — and it does so with two "
        "fewer processes than FaB."
    )


if __name__ == "__main__":
    main()
