#!/usr/bin/env python3
"""Crash a durable replica mid-workload, recover it, verify the digests.

The durability subsystem (``repro.storage``) gives every SMR replica a
write-ahead log and periodic quorum-certified checkpoints.  This example
walks the whole recovery story, twice:

1. a 4-replica cluster serves a KV workload; replica 3 crashes partway
   through, and the other three keep committing (growing a lag);
2. in the first run replica 3 recovers **with its disk intact**: it
   restores the stable checkpoint, replays its WAL suffix, and fetches
   the lag tail from peers via the catchup protocol;
3. in the second it **loses its disk** with the crash: recovery starts
   from nothing and transfers everything — certified checkpoint plus
   decided suffix — from its peers;
4. after each rejoin, its application-state digest must equal a
   never-crashed replica's (the ``catchup-consistency`` oracle's check).

Each run is a :class:`~repro.scenarios.ScenarioSpec` judged by every
oracle; experiment E17 (``python -m repro.experiments run E17``) sweeps
the same run over lag depth and checkpoint interval.  The canonical
scenarios ``durable-recovery``, ``lagging-replica-catchup`` and
``byzantine-catchup-responder`` tell the story's variants.
"""

from repro.analysis import format_table
from repro.scenarios import (
    Crash,
    Recover,
    ScenarioSpec,
    WorkloadSpec,
    get_scenario,
    run_scenario,
)

#: Replica 3 comes back once the others have committed the lag without it.
RECOVER_AT = 44.0


def crash_and_recover(disk: str) -> ScenarioSpec:
    """A paced client submits 4 commands every 8 time units, 16 in all;
    replica 3 crashes after the first batch (``disk`` retained or lost)
    and recovers after the last one has committed."""
    return ScenarioSpec(
        name=f"crash-catchup-{disk}",
        protocol="fbft-smr",
        n=4, f=1, t=1,
        workload=WorkloadSpec(
            requests_per_client=16, rate=8.0, batch_size=4,
            key_space=1_000_000,
        ),
        faults=(Crash(at=7.0, pid=3, disk=disk), Recover(at=RECOVER_AT, pid=3)),
        protocol_options={
            "durability": True, "checkpoint_interval": 4,
            "batch_size": 2, "pipeline_depth": 2,
        },
    )


def measured_walkthrough() -> None:
    print("Crash / recover one replica, measured (disk retained vs lost):\n")
    rows = []
    for disk in ("retained", "lost"):
        result = run_scenario(crash_and_recover(disk))
        assert result.ok, [str(v) for v in result.failures]
        # The run ends once replica 3 has caught up with its peers.
        victim = result.replica_state[3]
        catchup = ("CatchupRequest", "CatchupReply")
        consistent = next(
            v for v in result.verdicts if v.name == "catchup-consistency"
        )
        rows.append(
            [
                disk, result.decision_time - RECOVER_AT,
                sum(result.messages_by_type.get(name, 0) for name in catchup),
                sum(result.bytes_by_type.get(name, 0) for name in catchup),
                victim["stable_slot"], victim["wal_records"],
                "EQUAL" if consistent.passed else "DIVERGED",
            ]
        )
    print(
        format_table(
            ["disk", "catchup time", "msgs", "bytes", "stable slot",
             "wal records", "state digest"],
            rows,
        )
    )
    assert all(row[-1] == "EQUAL" for row in rows)


def scenario_walkthrough() -> None:
    print("\nIts variants in the canonical scenario library:\n")
    for name in (
        "durable-recovery",
        "lagging-replica-catchup",
        "byzantine-catchup-responder",
    ):
        result = run_scenario(get_scenario(name))
        catchup = next(
            v for v in result.verdicts if v.name == "catchup-consistency"
        )
        print(f"  {name:<30} {'OK' if result.ok else 'FAIL'}  [{catchup}]")
        assert result.ok


def main() -> None:
    measured_walkthrough()
    scenario_walkthrough()
    print(
        "\nEvery recovered replica rebuilt the exact state of its peers — "
        "from its own disk when it had one, from the cluster when it did "
        "not, and despite a lying responder when one tried."
    )


if __name__ == "__main__":
    main()
