#!/usr/bin/env python3
"""Surviving an equivocating leader — the scenario behind Section 3.2.

A Byzantine leader of view 1 tells part of the cluster "x" and the rest
"y", and adds its own acknowledgment for "x" so that two correct
processes decide x on the fast path.  The remaining correct process saw
only "y" — the system must now converge on x, never y.

Watch the view-change machinery do exactly what the paper describes:
votes reach the new leader, the equivocation (two valid votes for the
same view) exposes the old leader as provably Byzantine, the selection
algorithm picks the potentially-decided value, certifiers counter-sign
it, and everyone decides x.
"""

from repro import ProtocolConfig
from repro.byzantine import EquivocatingLeader
from repro.core import FastBFTProcess, Propose, Vote
from repro.crypto import KeyRegistry
from repro.sim import Cluster, SynchronousDelay


def main() -> None:
    config = ProtocolConfig(n=4, f=1)
    registry = KeyRegistry.for_processes(config.process_ids)

    byzantine_leader = EquivocatingLeader(
        pid=0,
        registry=registry,
        config=config,
        view=1,
        assignments={1: "x", 2: "x", 3: "y"},  # the equivocation
        ack_value="x",
        ack_to=(1, 2),  # push x over the n - f = 3 ack line for p1, p2
        ack_time=1.0,
    )
    correct = [
        FastBFTProcess(pid, config, registry, input_value=f"input-{pid}")
        for pid in (1, 2, 3)
    ]
    cluster = Cluster([byzantine_leader] + correct,
                      delay_model=SynchronousDelay(1.0))
    sends = []  # one record per send (the trace itself keeps none)
    cluster.network.add_send_hook(sends.append)
    result = cluster.run_until_decided(correct_pids=[1, 2, 3], timeout=500)

    print("decisions:")
    for pid in (1, 2, 3):
        decision = cluster.trace.decision_of(pid)
        print(f"  p{pid}: {decision.value!r} at time {decision.time}")

    fast = [d for d in cluster.trace.decisions if d.time <= 2.0]
    print(f"\nfast-path decisions (time <= 2): {[(d.pid, d.value) for d in fast]}")

    votes = sum(len(r.dsts) for r in sends if isinstance(r.payload, Vote))
    reproposals = [
        r.payload for r in sends
        if isinstance(r.payload, Propose) and r.payload.view > 1
    ]
    print(f"view-change votes sent: {votes}")
    if reproposals:
        p = reproposals[0]
        print(
            f"view {p.view} proposal: value {p.value!r} with a progress "
            f"certificate of {len(p.cert.signatures)} signatures (= f + 1)"
        )

    value = cluster.trace.check_agreement([1, 2, 3])
    assert value == "x", "the potentially-decided value must win"
    print(f"\nOK: consistency held — everyone converged on {value!r}.")


if __name__ == "__main__":
    main()
