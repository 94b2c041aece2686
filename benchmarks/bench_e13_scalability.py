"""E13 — Scalability of the protocol and the simulation substrate.

Thin wrapper over the ``E13`` registry entry: the f sweep lives in
``repro.experiments``.  Not a paper figure, but due diligence for a
reproduction whose substrate is a simulator: decision latency in
*message delays* must stay at 2 as n grows, while messages grow
quadratically (all-to-all acks).  What a run costs the host is the
end-to-end benchmark's job (``benchmarks/e2e``).
"""

from conftest import emit, sections

from repro.analysis import format_table


def test_e13_latency_is_size_independent(benchmark):
    rows = benchmark(lambda: sections("E13", section="scale")["scale"])
    emit(
        "E13: scalability — delays stay 2, messages grow ~n^2",
        format_table(["n", "f", "delays", "msgs", "msgs/n^2"], rows),
    )
    assert len(rows) >= 6
    for n, f, delays, msgs, ratio in rows:
        assert delays == 2
        # propose (n) + acks (n^2): ratio slightly above 1.
        assert 1.0 <= ratio <= 1.3


def test_e13_simulation_throughput(benchmark):
    """Simulated-event volume on a mid-size deployment."""
    rows = benchmark(lambda: sections("E13", section="events")["events"])
    (row,) = rows
    n, f, events = row
    assert events > 300  # propose + ack deliveries at n = 19
