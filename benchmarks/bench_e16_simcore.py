"""E16 — simulation-core microbenchmarks (rates only).

Thin wrapper over the ``E16`` registry entry.  Every experiment in this
repository runs on the discrete-event core in ``repro.sim``, so its
per-event constant factor bounds every other benchmark.  E16 records that
factor on three workloads (drivers in ``repro.analysis.profiling``):

* ``event_churn``   — a self-rescheduling callback chain: pure event-loop
  overhead (heap push/pop + dispatch), no network;
* ``timer_churn``   — arm-then-cancel storms, the per-slot SMR pacemaker
  pattern: exercises handle cost and cancelled-entry compaction;
* ``broadcast_storm`` — n processes broadcasting every round: the network
  hot path (send -> schedule -> deliver).

The rates are hardware-dependent and asserted only to be positive.
Whether a change made the core faster is answered by running the
end-to-end benchmark (``BENCHMARK.json``, ``benchmarks/e2e``) on the
parent commit and on the change.

Also runnable without pytest (``--quick`` for the small workloads).
"""

import sys

from conftest import emit, sections

from repro.analysis import format_table
from repro.analysis.profiling import broadcast_storm

HEADERS = ["workload", "events/sec"]
WORKLOADS = ["event_churn", "timer_churn", "broadcast_storm"]


def check_rows(rows) -> None:
    assert [row[0] for row in rows] == WORKLOADS
    assert all(row[1] > 0 for row in rows)


def test_e16_rates():
    rows = sections("E16", quick=True)["main"]
    emit("E16: simulation core events/sec (quick workloads)",
         format_table(HEADERS, rows))
    check_rows(rows)


def test_e16_broadcast_storm_timing(benchmark):
    eps = benchmark(lambda: broadcast_storm(8, 150))
    assert eps > 0


def main(argv) -> int:
    rows = sections("E16", quick="--quick" in argv)["main"]
    print("E16: simulation core events/sec")
    print(format_table(HEADERS, rows))
    check_rows(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
