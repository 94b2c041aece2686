"""E18 — Leader-performance monitor: tail latency with vs without.

Thin wrapper over the ``E18`` registry entry: every grid point throttles
the initial leader (honest protocol, every message ``severity`` late —
the performance attack that never trips a timeout) and drives the same
closed-loop workload with the monitor on and off.  The headline
assertions:

* at degradation severities above the monitor's threshold, the monitor
  arm's p99 latency is strictly below the unmonitored arm's (the leader
  was rotated out; the tail recovered);
* every rotation is *bounded*: the view floor rises at most twice — the
  monitor rotates past the slow leader, it does not oscillate;
* the unmonitored arm never rotates (demotions = 0, view floor 1): any
  improvement is attributable to the monitor alone.

Also runnable as a CI smoke check without pytest:

    PYTHONPATH=src python benchmarks/bench_e18_monitor.py --quick
"""

import argparse
import sys

from conftest import emit, sections

from repro.analysis import format_table
from repro.experiments.store import write_bench_json

HEADERS = [
    "severity", "window", "monitor", "done", "duration",
    "p50", "p95", "p99", "demotions", "view floor",
]

#: Severities at or below the default demotion threshold (ratio 4 x
#: min-drain 2 = 8): the throttled slot latency stays within tolerance,
#: so the monitor must hold its fire and the arms must tie.
SUB_THRESHOLD = 4.0


def check_rows(rows):
    by_key = {(row[0], row[1], row[2]): row for row in rows}
    for (severity, window, monitor), row in by_key.items():
        if monitor == "off":
            assert row[8] == 0 and row[9] == 1, f"unmonitored run rotated: {row}"
            continue
        # ``demotions`` sums over replicas (4 = each of 4 rotated once);
        # the per-run rotation count is the view-floor rise.
        assert row[9] <= 3, f"monitor oscillated: {row}"
        off = by_key[(severity, window, "off")]
        if severity > SUB_THRESHOLD:
            assert row[8] >= 1, f"monitor never demoted at severity {severity}: {row}"
            assert row[7] < off[7], (
                f"monitor-on p99 {row[7]} not below monitor-off {off[7]} "
                f"at severity {severity}, window {window}"
            )
        else:
            assert row[8] == 0, f"monitor demoted below threshold: {row}"


def test_e18_monitor_grid(benchmark):
    rows = benchmark(lambda: sections("E18")["main"])
    emit(
        "E18: tail latency under a throttling leader, monitor on vs off",
        format_table(HEADERS, rows),
    )
    check_rows(rows)


def test_e18_quick_grid_monitor_beats_off():
    rows = sections("E18", quick=True)["main"]
    assert {row[2] for row in rows} == {"on", "off"}
    check_rows(rows)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="2-row grid")
    parser.add_argument(
        "--output", default="",
        help="write a perf-trajectory record here ('' to skip)",
    )
    args = parser.parse_args(argv)
    rows = sections("E18", quick=args.quick)["main"]
    print("E18: leader-performance monitor vs throttled leader")
    print(format_table(HEADERS, rows))
    check_rows(rows)
    if args.output:
        tails = {
            row[2]: row[7] for row in rows
            if (row[0], row[1]) == (8.0, 30.0)
        }
        write_bench_json(
            args.output, "E18",
            {"p99_on": tails.get("on"), "p99_off": tails.get("off")},
            meta={"quick": args.quick},
            extra={"experiment": {"id": "E18", "rows": rows}},
        )
        print(f"\nwrote {args.output}")
    print("\nmonitored tails beat unmonitored ones above the threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
