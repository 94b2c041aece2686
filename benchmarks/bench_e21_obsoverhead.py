"""E21 — observability overhead: the broadcast storm, recorder on vs off.

The flight recorder (``repro.obs.recorder``) is a network tracer, and
tracers are only free if the network can prove they are: ``Network``
asks an installed tracer ``wants(payload_type)`` once per payload type,
memoizes the verdict, and keeps the fast delivery post for unwanted
payloads.  E21 times the network hot path (n processes broadcasting
*unwanted* tuple payloads every round) bare and with a recorder
attached — both variants share the one send path, so on/off is a
recorder-cost ratio — and asserts the one wall-clock claim made about
the recorder:

* the broadcast storm sustains **>= 0.90x** of its recorder-off rate
  with a recorder attached (overhead <= 10%).

What recording *wanted* traffic costs (every protocol message
classified, bucketed for causality, the replica hooks firing) is not a
rate: it is the exact number of extra Python calls per run, pinned in
``tests/golden/e2e_counters.json`` by ``benchmarks/perf_counters.py``.

The grid lives in the E21 registry entry; this script runs it, combines
the two cells and writes them to ``BENCH_E21_obsoverhead.json``.

Also runnable as a CI smoke check without pytest:

    PYTHONPATH=src python benchmarks/bench_e21_obsoverhead.py --quick
"""

import argparse
import sys

from conftest import emit, sections

from repro.analysis import format_table
from repro.experiments.store import write_bench_json

#: The acceptance bar: recorder-on rate / recorder-off rate on the
#: broadcast storm (<= 10% overhead).
STORM_RECORDER_FLOOR = 0.90


def run_grid(quick: bool = False, passes: int = 2) -> dict:
    """Run the E21 grid; returns
    ``{workload: {"unit": ..., "off": rate, "recorder": rate}}``.

    The grid is run ``passes`` times and each cell takes its best rate:
    the on/off ratio is the asserted number, so per-cell noise must not
    masquerade as recorder overhead.
    """
    rates: dict = {}
    for _ in range(max(1, passes)):
        for workload, variant, _backend, unit, rate in sections(
            "E21", quick=quick
        )["main"]:
            entry = rates.setdefault(workload, {"unit": unit})
            entry[variant] = max(entry.get(variant, 0.0), rate)
    return rates


def combine(rates: dict) -> dict:
    """Fold the grid cells into the BENCH_E21 results dict."""
    return {
        workload: {
            "unit": cells["unit"],
            "recorder_off": cells["off"],
            "recorder_on": cells["recorder"],
            "recorder_on_ratio": cells["recorder"] / cells["off"],
        }
        for workload, cells in rates.items()
    }


def check_headline(results: dict) -> None:
    ratio = results["broadcast_storm"]["recorder_on_ratio"]
    assert ratio >= STORM_RECORDER_FLOOR, (
        f"flight recorder costs the broadcast storm "
        f"{(1.0 - ratio):.0%} (ratio {ratio:.3f}, floor "
        f"{STORM_RECORDER_FLOOR}): the selective-tracer fast path "
        f"regressed"
    )


HEADERS = ["workload", "unit", "recorder off", "recorder on", "on/off"]


def rows_of(results: dict) -> list:
    return [
        [
            workload,
            entry["unit"],
            round(entry["recorder_off"], 2),
            round(entry["recorder_on"], 2),
            f"{entry['recorder_on_ratio']:.3f}",
        ]
        for workload, entry in results.items()
    ]


# ---------------------------------------------------------------------------
# Pytest entry point
# ---------------------------------------------------------------------------


def test_e21_recorder_overhead():
    """The headline: <= 10% storm overhead with a recorder on."""
    results = combine(run_grid(quick=True))
    emit(
        "E21: flight-recorder overhead, recorder-on vs off (quick)",
        format_table(HEADERS, rows_of(results)),
    )
    check_headline(results)


# ---------------------------------------------------------------------------
# Script mode
# ---------------------------------------------------------------------------


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small workloads")
    parser.add_argument(
        "--output", default="BENCH_E21_obsoverhead.json",
        help="where to write the record ('' to skip)",
    )
    args = parser.parse_args(argv)

    results = combine(run_grid(quick=args.quick))
    print("E21: flight-recorder overhead, recorder-on vs recorder-off")
    print(format_table(HEADERS, rows_of(results)))
    if args.output:
        write_bench_json(
            args.output,
            "E21_obsoverhead",
            results,
            meta={"quick": args.quick},
        )
        print(f"\nwrote {args.output}")
    check_headline(results)
    storm = results["broadcast_storm"]["recorder_on_ratio"]
    print(
        f"recorder-on broadcast storm sustains {storm:.3f}x the "
        f"recorder-off rate (floor {STORM_RECORDER_FLOOR})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
