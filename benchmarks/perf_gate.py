"""Perf-regression gate: BENCH ratios vs the committed trajectory.

Wall-clock rates are machine-dependent, so the gate never compares them
across machines.  What it *does* compare are the dimensionless ratios a
``BENCH_*.json`` record carries per workload.  Each gated bench has its
own tracked ratios and committed baseline (see :data:`GATES`); today
there is one:

* ``E21_obsoverhead`` — ``recorder_on_ratio`` (flight-recorder-on /
  recorder-off rate per workload; the broadcast storm is the <= 10%
  overhead headline).

Each current ratio must stay within a tolerance band of the committed
baseline (``benchmarks/baselines/BENCH_<name>.json``): a ratio is a
regression when it falls below ``baseline * (1 - tolerance)``.  Ratios
*above* baseline never fail — improvements move the trajectory and the
baseline should be refreshed (rerun the bench script and copy the
record over the baseline) when they hold.

Usage (what CI runs after the bench script's ``--quick`` pass)::

    PYTHONPATH=src python benchmarks/perf_gate.py --current BENCH_E21_obsoverhead.json

The gate (tracked ratios + default baseline) is selected by the current
record's ``bench`` field.  Exit status: 0 when every tracked ratio is
inside the band, 1 on any regression (or an unreadable record).
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from repro.analysis import format_table
from repro.analysis.profiling import load_bench_json

REPO_ROOT = Path(__file__).resolve().parents[1]
BASELINE_DIR = REPO_ROOT / "benchmarks" / "baselines"

#: Fraction a ratio may fall below its baseline before the gate fails.
#: Sized for single-core CI runners: per-run ratio noise observed on
#: sub-second workloads is ~15-25%, so 35% flags real regressions (a
#: dropped memo, a lost fast delivery) without tripping on scheduler
#: jitter.
DEFAULT_TOLERANCE = 0.35

#: Gated bench records: tracked per-workload ratio fields plus the
#: committed baseline, keyed by the record's ``bench`` name.
GATES = {
    "E21_obsoverhead": {
        "ratios": ("recorder_on_ratio",),
        "baseline": BASELINE_DIR / "BENCH_E21_obsoverhead.json",
    },
}


def compare(current: dict, baseline: dict, tolerance: float, ratios) -> list:
    """All (workload, ratio, current, baseline, floor, ok) comparisons.

    Workloads or ratios missing from the *current* record are skipped;
    ratios missing from the *baseline* have no band to enforce and are
    skipped too.
    """
    rows = []
    for workload, base_entry in sorted(baseline["results"].items()):
        cur_entry = current["results"].get(workload)
        if cur_entry is None:
            continue
        for ratio in ratios:
            if ratio not in base_entry or ratio not in cur_entry:
                continue
            floor = base_entry[ratio] * (1.0 - tolerance)
            rows.append(
                (
                    workload,
                    ratio,
                    cur_entry[ratio],
                    base_entry[ratio],
                    floor,
                    cur_entry[ratio] >= floor,
                )
            )
    return rows


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--current", required=True,
        help="record produced by this run (a bench script's --output)",
    )
    parser.add_argument(
        "--baseline", default="",
        help="committed trajectory record to gate against "
             "(default: the gate's baseline for the current record's bench)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="allowed fractional drop below baseline (default %(default)s)",
    )
    args = parser.parse_args(argv)

    current = load_bench_json(args.current)
    bench = current.get("bench")
    gate = GATES.get(bench)
    if gate is None:
        print(
            f"current record is {bench!r}; no gate defined "
            f"(gated benches: {', '.join(sorted(GATES))})",
            file=sys.stderr,
        )
        return 1
    baseline_path = args.baseline or str(gate["baseline"])
    baseline = load_bench_json(baseline_path)
    if baseline.get("bench") != bench:
        print(
            f"baseline record is {baseline.get('bench')!r}, not {bench!r}",
            file=sys.stderr,
        )
        return 1

    rows = compare(current, baseline, args.tolerance, gate["ratios"])
    if not rows:
        print("no tracked ratios in common: nothing to gate", file=sys.stderr)
        return 1
    print(
        f"perf gate [{bench}]: {args.current} vs {baseline_path} "
        f"(tolerance {args.tolerance:.0%})"
    )
    print(
        format_table(
            ["workload", "ratio", "current", "baseline", "floor", "status"],
            [
                [
                    workload,
                    ratio,
                    f"{cur:.2f}x",
                    f"{base:.2f}x",
                    f"{floor:.2f}x",
                    "ok" if ok else "REGRESSION",
                ]
                for workload, ratio, cur, base, floor, ok in rows
            ],
        )
    )
    failed = [row for row in rows if not row[5]]
    if failed:
        print(
            f"\n{len(failed)} ratio(s) regressed beyond the "
            f"{args.tolerance:.0%} band",
            file=sys.stderr,
        )
        return 1
    print(f"\nall {len(rows)} tracked ratios within the band")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
