"""E19 — Coverage-guided fuzzing: guided vs blind signature discovery.

Thin wrapper over the ``E19`` registry entry: at each seed budget both
campaign arms run over the identical generator seed stream — guided
mutates energy-weighted corpus picks once warm, blind draws fresh seeds
forever — and the rows record how many unique coverage signatures each
arm discovered.  The headline assertions:

* at every budget at or above ``MIN_GUIDED_BUDGET``, the guided arm
  discovers **strictly more** unique signatures than the blind arm (the
  acceptance claim of the coverage-guided engine);
* both arms execute their full budget and the guided trajectory is
  monotone (signatures only accumulate);
* neither arm reports oracle violations on the canonical seed window —
  a failure here is a protocol bug, not a bench regression.

Also runnable as a CI smoke check without pytest:

    PYTHONPATH=src python benchmarks/bench_e19_fuzz.py --quick
"""

import argparse
import sys

from conftest import emit, sections

from repro.analysis import MIN_GUIDED_BUDGET, format_table
from repro.experiments.store import write_bench_json

COMPARE_HEADERS = [
    "mode", "budget", "start", "executed", "unique sigs",
    "corpus", "features", "failures",
]
TRAJECTORY_HEADERS = [
    "mode", "budget", "round", "executed", "unique sigs", "corpus", "mutants",
]


def check_rows(compare_rows, trajectory_rows):
    by_arm = {(row[0], row[1]): row for row in compare_rows}
    budgets = {row[1] for row in compare_rows}
    for budget in budgets:
        guided = by_arm[("guided", budget)]
        blind = by_arm[("blind", budget)]
        assert guided[3] == blind[3] == budget, (
            f"arms did not execute the full budget: {guided} vs {blind}"
        )
        assert guided[7] == 0 and blind[7] == 0, (
            f"oracle violations on the canonical window: {guided} / {blind}"
        )
        if budget >= MIN_GUIDED_BUDGET:
            assert guided[4] > blind[4], (
                f"guided found {guided[4]} unique signatures vs blind "
                f"{blind[4]} at budget {budget} — guidance is not paying"
            )
    last = {}
    for row in trajectory_rows:
        key = (row[0], row[1])
        assert row[4] >= last.get(key, 0), f"discovery curve regressed: {row}"
        last[key] = row[4]


def test_e19_fuzz_grid(benchmark):
    data = benchmark(lambda: sections("E19"))
    emit(
        "E19: guided vs blind unique-signature discovery",
        format_table(COMPARE_HEADERS, data["compare"]),
    )
    check_rows(data["compare"], data["trajectory"])


def test_e19_quick_grid_guided_beats_blind():
    data = sections("E19", quick=True)
    assert {row[0] for row in data["compare"]} == {"guided", "blind"}
    check_rows(data["compare"], data["trajectory"])


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="1-budget grid")
    parser.add_argument(
        "--output", default="",
        help="write a perf-trajectory record here ('' to skip)",
    )
    args = parser.parse_args(argv)
    data = sections("E19", quick=args.quick)
    print("E19: coverage-guided vs blind fuzzing at equal seed budget")
    print(format_table(COMPARE_HEADERS, data["compare"]))
    check_rows(data["compare"], data["trajectory"])
    if args.output:
        uniques = {row[0]: row[4] for row in data["compare"]}
        write_bench_json(
            args.output, "E19",
            {"unique_guided": uniques.get("guided"),
             "unique_blind": uniques.get("blind")},
            meta={"quick": args.quick},
            extra={"experiment": {"id": "E19", "rows": data["compare"]}},
        )
        print(f"\nwrote {args.output}")
    print("\nguided campaigns discover strictly more signatures than blind")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
