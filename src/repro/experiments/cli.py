"""The experiment CLI.

Usage::

    python -m repro.experiments list
    python -m repro.experiments describe E1
    python -m repro.experiments run E13 E15 --json out/ --filter f=2
    python -m repro.experiments run --all --quick
    python -m repro.experiments diff out/BENCH_experiments.json other.json

``run`` executes registry grids one task after another, prints one
aligned table per result section, and with ``--json DIR`` writes one
schema-2 ``BENCH_<id>_<name>.json`` artifact per experiment plus an
aggregated ``BENCH_experiments.json``.  It then checks every claim of
every experiment it ran and exits 1 when one is broken, naming the
claim and the rows that break it.  Claims are statements about whole
grids, so a ``--filter`` run, which covers part of one, checks none.

``diff`` exits 0 when every grid digest agrees, 1 on a mismatch (a grid
present on one side only included) and 2 when an input is unreadable,
malformed, or not a grid artifact at all.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from ..analysis.grids import compare_grid_payloads, format_experiment_payload
from ..analysis.report import format_table
from .registry import all_experiments, get_experiment
from .runner import ExperimentError, ExperimentResult, run_experiments
from .store import aggregate_payload, load_grid_payloads, write_experiment_json

__all__ = ["main"]


def _parse_filters(pairs: List[str]) -> Dict[str, str]:
    filters: Dict[str, str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--filter wants key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        filters[key.strip()] = value.strip()
    return filters


def _cmd_list(_args: argparse.Namespace) -> int:
    rows = []
    for spec in all_experiments():
        rows.append(
            [
                spec.id,
                spec.name,
                len(spec.grid),
                len(spec.grid_for(quick=True)),
                ",".join(spec.columns),
                spec.title[:58],
            ]
        )
    print(
        format_table(
            ["id", "name", "points", "quick", "sections", "title"], rows
        )
    )
    return 0


def _lookup(name: str):
    try:
        return get_experiment(name)
    except KeyError as error:
        raise SystemExit(f"error: {error.args[0]}")


def _cmd_describe(args: argparse.Namespace) -> int:
    for name in args.experiments:
        spec = _lookup(name)
        info = spec.describe()
        print(f"{info['id']} ({info['name']}) — {info['title']}")
        print(f"  paper      : {info['paper_ref']}")
        print(
            f"  grid       : {info['grid_points']} points "
            f"({info['quick_points']} quick)"
        )
        for section, columns in info["sections"].items():
            print(f"  section    : {section}: {', '.join(columns)}")
        for claim in info["claims"]:
            print(f"  claim      : {claim}")
        print(f"  repro      : {info['repro']}")
        if args.grid:
            for index, params in enumerate(spec.grid):
                print(f"    [{index:>3}] {json.dumps(params, sort_keys=True)}")
        print()
    return 0


def _check_claims(results: List[ExperimentResult]) -> int:
    """Print each broken claim with the rows that break it; 1 if any."""
    checked = broken = 0
    for result in results:
        checked += len(result.spec.claims)
        for claim, rows in result.broken_claims():
            broken += 1
            print(f"CLAIM BROKEN {result.spec.id} [{claim.section}]: {claim.name}")
            for row in rows:
                print(f"    {row}")
    print(f"\nclaims: {checked - broken} of {checked} hold")
    return 1 if broken else 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.all:
        specs = all_experiments()
    elif args.experiments:
        specs = [_lookup(name) for name in args.experiments]
    else:
        print("run: give experiment ids/names or --all (see 'list')",
              file=sys.stderr)
        return 2
    filters = _parse_filters(args.filter)
    try:
        results = run_experiments(specs, quick=args.quick, filters=filters)
    except ExperimentError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    for result in results:
        print()
        print(format_experiment_payload(result.to_payload()))

    if args.json:
        out_dir = Path(args.json)
        out_dir.mkdir(parents=True, exist_ok=True)
        for result in results:
            path = out_dir / f"BENCH_{result.spec.id}_{result.spec.name}.json"
            write_experiment_json(str(path), result)
        aggregate = aggregate_payload(results)
        aggregate_path = out_dir / "BENCH_experiments.json"
        aggregate_path.write_text(
            json.dumps(aggregate, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"\nwrote {len(results)} artifacts + {aggregate_path}")
    if filters:
        print("\nclaims not checked: --filter runs part of a grid")
        return 0
    return _check_claims(results)


def _cmd_diff(args: argparse.Namespace) -> int:
    try:
        left = load_grid_payloads(args.left)
        right = load_grid_payloads(args.right)
    except (OSError, ValueError) as error:
        print(f"diff: {error}", file=sys.stderr)
        return 2
    comparison = compare_grid_payloads(left, right)
    print(comparison.summary())
    return 0 if comparison.ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered experiments")

    describe = sub.add_parser("describe", help="show a spec in detail")
    describe.add_argument("experiments", nargs="+", metavar="EXPERIMENT")
    describe.add_argument(
        "--grid", action="store_true", help="also print every grid point"
    )

    run = sub.add_parser("run", help="run experiment grids")
    run.add_argument("experiments", nargs="*", metavar="EXPERIMENT",
                     help="ids (E13) or names (scalability)")
    run.add_argument("--all", action="store_true",
                     help="run every registered experiment")
    run.add_argument("--quick", action="store_true",
                     help="use the reduced quick grids")
    run.add_argument("--filter", action="append", default=[],
                     metavar="KEY=VALUE",
                     help="only grid points matching (repeatable)")
    run.add_argument("--json", metavar="DIR", default="",
                     help="write BENCH_*.json artifacts into DIR")

    diff = sub.add_parser("diff", help="compare two experiment artifacts")
    diff.add_argument("left")
    diff.add_argument("right")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "describe":
        return _cmd_describe(args)
    if args.command == "diff":
        return _cmd_diff(args)
    return _cmd_run(args)
