"""CLI for the scenario engine.

Usage::

    python -m repro.scenarios list
    python -m repro.scenarios run fast-path-clean
    python -m repro.scenarios run --all [--json] [--metrics-out FILE] [--trace-out FILE]
        [--record-out DIR]
    python -m repro.scenarios digest [--check PATH | --update PATH]

Exit status is 0 when every invariant oracle passed, 1 otherwise — so the
commands double as CI smoke checks.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List

from ..analysis.report import format_scenario_results, format_table
from ..obs import observers_from_flags
from .library import SCENARIOS, get_scenario
from .runner import run_scenario
from .spec import ScenarioError


def _cmd_list(_args: argparse.Namespace) -> int:
    rows = [
        [
            spec.name,
            spec.protocol,
            f"{spec.n}/{spec.f}" + (f"/{spec.t}" if spec.t is not None else ""),
            spec.delay.kind,
            len(spec.faults) + len(spec.byzantine),
            spec.description.split(":")[0][:58],
        ]
        for spec in SCENARIOS.values()
    ]
    print(format_table(
        ["scenario", "protocol", "n/f[/t]", "delay", "faults", "description"], rows
    ))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    names: List[str] = list(SCENARIOS) if args.all else args.names
    if not names:
        print("run: give scenario names or --all (see 'list')", file=sys.stderr)
        return 2
    exit_code = 0
    payloads = []
    results = []
    metrics_accum = {} if args.metrics_out else None
    trace_accum = {} if args.trace_out else None
    record_dir = args.record_out or None
    dumped = []
    for name in names:
        observers = observers_from_flags(
            args.metrics_out, args.trace_out, args.record_out
        )
        recorder = observers.get("recorder")
        result = run_scenario(get_scenario(name), **observers)
        results.append(result)
        if metrics_accum is not None:
            metrics_accum[name] = result.metrics
        if trace_accum is not None:
            trace_accum[name] = recorder.to_dict()
        if record_dir is not None and not result.ok:
            # Dump-on-violation: the attached recorder is digest-safe, so
            # the failing run's own record is the artifact — no re-run.
            import os

            os.makedirs(record_dir, exist_ok=True)
            path = os.path.join(record_dir, f"flight-{name}.jsonl")
            recorder.dump(path)
            dumped.append(path)
        if args.json:
            payloads.append(result.to_dict())
        else:
            print(result.summary())
            print()
        if not result.ok:
            exit_code = 1
    if metrics_accum is not None:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            json.dump(metrics_accum, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote metrics for {len(metrics_accum)} scenario(s) to {args.metrics_out}")
    if trace_accum is not None:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            json.dump(trace_accum, fh, indent=2)
            fh.write("\n")
        print(f"wrote traces for {len(trace_accum)} scenario(s) to {args.trace_out}")
    for path in dumped:
        print(f"wrote flight record of failing scenario to {path}")
    if args.json:
        print(json.dumps(payloads if args.all or len(names) > 1 else payloads[0],
                         indent=2))
    elif len(results) > 1:
        print(format_scenario_results(results))
    return exit_code


def _cmd_digest(args: argparse.Namespace) -> int:
    """Print (or check/update) the canonical library's trace digests.

    Each scenario is run twice; a run-to-run mismatch is reported as
    ``NONDETERMINISTIC`` and fails the command.  ``--check`` additionally
    compares against a recorded golden file (the determinism gate CI
    runs); ``--update`` rewrites that file after a deliberate change to
    the scenario library or the protocols.
    """
    golden = {}
    if args.check:
        with open(args.check, encoding="utf-8") as fh:
            golden = json.load(fh)
    digests = {}
    exit_code = 0
    for name in SCENARIOS:
        first = run_scenario(get_scenario(name)).trace_digest
        second = run_scenario(get_scenario(name)).trace_digest
        digests[name] = first
        status = "ok"
        if first != second:
            status = "NONDETERMINISTIC"
            exit_code = 1
        elif args.check:
            if name not in golden:
                status = "UNRECORDED"
                exit_code = 1
            elif golden[name] != first:
                status = "MISMATCH vs golden"
                exit_code = 1
        print(f"{name:<24} {first[:16]}  {status}")
    if args.check:
        for name in sorted(set(golden) - set(SCENARIOS)):
            print(f"{name:<24} {'-':<16}  MISSING from library")
            exit_code = 1
    if args.update:
        if exit_code != 0:
            print(
                "refusing to write golden digests: fix the failures above "
                "first (a nondeterministic scenario would pin an arbitrary "
                "digest)",
                file=sys.stderr,
            )
            return exit_code
        with open(args.update, "w", encoding="utf-8") as fh:
            json.dump(digests, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(digests)} digests to {args.update}")
    return exit_code


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="Run declarative fault/workload scenarios with invariant oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the canonical scenario library")

    run_parser = sub.add_parser("run", help="run named scenarios (or --all)")
    run_parser.add_argument("names", nargs="*", help="scenario names")
    run_parser.add_argument("--all", action="store_true", help="run the whole library")
    run_parser.add_argument("--json", action="store_true", help="machine-readable output")
    run_parser.add_argument(
        "--metrics-out", metavar="FILE", default="",
        help="attach a MetricsRegistry per scenario and write all snapshots "
             "to this JSON file",
    )
    run_parser.add_argument(
        "--trace-out", metavar="FILE", default="",
        help="attach a FlightRecorder per scenario and write every run's "
             "causal record (passing runs included) to this JSON file",
    )
    run_parser.add_argument(
        "--record-out", metavar="DIR", default="",
        help="attach a FlightRecorder per scenario and dump failing runs "
             "as DIR/flight-<name>.jsonl (see python -m repro.postmortem)",
    )

    digest_parser = sub.add_parser(
        "digest", help="run every canonical scenario twice and report trace digests"
    )
    digest_parser.add_argument(
        "--check", metavar="PATH", default="",
        help="golden digest JSON to compare against (non-zero exit on mismatch)",
    )
    digest_parser.add_argument(
        "--update", metavar="PATH", default="",
        help="write the computed digests to this JSON file",
    )

    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_digest(args)
    except ScenarioError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
