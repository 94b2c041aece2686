"""CLI for the coverage-guided fuzzer.

Usage::

    python -m repro.fuzz campaign --budget 256 [--shards 2] [--max-seconds 600]
        [--corpus-in FILE] [--corpus-out FILE] [--json FILE] [--no-shrink]
        [--metrics-out FILE] [--trace-out FILE] [--record-out DIR]
    python -m repro.fuzz replay KEY --corpus FILE
    python -m repro.fuzz replay --spec FILE [--metrics-out FILE]
        [--trace-out FILE] [--record-out DIR]
    python -m repro.fuzz corpus stats --corpus FILE
    python -m repro.fuzz corpus minimize --corpus FILE [--out FILE]

``campaign`` exits 0 only when every oracle passed on every run — the
CI gate.  ``replay`` re-executes one corpus entry (by key prefix) or a
reproducer spec file and prints the full result.

Telemetry: ``--metrics-out`` / ``--trace-out`` attach a shared
:class:`~repro.obs.metrics.MetricsRegistry` / bounded
:class:`~repro.obs.recorder.FlightRecorder` across every executed
schedule (this forces in-process serial execution — observers cannot
cross a fork); the trace file is that recorder's ring, passing runs
included.  ``--record-out`` replays each failure's original and
shrunk reproducer under a fresh recorder (replays are deterministic,
so the record is exact) and dumps both — the pair feeds ``python -m
repro.postmortem diff`` directly.  With ``--json`` and no
``--record-out``, failing reproducers are dumped next to the report
automatically.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Any, Dict, List, Optional, Sequence

from ..obs import FlightRecorder, observers_from_flags
from ..scenarios.runner import run_scenario
from ..scenarios.spec import ScenarioError, ScenarioSpec
from .campaign import CampaignConfig, run_campaign
from .corpus import Corpus
from .generator import DEFAULT_FUZZ_PROTOCOLS


def _dump_failures(failures: Sequence[Any], directory: str) -> List[str]:
    """Replay each failure's original and shrunk spec under a flight
    recorder and dump both; returns the written paths."""
    os.makedirs(directory, exist_ok=True)
    written: List[str] = []
    for failure in failures:
        # Mutant origins ("mutant:268/splice+add-partition") are not
        # file names.
        stem = re.sub(r"[^A-Za-z0-9._-]", "-", failure.origin)
        for tag, spec_dict in (
            ("original", failure.spec),
            ("shrunk", failure.shrunk),
        ):
            spec = ScenarioSpec.from_dict(spec_dict)
            recorder = FlightRecorder()
            run_scenario(spec, recorder=recorder)
            path = os.path.join(directory, f"flight-{stem}-{tag}.jsonl")
            recorder.dump(path)
            written.append(path)
    return written


def _write_telemetry(
    args: argparse.Namespace, observers: Dict[str, Any], what: str
) -> None:
    """Write what ``--metrics-out`` / ``--trace-out`` asked for."""
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(observers["metrics"].to_json(indent=2) + "\n")
        print(f"wrote {what} metrics to {args.metrics_out}")
    if args.trace_out:
        recorder = observers["recorder"]
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            json.dump(recorder.to_dict(), fh, indent=2)
            fh.write("\n")
        print(f"wrote {what} trace ({recorder.emitted} events) to {args.trace_out}")


def _cmd_campaign(args: argparse.Namespace) -> int:
    corpus = Corpus.load(args.corpus_in) if args.corpus_in else Corpus()
    config = CampaignConfig(
        budget=args.budget,
        start_seed=args.start,
        protocols=(
            tuple(args.protocols.split(","))
            if args.protocols
            else DEFAULT_FUZZ_PROTOCOLS
        ),
        shards=args.shards,
        round_size=args.round_size,
        max_seconds=args.max_seconds,
        shrink=not args.no_shrink,
    )

    def progress(origin: str, outcome) -> None:
        if not args.quiet:
            status = "ok" if outcome["ok"] else "FAIL"
            print(f"{origin:>24} [{outcome['coverage']['protocol']:>8}] -> {status}")

    # Campaign --record-out replays failures (below); it attaches nothing.
    observers = observers_from_flags(args.metrics_out, args.trace_out, "")
    run = run_scenario
    if observers:

        def run(spec):
            # A custom ``run`` forces the in-process serial path, so the
            # shared registry/ring observes every executed schedule.
            return run_scenario(spec, **observers)

    report = run_campaign(config, corpus=corpus, run=run, on_progress=progress)
    if args.corpus_out:
        corpus.save(args.corpus_out)
        print(f"wrote corpus ({len(corpus.entries)} entries) to {args.corpus_out}")
    _write_telemetry(args, observers, "campaign")
    if args.json:
        payload = report.to_dict()
        payload["digest"] = report.digest
        payload["elapsed_seconds"] = report.elapsed_seconds
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote campaign report to {args.json}")
    if report.failures:
        # Dump-on-violation: a failing seed's flight record lands next
        # to the report (or wherever --record-out points), ready for
        # `python -m repro.postmortem explain`.
        record_dir = args.record_out or (
            os.path.dirname(os.path.abspath(args.json)) if args.json else ""
        )
        if record_dir:
            for path in _dump_failures(report.failures, record_dir):
                print(f"wrote flight record to {path}")
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_replay(args: argparse.Namespace) -> int:
    if args.spec:
        with open(args.spec, encoding="utf-8") as fh:
            spec = ScenarioSpec.from_dict(json.load(fh))
    else:
        if not args.key or not args.corpus:
            print("replay: give KEY with --corpus, or --spec FILE", file=sys.stderr)
            return 2
        corpus = Corpus.load(args.corpus)
        matches = [
            entry for entry in corpus.entries if entry.key.startswith(args.key)
        ]
        if len(matches) != 1:
            print(
                f"replay: key prefix {args.key!r} matches {len(matches)} "
                f"entries (need exactly 1)",
                file=sys.stderr,
            )
            return 2
        spec = ScenarioSpec.from_dict(matches[0].spec)
    observers = observers_from_flags(
        args.metrics_out, args.trace_out, args.record_out
    )
    result = run_scenario(spec, **observers)
    _write_telemetry(args, observers, "replay")
    if args.record_out:
        os.makedirs(args.record_out, exist_ok=True)
        path = os.path.join(args.record_out, f"flight-{spec.name}.jsonl")
        observers["recorder"].dump(path)
        print(f"wrote flight record to {path}")
    print(result.summary())
    return 0 if result.ok else 1


def _cmd_corpus(args: argparse.Namespace) -> int:
    corpus = Corpus.load(args.corpus)
    if args.action == "stats":
        print(json.dumps(corpus.stats(), indent=2, sort_keys=True))
        return 0
    reduced = corpus.minimize()
    out = args.out or args.corpus
    reduced.save(out)
    print(
        f"minimized {len(corpus.entries)} -> {len(reduced.entries)} entries "
        f"(coverage preserved: {len(reduced.feature_counts)} features) -> {out}"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Coverage-guided fault-schedule fuzzing campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    campaign = sub.add_parser("campaign", help="run a coverage-guided campaign")
    campaign.add_argument("--budget", type=int, default=256,
                          help="seed budget: total scenario executions")
    campaign.add_argument("--start", type=int, default=0,
                          help="first generator seed / campaign rng seed")
    campaign.add_argument(
        "--protocols", default="",
        help=f"comma-separated protocol keys (default {','.join(DEFAULT_FUZZ_PROTOCOLS)})",
    )
    campaign.add_argument("--shards", type=int, default=1,
                          help="worker processes per round")
    campaign.add_argument("--round-size", type=int, default=8,
                          help="executions per round (shard-independent)")
    campaign.add_argument("--max-seconds", type=float, default=None,
                          help="wall-clock budget; stops at a round boundary")
    campaign.add_argument("--corpus-in", default="",
                          help="load a persisted corpus before the run")
    campaign.add_argument("--corpus-out", default="",
                          help="save the grown corpus after the run")
    campaign.add_argument("--json", default="",
                          help="write the campaign report to this file")
    campaign.add_argument("--no-shrink", action="store_true",
                          help="skip shrinking failing specs")
    campaign.add_argument("--quiet", action="store_true",
                          help="no per-run progress lines")
    campaign.add_argument(
        "--metrics-out", metavar="FILE", default="",
        help="attach one shared MetricsRegistry across every executed "
             "schedule and write its snapshot here (forces in-process "
             "serial execution)",
    )
    campaign.add_argument(
        "--trace-out", metavar="FILE", default="",
        help="attach one shared FlightRecorder across every executed "
             "schedule and write its ring here, passing runs included "
             "(forces in-process serial execution)",
    )
    campaign.add_argument(
        "--record-out", metavar="DIR", default="",
        help="replay each failure's original + shrunk reproducer under a "
             "FlightRecorder and dump both to DIR (defaults to the --json "
             "report's directory when failures occur)",
    )

    replay = sub.add_parser("replay", help="re-run a corpus entry or reproducer")
    replay.add_argument("key", nargs="?", default="",
                        help="signature-key prefix of a corpus entry")
    replay.add_argument("--corpus", default="", help="corpus JSON to search")
    replay.add_argument("--spec", default="",
                        help="a reproducer spec JSON file (instead of KEY)")
    replay.add_argument(
        "--metrics-out", metavar="FILE", default="",
        help="attach a MetricsRegistry and write its snapshot here",
    )
    replay.add_argument(
        "--trace-out", metavar="FILE", default="",
        help="attach a FlightRecorder and write its ring here as one "
             "JSON document",
    )
    replay.add_argument(
        "--record-out", metavar="DIR", default="",
        help="attach a FlightRecorder and dump DIR/flight-<name>.jsonl "
             "(see python -m repro.postmortem)",
    )

    corpus = sub.add_parser("corpus", help="inspect or minimize a corpus")
    corpus.add_argument("action", choices=("stats", "minimize"))
    corpus.add_argument("--corpus", required=True, help="corpus JSON file")
    corpus.add_argument("--out", default="",
                        help="minimize: write here instead of in place")

    args = parser.parse_args(argv)
    try:
        if args.command == "campaign":
            return _cmd_campaign(args)
        if args.command == "replay":
            return _cmd_replay(args)
        return _cmd_corpus(args)
    except ScenarioError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
