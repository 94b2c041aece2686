"""Command-line interface: ``python -m repro.lint``.

Exit codes: 0 = clean, 1 = findings, 2 = usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from .engine import run_lint
from .rules import rule_table


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "Protocol-aware static analysis: determinism (D), quorum "
            "arithmetic (Q), verify-before-use (V), WAL ordering (W)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        help="write a JSON report to FILE ('-' for stdout)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="suppress per-finding lines"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for row in rule_table():
            print(f"{row['id']}  {row['title']}")
            print(f"      {row['rationale']}")
        return 0

    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(
            f"error: path(s) do not exist: {', '.join(map(str, missing))}",
            file=sys.stderr,
        )
        return 2

    result = run_lint(paths)

    if not args.quiet:
        for finding in result.findings:
            print(finding.render())

    summary = (
        f"{result.files_checked} files checked, "
        f"{len(result.findings)} finding(s), "
        f"{result.suppressed} suppressed"
    )
    print(summary if not result.findings else f"FAILED: {summary}")

    if args.json:
        payload = json.dumps(result.to_json(), indent=2) + "\n"
        if args.json == "-":
            sys.stdout.write(payload)
        else:
            Path(args.json).write_text(payload, encoding="utf-8")

    return result.exit_code
