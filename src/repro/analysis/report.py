"""Plain-text tables for benchmark output (EXPERIMENTS.md material)."""

from __future__ import annotations

from typing import Any, List, Sequence

__all__ = ["format_table", "format_scenario_results"]


def _stringify(cell: Any) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}".rstrip("0").rstrip(".")
    return str(cell)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Fixed-width aligned table for terminal output."""
    table = [[_stringify(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in table:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))
    out: List[str] = [line(list(headers)), line(["-" * w for w in widths])]
    out.extend(line(row) for row in table)
    return "\n".join(out)


def format_scenario_results(results: Sequence[Any]) -> str:
    """Summary table for a batch of scenario runs.

    Accepts :class:`~repro.scenarios.runner.ScenarioResult` objects (typed
    loosely to keep this module dependency-free).
    """
    rows = []
    for result in results:
        spec = result.spec
        rows.append([
            spec.name,
            spec.protocol,
            "OK" if result.ok else "FAIL",
            result.steps if result.steps is not None else "-",
            result.messages_sent,
            result.bytes_sent,
            ";".join(v.name for v in result.failures) or "-",
        ])
    return format_table(
        ["scenario", "protocol", "verdict", "steps", "msgs", "bytes", "failed oracles"],
        rows,
    )
