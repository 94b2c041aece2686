"""Grid aggregation and run-vs-run comparison for experiment results.

These helpers operate on the JSON-safe payloads the experiment framework
produces (:meth:`repro.experiments.ExperimentResult.to_payload` or a
loaded ``BENCH_*`` schema-2 artifact), so they have no dependency on the
framework itself — ``diff`` works on artifacts from other machines.

The load-bearing one is :func:`compare_grid_payloads`: the
serial-vs-parallel gate.  Two runs of the same grid must agree on every
grid digest (sharded execution is only allowed to be *faster*, never
*different*); for non-deterministic experiments (wall-clock measurement,
E21) the digests cover workload identity rather than measured
values, so the check stays meaningful without ever failing on timing
noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence

from .report import format_table

__all__ = [
    "GridComparison",
    "compare_grid_payloads",
    "format_experiment_payload",
    "merge_section_rows",
    "payload_sections",
]


def payload_sections(payload: Mapping[str, Any]) -> Dict[str, Dict[str, Any]]:
    """The ``sections`` mapping of a result payload or schema-2 artifact
    (artifacts store it under ``results``)."""
    sections = payload.get("sections")
    if sections is None:
        sections = payload.get("results", {})
    return dict(sections)


def merge_section_rows(
    payloads: Sequence[Mapping[str, Any]]
) -> Dict[str, List[List[Any]]]:
    """Concatenate same-named sections across several experiment payloads
    (e.g. to pool every experiment's rows into one report)."""
    merged: Dict[str, List[List[Any]]] = {}
    for payload in payloads:
        for name, section in payload_sections(payload).items():
            merged.setdefault(name, []).extend(section.get("rows", []))
    return merged


def format_experiment_payload(payload: Mapping[str, Any]) -> str:
    """Render one experiment payload as aligned tables, one per section."""
    exp = payload.get("experiment", payload)
    header = (
        f"{exp.get('id', '?')} ({exp.get('name', '?')}): {exp.get('title', '')}"
    )
    blocks = [header]
    for name, section in payload_sections(payload).items():
        rows = section.get("rows", [])
        if not rows:
            continue
        columns = section.get("columns") or [
            f"col{i}" for i in range(len(rows[0]))
        ]
        title = f"[{name}]" if name != "main" else ""
        table = format_table(list(columns), rows)
        blocks.append(f"{title}\n{table}" if title else table)
    meta = (
        f"tasks={exp.get('tasks_total', '?')}"
        f" cached={exp.get('tasks_cached', 0)}"
        f" compute={exp.get('compute_seconds', '?')}s"
        f" batch-wall={exp.get('wall_seconds', '?')}s"
        f" digest={str(exp.get('grid_digest', ''))[:16]}"
    )
    blocks.append(meta)
    return "\n\n".join(blocks)


@dataclass
class GridComparison:
    """Outcome of comparing two runs of the same experiment set."""

    #: Experiment ids present in exactly one side.
    only_left: List[str] = field(default_factory=list)
    only_right: List[str] = field(default_factory=list)
    #: id -> (left digest, right digest) for mismatching grids.
    digest_mismatches: Dict[str, tuple] = field(default_factory=dict)
    #: id -> list of human-readable row differences (informational).
    row_diffs: Dict[str, List[str]] = field(default_factory=dict)
    compared: int = 0

    @property
    def ok(self) -> bool:
        return not (self.only_left or self.only_right or self.digest_mismatches)

    def summary(self) -> str:
        if self.ok:
            return f"OK: {self.compared} experiment grids agree"
        lines = [f"MISMATCH across {self.compared} compared grids:"]
        for exp_id in self.only_left:
            lines.append(f"  {exp_id}: only in left run")
        for exp_id in self.only_right:
            lines.append(f"  {exp_id}: only in right run")
        for exp_id, (left, right) in sorted(self.digest_mismatches.items()):
            lines.append(
                f"  {exp_id}: grid digest {left[:16]} != {right[:16]}"
            )
            for diff in self.row_diffs.get(exp_id, [])[:6]:
                lines.append(f"      {diff}")
        return "\n".join(lines)


def _index_payloads(
    payloads: Sequence[Mapping[str, Any]]
) -> Dict[str, Mapping[str, Any]]:
    indexed = {}
    for payload in payloads:
        exp = payload.get("experiment", payload)
        indexed[str(exp.get("id"))] = payload
    return indexed


def _row_diffs(
    left: Mapping[str, Any], right: Mapping[str, Any]
) -> List[str]:
    diffs = []
    lsec, rsec = payload_sections(left), payload_sections(right)
    for name in sorted(set(lsec) | set(rsec)):
        lrows = lsec.get(name, {}).get("rows", [])
        rrows = rsec.get(name, {}).get("rows", [])
        if len(lrows) != len(rrows):
            diffs.append(
                f"[{name}] row count {len(lrows)} != {len(rrows)}"
            )
            continue
        for i, (lrow, rrow) in enumerate(zip(lrows, rrows)):
            if lrow != rrow:
                diffs.append(f"[{name}] row {i}: {lrow} != {rrow}")
    return diffs


def compare_grid_payloads(
    left: Sequence[Mapping[str, Any]],
    right: Sequence[Mapping[str, Any]],
) -> GridComparison:
    """Compare two runs (e.g. serial vs parallel, or two commits).

    Digest equality is the gate; row-level differences are collected for
    the report when digests disagree.
    """
    lmap, rmap = _index_payloads(left), _index_payloads(right)
    comparison = GridComparison()
    comparison.only_left = sorted(set(lmap) - set(rmap))
    comparison.only_right = sorted(set(rmap) - set(lmap))
    for exp_id in sorted(set(lmap) & set(rmap)):
        comparison.compared += 1
        lexp = lmap[exp_id].get("experiment", lmap[exp_id])
        rexp = rmap[exp_id].get("experiment", rmap[exp_id])
        ldigest = str(lexp.get("grid_digest", ""))
        rdigest = str(rexp.get("grid_digest", ""))
        if ldigest != rdigest:
            comparison.digest_mismatches[exp_id] = (ldigest, rdigest)
            comparison.row_diffs[exp_id] = _row_diffs(
                lmap[exp_id], rmap[exp_id]
            )
    return comparison
