"""Compare two sets of benchmark results under the benchmark's own bounds.

    python3 benchmarks/e2e/compare.py A_DIR B_DIR

``A_DIR`` (the base) and ``B_DIR`` each hold what ``run.py --out DIR``
wrote: ``<workload>.json`` and, optionally, ``<workload>.trace.json``.
Several runs of a side may sit in sub-directories of it.

One row per workload x end-to-end metric: each side's median over its
runs, the ratio B/A with its base, and a verdict:

* **host** metrics (wall-clock, memory) are judged by ``bound`` from
  ``BENCHMARK.json``: ``better`` / ``same`` / ``worse``, or
  ``unresolved`` when a side's quartile spread (over its runs, or over
  the passes of its only run) is wider than the bound and the two
  sides' samples overlap (then nothing can be concluded);
* **sim** metrics are exact for a seed and are compared with ``==``:
  any difference is ``better`` or ``worse`` by the metric's direction.

With trace files on both sides, every exact per-layer counter is also
compared with ``==`` and the ones that differ are listed as ``changed``.

Exit code: 1 on any ``worse``, 2 when the sets cannot be compared
(different seed or sizes, missing files), else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

DECLARATION = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Per-layer metrics derived from host time; everything else in a trace
#: file is a count that repeats exactly.
_HOST_DERIVED_SUFFIXES = (".self_share", ".inclusive_share", ".overhead_ratio")


class Incomparable(Exception):
    """The two result sets do not measure the same thing."""


def load_side(directory: Path, workload: str, suffix: str) -> List[Dict[str, Any]]:
    paths = sorted(directory.rglob(f"{workload}{suffix}"))
    return [json.loads(path.read_text(encoding="utf-8")) for path in paths]


def _identity(records: Sequence[Dict[str, Any]]) -> Tuple[Any, ...]:
    """What must match for two runs to measure the same inputs."""
    identities = {
        (r["seed"], r["quick"], r["backend"], json.dumps(r["sizes"], sort_keys=True))
        for r in records
    }
    if len(identities) != 1:
        raise Incomparable(f"runs of one side differ in inputs: {sorted(identities)}")
    return identities.pop()


def _values(records: Sequence[Dict[str, Any]], name: str) -> List[float]:
    """The metric as each run reported it."""
    return [record["metrics"][name]["value"] for record in records]


def _samples(records: Sequence[Dict[str, Any]], name: str) -> List[float]:
    """What the spread of a side is judged on: the runs' values when
    there are several runs, else the one run's per-pass samples."""
    if len(records) > 1:
        return _values(records, name)
    metric = records[0]["metrics"][name]
    return list(metric.get("samples", [metric["value"]]))


def _spread(samples: Sequence[float]) -> float:
    """Quartile spread as a share of the median.  The samples are all
    there is of a side (not a draw from more), hence ``inclusive``."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return (q3 - q1) / statistics.median(samples)


def judge_host(
    a_median: float,
    b_median: float,
    a: Sequence[float],
    b: Sequence[float],
    better: str,
    bound: float,
) -> str:
    overlap = not (min(b) > max(a) or max(b) < min(a))
    if overlap and max(_spread(a), _spread(b)) > bound:
        return "unresolved"
    worse_by = (b_median - a_median) / a_median
    if better == "higher":
        worse_by = -worse_by
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def judge_exact(a: float, b: float, better: str) -> str:
    if a == b:
        return "same"
    return "better" if (b > a) == (better == "higher") else "worse"


def compare_workload(
    workload: str, a_dir: Path, b_dir: Path, declared: Dict[str, Any]
) -> List[Tuple[str, ...]]:
    a_runs = load_side(a_dir, workload, ".json")
    b_runs = load_side(b_dir, workload, ".json")
    if not a_runs or not b_runs:
        raise Incomparable(f"{workload}.json missing on one side")
    if _identity(a_runs) != _identity(b_runs):
        raise Incomparable(
            f"{workload}: the sides ran different inputs "
            f"({_identity(a_runs)} vs {_identity(b_runs)})"
        )
    rows = []
    for metric in declared["end_to_end"]:
        name, better = metric["name"], metric["better"]
        kind = a_runs[0]["metrics"][name]["kind"]
        a_values, b_values = _values(a_runs, name), _values(b_runs, name)
        a_median = statistics.median(a_values)
        b_median = statistics.median(b_values)
        if kind == "sim":
            if len(set(a_values)) > 1 or len(set(b_values)) > 1:
                raise Incomparable(f"{workload} {name}: not exact within a side")
            verdict = judge_exact(a_median, b_median, better)
            rule = "=="
        else:
            a, b = _samples(a_runs, name), _samples(b_runs, name)
            verdict = judge_host(
                a_median, b_median, a, b, better, metric["bound"]
            )
            rule = (
                f"bound {metric['bound']:.2f}, spread "
                f"{_spread(a):.3f}/{_spread(b):.3f}, n {len(a)}/{len(b)}"
            )
        ratio = b_median / a_median if a_median else float("nan")
        rows.append((
            workload, name, f"{a_median:.6g}", f"{b_median:.6g}",
            f"{ratio:.4f} x {a_median:.6g} {metric['unit']}", verdict, rule,
        ))
    return rows


def changed_counters(
    workload: str, a_dir: Path, b_dir: Path
) -> Optional[Tuple[int, List[str]]]:
    """``(compared, differing names)`` over the exact per-layer counters,
    or ``None`` when a side has no trace file."""
    a_runs = load_side(a_dir, workload, ".trace.json")
    b_runs = load_side(b_dir, workload, ".trace.json")
    if not a_runs or not b_runs:
        return None
    a, b = a_runs[0]["metrics"], b_runs[0]["metrics"]
    exact = [n for n in a if not n.endswith(_HOST_DERIVED_SUFFIXES)]
    differing = [
        f"{n}: {a[n]['value']!r} -> {b.get(n, {}).get('value')!r}"
        for n in exact
        if a[n]["value"] != b.get(n, {}).get("value")
    ]
    return len(exact), differing


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    a_dir, b_dir = Path(argv[0]), Path(argv[1])
    declared = json.loads(DECLARATION.read_text(encoding="utf-8"))
    rows: List[Tuple[str, ...]] = []
    notes: List[str] = []
    try:
        for workload in (w["name"] for w in declared["workloads"]):
            rows.extend(compare_workload(workload, a_dir, b_dir, declared))
            counters = changed_counters(workload, a_dir, b_dir)
            if counters is None:
                notes.append(f"{workload}: no trace files on both sides")
                continue
            compared, differing = counters
            notes.append(
                f"{workload}: {compared} exact layer counters compared, "
                f"{len(differing)} changed"
            )
            notes.extend(f"  changed {line}" for line in differing)
    except Incomparable as error:
        print(f"compare: {error}", file=sys.stderr)
        return 2
    header = ("workload", "metric", "A median", "B median",
              "B/A x base", "verdict", "rule")
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    print()
    for note in notes:
        print(note)
    verdicts = [row[5] for row in rows]
    print(
        f"\n{verdicts.count('better')} better, {verdicts.count('same')} same, "
        f"{verdicts.count('worse')} worse, "
        f"{verdicts.count('unresolved')} unresolved"
    )
    return 1 if "worse" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
