"""Declarative experiment specifications.

An :class:`ExperimentSpec` names one experiment of EXPERIMENTS.md: its
parameter grid, the driver that evaluates a single grid point, the
output schema (one column list per result section), and where in the
paper the regenerated numbers come from, and the claims those numbers
must bear out (:class:`Claim`).  The registry
(:mod:`repro.experiments.registry`) holds one spec per experiment id; the
runner (:mod:`repro.experiments.runner`) evaluates a spec's grid point by
point and checks its claims.

Grid points are plain dicts of JSON-safe values, so a task is fully
described by ``(experiment id, params)`` — that pair deterministically
derives the task's seed (:func:`derive_seed`), independent of execution
order.  Drivers must therefore be pure functions of ``(params, seed)``:
same inputs, same rows, on every run.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Claim",
    "ExperimentSpec",
    "TaskResult",
    "canonical_params",
    "derive_seed",
    "grid",
    "jsonify",
    "points",
]


def jsonify(value: Any) -> Any:
    """Normalize a value to what a JSON round-trip would produce.

    Rows are written to and diffed as JSON; normalizing *every* row the
    same way (tuples become lists, dict keys become strings) makes a
    fresh result and one read back from an artifact compare equal cell
    for cell.
    """
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (set, frozenset)):
        return sorted(jsonify(v) for v in value)
    return repr(value)


def canonical_params(params: Mapping[str, Any]) -> str:
    """Stable text form of a grid point (sorted keys, JSON values)."""
    return json.dumps(jsonify(dict(params)), sort_keys=True, separators=(",", ":"))


def derive_seed(experiment_id: str, params: Mapping[str, Any]) -> int:
    """Deterministic per-task seed from ``(experiment id, params)``.

    Independent of task order, filters and ``PYTHONHASHSEED``, so every
    run hands a driver the identical seed.
    """
    digest = hashlib.sha256(
        f"{experiment_id}|{canonical_params(params)}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big")


def grid(**axes: Sequence[Any]) -> List[Dict[str, Any]]:
    """Cartesian product of named axes as a list of grid-point dicts.

    >>> grid(f=(1, 2), scheme=("naive",))
    [{'f': 1, 'scheme': 'naive'}, {'f': 2, 'scheme': 'naive'}]
    """
    names = list(axes)
    return [
        dict(zip(names, values))
        for values in itertools.product(*(axes[name] for name in names))
    ]


def points(*pts: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """Explicit list of grid points (for irregular grids)."""
    return [dict(p) for p in pts]


@dataclass
class TaskResult:
    """What one grid point produced.

    ``rows`` is an ordered list of ``(section, row)`` pairs — most
    experiments emit a single ``"main"`` section, some emit several
    tables (e.g. E4's quorum sweep and splice table).  ``digest`` covers
    the deterministic part of the output; drivers whose rows contain
    wall-clock measurements pass an explicit digest over the stable
    cells only (see E21), everything else defaults to a digest of
    the full rows.
    """

    rows: List[Tuple[str, List[Any]]]
    digest: str = ""

    def __post_init__(self) -> None:
        self.rows = [
            (str(section), jsonify(list(row))) for section, row in self.rows
        ]
        if not self.digest:
            self.digest = hashlib.sha256(
                json.dumps(self.rows, sort_keys=True).encode()
            ).hexdigest()


#: A driver evaluates one grid point: ``driver(params, seed) -> TaskResult``.
Driver = Callable[[Dict[str, Any], int], TaskResult]


@dataclass(frozen=True)
class Claim:
    """A named statement about one section of an experiment's rows.

    ``holds`` receives the finished
    :class:`~repro.experiments.runner.ExperimentResult` (its rows and
    ``quick``); with ``each=True`` it receives one row's cells instead
    and must hold of every row of ``section``.
    """

    name: str
    section: str
    holds: Callable[..., bool]
    each: bool = False

    def broken_rows(self, result: Any) -> Optional[List[List[Any]]]:
        """``None`` when the claim holds, else the rows that break it:
        the failing rows of an ``each`` claim, every row of the section
        for the others (also when ``holds`` raises, e.g. because a row it
        looks up is missing)."""
        rows = result.rows(self.section)
        try:
            if self.each:
                broken = [row for row in rows if not self.holds(*row)]
                return broken or None
            return None if self.holds(result) else rows
        except Exception:
            return rows


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: identity, grid, driver, output schema."""

    #: Stable id, e.g. ``"E1"`` (the EXPERIMENTS.md key).
    id: str
    #: Human name, e.g. ``"resilience"`` (CLI alias).
    name: str
    #: One-line description (list/describe output).
    title: str
    #: Where the regenerated numbers come from in the paper.
    paper_ref: str
    #: Evaluates a single grid point.
    driver: Driver
    #: The full parameter grid, one dict per task.
    grid: Tuple[Dict[str, Any], ...]
    #: Reduced grid for ``--quick`` runs (defaults to the full grid).
    quick_grid: Optional[Tuple[Dict[str, Any], ...]] = None
    #: Column headers per result section.
    columns: Mapping[str, Tuple[str, ...]] = field(default_factory=dict)
    #: Whether the driver's rows are stable across runs (everything but
    #: pure wall-clock measurement is).
    deterministic: bool = True
    #: What the rows must bear out; ``experiments run`` checks every one.
    claims: Tuple[Claim, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid", tuple(dict(p) for p in self.grid))
        if self.quick_grid is not None:
            object.__setattr__(
                self, "quick_grid", tuple(dict(p) for p in self.quick_grid)
            )
        object.__setattr__(
            self,
            "columns",
            {str(k): tuple(v) for k, v in dict(self.columns).items()},
        )
        object.__setattr__(self, "claims", tuple(self.claims))

    def grid_for(self, quick: bool) -> Tuple[Dict[str, Any], ...]:
        if quick and self.quick_grid is not None:
            return self.quick_grid
        return self.grid

    def describe(self) -> Dict[str, Any]:
        """JSON-safe summary (the ``describe`` CLI verb)."""
        return {
            "id": self.id,
            "name": self.name,
            "title": self.title,
            "paper_ref": self.paper_ref,
            "grid_points": len(self.grid),
            "quick_points": len(self.grid_for(quick=True)),
            "sections": {k: list(v) for k, v in self.columns.items()},
            "deterministic": self.deterministic,
            "claims": [claim.name for claim in self.claims],
            "repro": f"python -m repro.experiments run {self.id}",
        }
