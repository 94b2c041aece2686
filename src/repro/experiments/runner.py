"""Execution of experiment grids, and the check of their claims.

A grid expands into :class:`Task` objects — ``(experiment id, index,
params, derived seed)`` — that run one after another in this process.
Every task's seed derives only from ``(experiment id, params)``, every
row is JSON-normalized the moment it is produced, and the per-grid
digest chains the per-task digests in grid order, so two runs of a
deterministic grid (on two commits, say) agree digest for digest.

A finished grid is an :class:`ExperimentResult`;
:meth:`ExperimentResult.broken_claims` checks it against its spec's
claims.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .registry import get_experiment
from .spec import Claim, ExperimentSpec, derive_seed

__all__ = [
    "ExperimentError",
    "ExperimentResult",
    "Task",
    "expand_tasks",
    "matches_filters",
    "run_experiment",
    "run_experiments",
]


class ExperimentError(RuntimeError):
    """A driver failed; carries the experiment id and grid point."""


@dataclass(frozen=True)
class Task:
    """One grid point of one experiment, with its derived seed."""

    experiment_id: str
    index: int
    params: Mapping[str, Any]
    seed: int

    @classmethod
    def for_point(
        cls, spec: ExperimentSpec, index: int, params: Mapping[str, Any]
    ) -> "Task":
        return cls(
            experiment_id=spec.id,
            index=index,
            params=dict(params),
            seed=derive_seed(spec.id, params),
        )


def matches_filters(
    params: Mapping[str, Any], filters: Mapping[str, str]
) -> bool:
    """``--filter key=value`` semantics: every filter key must be present
    in the grid point and stringify to the given value."""
    return all(
        key in params and str(params[key]) == value
        for key, value in filters.items()
    )


def expand_tasks(
    spec: ExperimentSpec,
    quick: bool = False,
    filters: Optional[Mapping[str, str]] = None,
) -> List[Task]:
    """The spec's (possibly filtered) grid as ordered tasks."""
    tasks = []
    for index, params in enumerate(spec.grid_for(quick)):
        if filters and not matches_filters(params, filters):
            continue
        tasks.append(Task.for_point(spec, index, params))
    return tasks


@dataclass
class ExperimentResult:
    """One experiment's aggregated grid run."""

    spec: ExperimentSpec
    quick: bool
    tasks_total: int
    #: Wall clock of this experiment's tasks.
    wall_seconds: float
    #: Rows per section, in grid order.
    sections: Dict[str, List[List[Any]]]
    #: Per-task digests in grid order.
    task_digests: List[str] = field(default_factory=list)

    @property
    def grid_digest(self) -> str:
        """Chains the per-task digests in grid order: equal digests mean
        two runs produced the same rows."""
        h = hashlib.sha256()
        for digest in self.task_digests:
            h.update(digest.encode())
            h.update(b"\n")
        return h.hexdigest()

    def rows(self, section: str = "main") -> List[List[Any]]:
        return self.sections.get(section, [])

    def broken_claims(self) -> List[Tuple[Claim, List[List[Any]]]]:
        """Each claim of the spec these rows break, with the rows that
        break it (empty when every claim holds)."""
        broken = []
        for claim in self.spec.claims:
            rows = claim.broken_rows(self)
            if rows is not None:
                broken.append((claim, rows))
        return broken

    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe summary used by artifacts, ``diff`` and the tests."""
        return {
            "id": self.spec.id,
            "name": self.spec.name,
            "title": self.spec.title,
            "paper_ref": self.spec.paper_ref,
            "quick": self.quick,
            "deterministic": self.spec.deterministic,
            "tasks_total": self.tasks_total,
            "wall_seconds": round(self.wall_seconds, 4),
            "grid_digest": self.grid_digest,
            "sections": {
                name: {
                    "columns": list(self.spec.columns.get(name, ())),
                    "rows": rows,
                }
                for name, rows in self.sections.items()
            },
        }


def run_experiments(
    specs: Sequence[ExperimentSpec],
    quick: bool = False,
    filters: Optional[Mapping[str, str]] = None,
) -> List[ExperimentResult]:
    """Run several experiments' grids; one :class:`ExperimentResult` per
    spec, in the order given."""
    results = []
    for spec in specs:
        start = time.perf_counter()
        sections: Dict[str, List[List[Any]]] = {name: [] for name in spec.columns}
        digests: List[str] = []
        tasks = expand_tasks(spec, quick=quick, filters=filters)
        for task in tasks:
            try:
                outcome = spec.driver(dict(task.params), task.seed)
            except Exception as error:
                raise ExperimentError(
                    f"{spec.id} task {task.index} {dict(task.params)} failed: "
                    f"{error!r}"
                ) from error
            for section, row in outcome.rows:
                sections.setdefault(section, []).append(row)
            digests.append(outcome.digest)
        results.append(
            ExperimentResult(
                spec=spec,
                quick=quick,
                tasks_total=len(tasks),
                wall_seconds=time.perf_counter() - start,
                sections=sections,
                task_digests=digests,
            )
        )
    return results


def run_experiment(
    spec_or_id,
    quick: bool = False,
    filters: Optional[Mapping[str, str]] = None,
) -> ExperimentResult:
    """Run a single experiment's grid (see :func:`run_experiments`)."""
    spec = (
        spec_or_id
        if isinstance(spec_or_id, ExperimentSpec)
        else get_experiment(spec_or_id)
    )
    return run_experiments([spec], quick=quick, filters=filters)[0]
