"""The experiment framework: registry, sharded runner, result store, CLI.

Every experiment (the ids of EXPERIMENTS.md) is a declarative
:class:`ExperimentSpec` — a parameter grid plus a driver evaluating one
grid point — registered under a stable id.  The runner shards grids over
a ``multiprocessing`` pool with deterministic per-task seeds; results
are byte-identical to serial execution (grid digests enforce it), cached
by ``(experiment, params, code version)`` content hash, and written as
versioned ``BENCH_*.json`` artifacts.

Quick tour::

    from repro.experiments import get_experiment, run_experiment

    result = run_experiment("E13", parallel=4, quick=True)
    result.rows("scale")          # aggregated rows, grid order
    result.grid_digest            # equal for serial and parallel runs

    python -m repro.experiments run E13 E15 --parallel 8 --json out/

Adding an experiment is a ~30-line registry entry in
:mod:`repro.experiments.catalog` (or out of tree — see
``examples/experiment_grid.py``); the ``benchmarks/bench_e*.py`` scripts
are thin pytest wrappers over these entries via :func:`run_sections`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .registry import all_experiments, get_experiment, register
from .runner import (
    ExperimentError,
    ExperimentResult,
    Task,
    expand_tasks,
    run_experiment,
    run_experiments,
)
from .spec import (
    ExperimentSpec,
    TaskResult,
    canonical_params,
    derive_seed,
    grid,
    points,
)
from .store import ResultStore, code_version, write_experiment_json
from .cli import main

__all__ = [
    "ExperimentError",
    "ExperimentResult",
    "ExperimentSpec",
    "ResultStore",
    "Task",
    "TaskResult",
    "all_experiments",
    "canonical_params",
    "code_version",
    "derive_seed",
    "expand_tasks",
    "get_experiment",
    "grid",
    "main",
    "points",
    "register",
    "run_experiment",
    "run_experiments",
    "run_sections",
    "write_experiment_json",
]


def run_sections(
    id_or_name: str,
    quick: bool = False,
    parallel: int = 1,
    filters: Optional[Dict[str, str]] = None,
) -> Dict[str, List[List[object]]]:
    """Run one experiment and return its aggregated rows per section.

    The benchmark wrappers' entry point: no cache (measurements stay
    fresh), serial by default, rows in grid order.
    """
    result = run_experiment(
        id_or_name, parallel=parallel, quick=quick, filters=filters
    )
    return result.sections
