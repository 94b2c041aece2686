"""The experiment framework: registry, runner, claims, artifacts, CLI.

Every experiment (the ids of EXPERIMENTS.md) is a declarative
:class:`ExperimentSpec` — a parameter grid, a driver evaluating one
grid point, and the claims its rows must bear out — registered under a
stable id.  The runner evaluates a grid point by point with
deterministic per-task seeds, chains per-task digests into a grid
digest, checks the claims and writes versioned ``BENCH_*.json``
artifacts.

Quick tour::

    from repro.experiments import get_experiment, run_experiment

    result = run_experiment("E13", quick=True)
    result.rows("scale")          # aggregated rows, grid order
    result.grid_digest            # equal across runs of the same code
    result.broken_claims()        # [] when every claim holds

    python -m repro.experiments run E13 E15 --json out/

Adding an experiment is a ~30-line registry entry in
:mod:`repro.experiments.catalog` (or out of tree — see
``examples/experiment_grid.py``).
"""

from __future__ import annotations

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
    Claim,
    ExperimentSpec,
    TaskResult,
    canonical_params,
    derive_seed,
    grid,
    points,
)
from .store import write_experiment_json
from .cli import main

__all__ = [
    "Claim",
    "ExperimentError",
    "ExperimentResult",
    "ExperimentSpec",
    "Task",
    "TaskResult",
    "all_experiments",
    "canonical_params",
    "derive_seed",
    "expand_tasks",
    "get_experiment",
    "grid",
    "main",
    "points",
    "register",
    "run_experiment",
    "run_experiments",
    "write_experiment_json",
]
