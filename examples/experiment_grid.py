"""Define a custom out-of-tree experiment, with a claim, and run it.

The registry's canonical entries are not special: any
:class:`repro.experiments.ExperimentSpec` — yours included — runs
through the same runner, digests, claims and formatting.  This example
measures fbft common-case latency as a function of network delay
*variance* (something no canonical experiment covers): each grid point
runs a batch of seeded random-delay clusters, with the seeds derived
deterministically from the grid point itself, so a re-run reproduces
the rows and the grid digest exactly.

Run:

    PYTHONPATH=src python examples/experiment_grid.py
"""

from repro.analysis import build_protocol, format_table, repeat_latency
from repro.experiments import (
    Claim,
    ExperimentSpec,
    TaskResult,
    grid,
    run_experiment,
)
from repro.sim.network import RandomDelay


def latency_vs_variance(params, seed):
    """One grid point: mean latency at one (f, delay spread) setting."""
    f, spread, runs = params["f"], params["spread"], params["runs"]
    lo, hi = 1.0 - spread, 1.0 + spread
    stats = repeat_latency(
        lambda: build_protocol("fbft", f=f),
        runs=runs,
        # Mix the framework-derived seed in: distinct grid points sample
        # distinct delay sequences, yet every re-run sees the identical
        # ones.
        delay_model_factory=lambda run: RandomDelay(lo, hi, seed=seed + run),
    )
    return TaskResult(
        rows=[
            (
                "main",
                [
                    f, spread, runs,
                    round(stats.mean, 3), round(stats.p95, 3),
                    round(stats.maximum, 3),
                ],
            )
        ]
    )


def latency_grows_with_spread(result):
    """The paper's fast path is two message delays; with delays in
    [1-s, 1+s] the decision tracks the *slowest* of the two hops, so the
    mean grows with the spread."""
    rows = result.rows("main")
    for f in sorted({row[0] for row in rows}):
        means = [row[3] for row in rows if row[0] == f]
        if means != sorted(means):
            return False
    return True


SPEC = ExperimentSpec(
    id="X1",
    name="latency-vs-variance",
    title="fbft common-case latency vs network delay variance",
    paper_ref="custom (out-of-tree example)",
    driver=latency_vs_variance,
    grid=grid(f=(1, 2), spread=(0.0, 0.25, 0.5, 0.9), runs=(12,)),
    quick_grid=grid(f=(1,), spread=(0.0, 0.5), runs=(6,)),
    columns={"main": ("f", "spread", "runs", "mean", "p95", "max")},
    claims=(
        Claim(
            "mean latency grows with the delay spread at every f",
            "main",
            latency_grows_with_spread,
        ),
    ),
)


def main() -> int:
    result = run_experiment(SPEC)
    print(f"{SPEC.id} ({SPEC.name}): {SPEC.title}\n")
    print(format_table(list(SPEC.columns["main"]), result.rows("main")))
    print(
        f"\n{result.tasks_total} grid points, "
        f"grid digest {result.grid_digest[:16]}"
    )

    broken = result.broken_claims()
    for claim, rows in broken:
        print(f"CLAIM BROKEN: {claim.name}: {rows}")
    print(f"claims: {len(SPEC.claims) - len(broken)} of {len(SPEC.claims)} hold")
    return 1 if broken else 0


if __name__ == "__main__":
    raise SystemExit(main())
