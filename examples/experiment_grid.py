"""Define a custom out-of-tree experiment and shard it over workers.

The registry's canonical entries are not special: any
:class:`repro.experiments.ExperimentSpec` — yours included — runs
through the same parallel runner, digests, caching and formatting.
This example measures fbft common-case latency as a function of network
delay *variance* (something no canonical experiment covers): each grid
point runs a batch of seeded random-delay clusters, with the seeds
derived deterministically from the grid point itself, so the sharded run
is byte-identical to the serial one.

Run:

    PYTHONPATH=src python examples/experiment_grid.py
"""

from repro.analysis import build_protocol, format_table, repeat_latency
from repro.experiments import ExperimentSpec, TaskResult, grid, run_experiment
from repro.sim.network import RandomDelay


def latency_vs_variance(params, seed):
    """One grid point: mean latency at one (f, delay spread) setting."""
    f, spread, runs = params["f"], params["spread"], params["runs"]
    lo, hi = 1.0 - spread, 1.0 + spread
    stats = repeat_latency(
        lambda: build_protocol("fbft", f=f),
        runs=runs,
        # Mix the framework-derived seed in: distinct grid points sample
        # distinct delay sequences, yet every re-run (serial, parallel,
        # cached) sees the identical ones.
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


SPEC = ExperimentSpec(
    id="X1",
    name="latency-vs-variance",
    title="fbft common-case latency vs network delay variance",
    paper_ref="custom (out-of-tree example)",
    driver=latency_vs_variance,
    grid=grid(f=(1, 2), spread=(0.0, 0.25, 0.5, 0.9), runs=(12,)),
    quick_grid=grid(f=(1,), spread=(0.0, 0.5), runs=(6,)),
    columns={"main": ("f", "spread", "runs", "mean", "p95", "max")},
)


def main() -> int:
    parallel = run_experiment(SPEC, parallel=2)
    print(f"{SPEC.id} ({SPEC.name}): {SPEC.title}\n")
    print(format_table(list(SPEC.columns["main"]), parallel.rows("main")))
    print(
        f"\n{parallel.tasks_total} grid points over 2 workers, "
        f"grid digest {parallel.grid_digest[:16]}"
    )

    serial = run_experiment(SPEC, parallel=1)
    assert serial.grid_digest == parallel.grid_digest, "sharding changed rows!"
    print("serial re-run reproduced the digest — sharding is transparent")

    # The paper's fast path is two message delays; with delays in
    # [1-s, 1+s] the decision tracks the *slowest* of the two hops, so
    # the mean grows with the spread while staying under 2 * (1 + s).
    rows = parallel.rows("main")
    for f in (1, 2):
        means = [row[3] for row in rows if row[0] == f]
        assert means == sorted(means), "latency should grow with variance"
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
