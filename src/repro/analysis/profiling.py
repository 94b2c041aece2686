"""Profiling the simulation core: events/sec, per-phase wall clock, cProfile.

The repository's experiments are all bounded by the discrete-event core's
per-event constant factor, so this module makes that factor *measurable
and recordable*:

* :class:`PhaseProfiler` — tag spans of work (``with profiler.phase(...)``)
  and get wall-clock seconds plus simulator events/sec per phase;
* :func:`cprofile_top` — run a callable under :mod:`cProfile` and return
  the top-N functions by internal time as structured rows (the quick "what
  is the hot path *now*" answer);
* :func:`write_bench_json` / :func:`load_bench_json` — the ``BENCH_*.json``
  trajectory format: every benchmark run appends a machine-readable record
  of what was measured on which interpreter, so the performance history of
  the repository is data, not folklore.

Wall-clock numbers are hardware-dependent by nature; everything else in
this repository is deterministic.  Keep the two apart: determinism is
asserted by trace digests (:mod:`repro.sim.digest`), speed is *recorded*
here.  Whether a change made the repository faster is answered by running
the end-to-end benchmark (``BENCHMARK.json`` / ``benchmarks/e2e``) on the
parent commit and on the change, not by these micro-workloads.
"""

from __future__ import annotations

import cProfile
import io
import json
import platform
import pstats
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..sim.events import Simulator
from ..sim.network import Network, SynchronousDelay

__all__ = [
    "PhaseProfile",
    "PhaseProfiler",
    "ProfileRow",
    "cprofile_top",
    "format_cprofile_rows",
    "write_bench_json",
    "load_bench_json",
    "BENCH_SCHEMA_VERSION",
    "SUPPORTED_BENCH_SCHEMAS",
    "E16_QUICK_PARAMS",
    "E16_FULL_PARAMS",
    "E21_QUICK_SIZES",
    "E21_FULL_SIZES",
    "E21_SCENARIOS",
    "recorder_sim_net",
    "scenario_obs_rate",
    "event_churn",
    "timer_churn",
    "broadcast_storm",
    "simcore_snapshot",
]

#: Bump when the BENCH_*.json layout changes incompatibly.
BENCH_SCHEMA_VERSION = 1

#: Every layout :func:`load_bench_json` can read.  Version 2 adds the
#: experiment-framework block (see :mod:`repro.experiments.store`) on top
#: of the version-1 envelope; readers of v1 fields work unchanged.
SUPPORTED_BENCH_SCHEMAS = (1, 2)


@dataclass(frozen=True)
class PhaseProfile:
    """Wall-clock measurement of one tagged span of work."""

    name: str
    wall_seconds: float
    #: Simulator events executed during the span (0 if no sim was given).
    events: int

    @property
    def events_per_sec(self) -> float:
        if self.wall_seconds <= 0.0 or self.events == 0:
            return 0.0
        return self.events / self.wall_seconds


@dataclass
class PhaseProfiler:
    """Collects :class:`PhaseProfile` spans.

    >>> profiler = PhaseProfiler()
    >>> sim = Simulator()
    >>> _ = sim.schedule(1.0, lambda: None)
    >>> with profiler.phase("drain", sim):
    ...     sim.run()
    >>> profiler.phases[0].events
    1
    """

    phases: List[PhaseProfile] = field(default_factory=list)

    @contextmanager
    def phase(self, name: str, sim: Optional[Simulator] = None) -> Iterator[None]:
        events_before = sim.events_processed if sim is not None else 0
        start = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - start
            events = (
                sim.events_processed - events_before if sim is not None else 0
            )
            self.phases.append(PhaseProfile(name, wall, events))

    def total_seconds(self) -> float:
        return sum(p.wall_seconds for p in self.phases)

    def to_rows(self) -> List[List[Any]]:
        """Table rows: phase, wall seconds, events, events/sec."""
        return [
            [
                p.name,
                round(p.wall_seconds, 4),
                p.events,
                round(p.events_per_sec) if p.events else "-",
            ]
            for p in self.phases
        ]

    def to_dict(self) -> Dict[str, Any]:
        return {
            p.name: {
                "wall_seconds": p.wall_seconds,
                "events": p.events,
                "events_per_sec": p.events_per_sec,
            }
            for p in self.phases
        }


@dataclass(frozen=True)
class ProfileRow:
    """One function from a cProfile run, by internal time."""

    function: str
    ncalls: int
    tottime: float
    cumtime: float


def cprofile_top(
    fn: Callable[[], Any], top: int = 10
) -> Tuple[Any, List[ProfileRow]]:
    """Run ``fn`` under cProfile; return ``(fn(), top-N rows by tottime)``."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler, stream=io.StringIO())
    stats.sort_stats("tottime")
    rows: List[ProfileRow] = []
    for func in stats.fcn_list[:top]:  # type: ignore[attr-defined]
        cc, nc, tt, ct, _callers = stats.stats[func]  # type: ignore[attr-defined]
        filename, lineno, name = func
        if filename == "~":
            where = name  # builtins render as "~:0(<method ...>)"
        else:
            short = filename.rsplit("/", 1)[-1]
            where = f"{short}:{lineno}({name})"
        rows.append(
            ProfileRow(function=where, ncalls=nc, tottime=tt, cumtime=ct)
        )
    return result, rows


def format_cprofile_rows(rows: List[ProfileRow]) -> str:
    """Render :func:`cprofile_top` rows as an aligned text table."""
    lines = [f"{'ncalls':>10}  {'tottime':>8}  {'cumtime':>8}  function"]
    for row in rows:
        lines.append(
            f"{row.ncalls:>10}  {row.tottime:>8.4f}  {row.cumtime:>8.4f}  "
            f"{row.function}"
        )
    return "\n".join(lines)


def write_bench_json(
    path: str,
    bench: str,
    results: Dict[str, Any],
    meta: Optional[Dict[str, Any]] = None,
    schema_version: int = BENCH_SCHEMA_VERSION,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Write one ``BENCH_<name>.json`` perf-trajectory record.

    The envelope is deliberately small and stable: scripts diff the
    ``results`` mapping across commits, and the metadata says what
    hardware/interpreter produced the numbers.  ``extra`` merges
    additional top-level blocks (the experiment framework's schema-2
    ``experiment`` block); ``schema_version`` must be a supported layout.
    """
    if schema_version not in SUPPORTED_BENCH_SCHEMAS:
        raise ValueError(f"unsupported BENCH json schema {schema_version!r}")
    payload: Dict[str, Any] = {
        "schema_version": schema_version,
        "bench": bench,
        "created_unix": time.time(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "results": results,
    }
    if meta:
        payload["meta"] = meta
    if extra:
        payload.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload


# ---------------------------------------------------------------------------
# Canonical micro-workloads (E16).
# ---------------------------------------------------------------------------


#: E16 workload sizes as ``(event_churn, timer_churn, storm_n, storm_rounds)``.
#: Single source of truth: the E16 registry entry and
#: :func:`simcore_snapshot` must measure the same workloads or their
#: recorded rates stop being comparable.
E16_QUICK_PARAMS = (60_000, 40_000, 12, 120)
E16_FULL_PARAMS = (250_000, 200_000, 16, 600)


def _default_sim_net():
    sim = Simulator()
    return sim, Network(sim, delay_model=SynchronousDelay(1.0))


def event_churn(n_events: int) -> float:
    """Self-rescheduling callback chain: pure event-loop overhead.

    Returns sustained events/sec.
    """
    sim = Simulator()
    count = [0]

    def tick() -> None:
        count[0] += 1
        if count[0] < n_events:
            sim.schedule(1.0, tick)

    sim.schedule(1.0, tick)
    start = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - start
    assert sim.events_processed == n_events
    return n_events / wall


def _noop() -> None:
    return None


def timer_churn(n_timers: int) -> float:
    """Arm-then-cancel storms — the per-slot SMR pacemaker pattern.

    Returns schedule+cancel operations/sec (heap compaction keeps the
    queue from bloating).
    """
    sim = Simulator()
    batch = 1000
    start = time.perf_counter()
    for _ in range(max(1, n_timers // batch)):
        handles = [sim.schedule(10.0, _noop) for _ in range(batch)]
        for handle in handles:
            handle.cancel()
    sim.run()
    wall = time.perf_counter() - start
    return n_timers / wall


def broadcast_storm(
    n: int,
    rounds: int,
    sim_net_factory: Callable[[], Any] = _default_sim_net,
) -> float:
    """n processes broadcast an n-recipient payload every round: the
    network hot path (send → schedule → deliver).  Returns events/sec."""
    sim, net = sim_net_factory()
    remaining = [rounds]

    def handler(src: int, payload: Any) -> None:
        return None

    for pid in range(n):
        net.register(pid, handler)

    def pump() -> None:
        if remaining[0] <= 0:
            return
        remaining[0] -= 1
        for src in range(n):
            net.broadcast(src, ("req", src, remaining[0]))
        sim.schedule(1.0, pump)

    sim.schedule(0.0, pump)
    start = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - start
    expected = n * n * rounds
    assert sim.events_processed >= expected, "storm did not run fully"
    return sim.events_processed / wall


# ---------------------------------------------------------------------------
# E21 workloads: observability overhead.  Each workload runs in two
# variants — recorder off and a FlightRecorder attached — and E21 reports
# the on/off ratio.  The broadcast storm measures the selective tracer's
# cost on *unwanted* payloads (the network hot path: one memoized
# ``wants`` verdict, then the fast delivery post); the scenario sweep
# measures the cost on real protocol traffic (classified events, causal
# buckets, replica hooks).
# ---------------------------------------------------------------------------


#: E21 workload sizes.  ``broadcast_storm`` is ``(n, rounds)`` (the E16
#: storm, so the off-variant numbers are comparable across BENCH files);
#: ``scenario_sweep`` is ``(repeats,)`` over :data:`E21_SCENARIOS`.
E21_QUICK_SIZES: Dict[str, Tuple[int, ...]] = {
    "broadcast_storm": (12, 200),
    "scenario_sweep": (2,),
}
E21_FULL_SIZES: Dict[str, Tuple[int, ...]] = {
    "broadcast_storm": (16, 600),
    "scenario_sweep": (6,),
}

#: Scenario names the E21 sweep executes — one fast-path run, one
#: view-change-heavy run, one durable (WAL + checkpoint) run, so the
#: recorder's classified-event and causal-bucket paths all get exercised.
E21_SCENARIOS: Tuple[str, ...] = (
    "fast-path-clean",
    "slow-leader",
    "durable-recovery",
)


def recorder_sim_net():
    """A :func:`broadcast_storm` factory with a flight recorder attached
    (the E21 ``recorder`` variant of the network hot path)."""
    from ..obs.recorder import FlightRecorder

    sim = Simulator()
    net = Network(sim, delay_model=SynchronousDelay(1.0))
    net.install_tracer(FlightRecorder())
    return sim, net


def scenario_obs_rate(repeats: int, recorder: bool = False) -> float:
    """Wall-clock scenario executions/sec over :data:`E21_SCENARIOS`,
    optionally with a fresh :class:`~repro.obs.recorder.FlightRecorder`
    attached to every run.  Every run must pass its oracles — a recorder
    that perturbed a scenario would invalidate the measurement."""
    from ..scenarios.library import get_scenario
    from ..scenarios.runner import run_scenario

    if recorder:
        from ..obs.recorder import FlightRecorder

    executed = 0
    start = time.perf_counter()
    for _ in range(max(1, repeats)):
        for name in E21_SCENARIOS:
            rec = FlightRecorder() if recorder else None
            result = run_scenario(get_scenario(name), recorder=rec)
            assert result.ok, f"E21 sweep scenario {name} failed its oracles"
            executed += 1
    wall = time.perf_counter() - start
    return executed / wall


def simcore_snapshot(quick: bool = True, repeats: int = 2) -> Dict[str, float]:
    """Events/sec of the current core on the three E16 workloads."""
    churn, timers, n, rounds = E16_QUICK_PARAMS if quick else E16_FULL_PARAMS
    workloads: Dict[str, Callable[[], float]] = {
        "event_churn": lambda: event_churn(churn),
        "timer_churn": lambda: timer_churn(timers),
        "broadcast_storm": lambda: broadcast_storm(n, rounds),
    }
    return {
        name: max(fn() for _ in range(repeats))
        for name, fn in workloads.items()
    }


def load_bench_json(path: str) -> Dict[str, Any]:
    """Read a ``BENCH_*.json`` record back (schema-checked)."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    version = payload.get("schema_version")
    if version not in SUPPORTED_BENCH_SCHEMAS:
        raise ValueError(
            f"unsupported BENCH json schema {version!r} in {path} "
            f"(expected one of {SUPPORTED_BENCH_SCHEMAS})"
        )
    return payload
