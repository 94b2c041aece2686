"""End-to-end benchmark driver: one workload, one process, one thread.

    python3 benchmarks/e2e/run.py --workload smr_steady --seed 1
    python3 benchmarks/e2e/run.py --all --seed 1 --traced --out DIR

Run shape (same for every workload; see README.md):

* ``setup_s`` — cold child processes (``--probe``) each import the
  program, generate the inputs and run one pass; the parent times them
  from spawn to exit and reports the median;
* one **instrumented warm-up pass** collects the simulated statistics
  and layer counters (``simstats.py``);
* **timed passes** for ``--seconds`` (at least ``MIN_TIMED_PASSES``),
  carrying nothing but a stopwatch per entry-point call; ``ops_per_s``
  is ops over the undisturbed pass time (see ``timed_passes``);
* with ``--trace 1``, one reference pass and one **traced pass** under
  ``cProfile`` instead, which yields the per-layer ledger
  (``ledger.py``).

Every pass must reproduce the warm-up's trace digests, every output
check must hold, and the metric names printed must be exactly the ones
``BENCHMARK.json`` declares; otherwise the exit code is non-zero.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"
DECLARATION = REPO_ROOT / "BENCHMARK.json"
DEFAULT_OUT = REPO_ROOT / "bench-out" / "e2e"

MIN_TIMED_PASSES = 6
SETUP_PROBES = 3


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload")
    which.add_argument(
        "--all", action="store_true",
        help="every declared workload, one fresh subprocess each, in turn",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="how long the timed passes measure (default: run_seconds "
             "of BENCHMARK.json)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--traced", dest="trace", action="store_const", const=1,
        help="same as --trace 1 (with --all: the traced runs follow the "
             "timed ones)",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument(
        "--quick", action="store_true",
        help="1/20 sizes, one timed pass, one set-up probe (smoke test)",
    )
    parser.add_argument(
        "--backend", choices=("pure", "accel"), default="pure",
        help="accel is off-contract: contract runs stay pure so commits "
             "compare on any machine",
    )
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def select_backend(backend: str) -> None:
    """Pin the simulation-core backend; must precede ``import repro``."""
    os.environ["REPRO_ACCEL"] = "1" if backend == "accel" else "0"
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        import repro._core as core
    except ImportError as error:
        raise SystemExit(f"e2e: --backend {backend}: {error}")
    if core.BACKEND != backend:
        raise SystemExit(
            f"e2e: asked for backend {backend!r}, got {core.BACKEND!r}"
        )


# ----------------------------------------------------------------------
# Set-up probes and --all: child processes
# ----------------------------------------------------------------------


def _child_command(args: argparse.Namespace, workload: str) -> List[str]:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--backend", args.backend,
    ]
    if args.quick:
        command.append("--quick")
    return command


def measure_setup(args: argparse.Namespace) -> List[float]:
    """Wall seconds of cold processes: spawn -> import -> inputs ->
    one checked pass -> exit."""
    samples = []
    for _ in range(1 if args.quick else SETUP_PROBES):
        started = time.perf_counter()
        done = subprocess.run(
            _child_command(args, args.workload) + ["--probe"],
            stdout=subprocess.DEVNULL,
        )
        samples.append(time.perf_counter() - started)
        if done.returncode != 0:
            raise SystemExit(
                f"e2e: set-up probe failed with exit code {done.returncode}"
            )
    return samples


def run_probe(args: argparse.Namespace) -> int:
    from workloads import execute_pass, judge_pass, make_inputs

    inputs = make_inputs(args.workload, args.seed, args.quick, REPO_ROOT)
    outcome = judge_pass(inputs, *execute_pass(inputs))
    for problem in outcome.problems:
        print(f"e2e probe: {problem}", file=sys.stderr)
    return 1 if outcome.failed else 0


def run_all(args: argparse.Namespace, declared: Dict[str, Any]) -> int:
    status = 0
    for trace in range(args.trace + 1):
        for workload in (w["name"] for w in declared["workloads"]):
            command = _child_command(args, workload) + [
                "--trace", str(trace), "--out", str(args.out),
            ]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            status |= subprocess.run(command).returncode
    return 1 if status else 0


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------


class Tally:
    """Attempted/failed ops and reasons over every pass of the run."""

    def __init__(self, reference: Tuple[str, ...]) -> None:
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def add(self, label: str, outcome: Any) -> None:
        self.attempted += outcome.attempted
        failed = outcome.failed
        if outcome.fingerprint != self.reference:
            # A pass that executed differently is wrong as a whole.
            failed = outcome.attempted
            self.problems.append(
                f"{label}: trace digests differ from the warm-up pass"
            )
        self.failed += failed
        self.problems.extend(f"{label}: {p}" for p in outcome.problems)


def timed_passes(
    inputs: Any, seconds: float, minimum: int, tally: Tally
) -> Tuple[List[float], float]:
    """Repeat the pass for ``seconds`` (at least ``minimum`` times).

    Returns every pass's wall seconds and the *undisturbed* pass time:
    the sum, over the entry-point calls of a pass, of each call's
    fastest wall across the passes, plus the fastest remainder (the
    campaign's own generation/corpus work between calls).  Every pass
    executes identically (the digests are checked), and interference on
    a shared host only ever slows a call down, so per-call minima are the
    steadiest estimate of what the simulator costs; with one call per
    pass (the SMR workloads) it is simply the fastest pass.
    """
    from repro.fuzz.campaign import run_campaign
    from repro.scenarios.runner import run_scenario
    from workloads import execute_pass, judge_pass

    calls: List[float] = []

    def run(spec: Any) -> Any:
        started = time.perf_counter()
        result = run_scenario(spec)
        calls.append(time.perf_counter() - started)
        return result

    def campaign(config: Any) -> Any:
        return run_campaign(config, run=run)

    walls: List[float] = []
    fastest_calls: List[float] = []
    fastest_rest = float("inf")
    began = time.perf_counter()
    while len(walls) < minimum or time.perf_counter() - began < seconds:
        calls.clear()
        gc.collect()
        started = time.perf_counter()
        produced = execute_pass(inputs, run, campaign)
        wall = time.perf_counter() - started
        walls.append(wall)
        fastest_rest = min(fastest_rest, wall - sum(calls))
        fastest_calls = (
            [min(pair) for pair in zip(fastest_calls, calls)]
            if fastest_calls else list(calls)
        )
        tally.add(f"timed pass {len(walls)}", judge_pass(inputs, *produced))
    return walls, sum(fastest_calls) + fastest_rest


class SpanLog:
    """In-memory spans of the traced pass (written out at exit)."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._open: List[int] = []
        self._origin = time.perf_counter()

    def call(self, name: str, function: Any, *call_args: Any) -> Any:
        span = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start": time.perf_counter() - self._origin,
        }
        self.spans.append(span)
        self._open.append(span["id"])
        try:
            return function(*call_args)
        finally:
            self._open.pop()
            span["end"] = time.perf_counter() - self._origin


def traced_pass(inputs: Any, tally: Tally) -> Tuple[Any, SpanLog, float, int]:
    """One pass under cProfile, one span per entry-point call.

    Returns the profile, the spans, the pass's wall seconds and the
    messages sent over all its executions."""
    from repro.fuzz.campaign import run_campaign
    from repro.scenarios.runner import run_scenario
    from workloads import execute_pass, judge_pass

    spans = SpanLog()
    sends = 0

    def run(spec: Any) -> Any:
        nonlocal sends
        result = spans.call(f"run_scenario {spec.name}", run_scenario, spec)
        sends += result.messages_sent
        return result

    def campaign(config: Any) -> Any:
        return spans.call(
            "run_campaign", lambda: run_campaign(config, run=run)
        )

    profile = cProfile.Profile()
    gc.collect()
    started = time.perf_counter()
    produced = spans.call(
        f"pass {inputs.workload}",
        profile.runcall, execute_pass, inputs, run, campaign,
    )
    wall = time.perf_counter() - started
    tally.add("traced pass", judge_pass(inputs, *produced))
    return pstats.Stats(profile).stats, spans, wall, sends


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------


def _quartiles(samples: Sequence[float]) -> Tuple[float, float]:
    if len(samples) < 2:
        return samples[0], samples[0]
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return q1, q3


def _host_metric(
    value: float, samples: Sequence[float], note: str
) -> Dict[str, Any]:
    q1, q3 = _quartiles(samples)
    return {
        "value": value, "kind": "host",
        "samples": list(samples), "n": len(samples),
        "median": statistics.median(samples), "q1": q1, "q3": q3,
        "note": note,
    }


def end_to_end_metrics(
    inputs: Any,
    setup_samples: Sequence[float],
    walls: Sequence[float],
    undisturbed: float,
    sim: Dict[str, float],
    latency_samples: int,
) -> Dict[str, Dict[str, Any]]:
    ops = inputs.ops_per_pass
    computed = {
        "setup_s": _host_metric(
            statistics.median(setup_samples), setup_samples,
            "median cold process: spawn, import, inputs, one checked pass, exit",
        ),
        "ops_per_s": _host_metric(
            ops / undisturbed, [ops / wall for wall in walls],
            f"{ops} {inputs.op}s / undisturbed pass time {undisturbed:.4f} s",
        ),
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "kind": "host", "note": "ru_maxrss of this process",
        },
    }
    for name, value in sim.items():
        note = (
            f"{latency_samples} latency samples"
            if name.startswith("sim_latency") else ""
        )
        computed[name] = {"value": value, "kind": "sim", "note": note}
    return computed


def per_layer_metrics(
    inputs: Any, tally: Tally, counters: Dict[str, float], reference_wall: float
) -> Tuple[Dict[str, Dict[str, Any]], Dict[str, Any]]:
    """Run the traced pass; the ledger's metrics and the trace file's
    extra sections."""
    from ledger import OTHER, OTHER_LIMIT, Ledger

    stats, spans, traced_wall, sends = traced_pass(inputs, tally)
    ledger = Ledger(stats, PACKAGE_ROOT)
    layer = ledger.metrics(inputs.ops_per_pass, sends)
    layer.update(counters)
    layer["trace.overhead_ratio"] = traced_wall / reference_wall
    for entry in ledger.unresolved:
        print(f"e2e: stop-predicate entry gone: {entry}", file=sys.stderr)
    if ledger.share(OTHER) > OTHER_LIMIT:
        tally.failed = max(tally.failed, 1)
        tally.problems.append(
            f"ledger: other.self_share {ledger.share(OTHER):.4f} > "
            f"{OTHER_LIMIT} — map the new code to a layer"
        )
    sections = {
        "traced_wall_s": traced_wall,
        "reference_wall_s": reference_wall,
        "layers": ledger.table(),
        "spans": spans.spans,
    }
    return {name: {"value": value} for name, value in layer.items()}, sections


def run_workload(args: argparse.Namespace, declared: Dict[str, Any]) -> int:
    from simstats import instrumented_pass, layer_counters, sim_metrics
    from workloads import judge_pass, make_inputs

    traced = bool(args.trace)
    setup_samples = [] if traced else measure_setup(args)
    inputs = make_inputs(args.workload, args.seed, args.quick, REPO_ROOT)

    warm = instrumented_pass(inputs)
    warm_outcome = judge_pass(inputs, warm.results, warm.report)
    tally = Tally(warm_outcome.fingerprint)
    tally.add("warm-up pass", warm_outcome)
    # scenario_fuzz: the simulated metrics cover the pinned canonical
    # scenarios only, so they move only when goldens are regenerated.
    sim, latency_samples = sim_metrics(warm.facts[: len(inputs.items)])
    counters = layer_counters(warm.facts, warm.report)
    del warm  # its results must not weigh on the timed passes' memory

    if args.quick or traced:
        seconds, minimum = 0.0, 1  # traced: one reference pass
    else:
        seconds, minimum = args.seconds, MIN_TIMED_PASSES
        if seconds is None:
            seconds = float(declared["run_seconds"])
    walls, undisturbed = timed_passes(inputs, seconds, minimum, tally)

    sections: Dict[str, Any] = {}
    if traced:
        declared_metrics = declared["per_layer"]
        computed, sections = per_layer_metrics(
            inputs, tally, counters, statistics.median(walls)
        )
    else:
        declared_metrics = declared["end_to_end"]
        computed = end_to_end_metrics(
            inputs, setup_samples, walls, undisturbed, sim, latency_samples
        )
    units = {m["name"]: m["unit"] for m in declared_metrics}
    if set(units) != set(computed):
        drift = sorted(set(units) ^ set(computed))
        raise SystemExit(f"e2e: metric names drifted from BENCHMARK.json: {drift}")
    for name, metric in computed.items():
        metric["unit"] = units[name]

    record = {
        "schema": 1,
        "workload": args.workload,
        "seed": args.seed,
        "quick": args.quick,
        "traced": traced,
        "backend": args.backend,
        "python": platform.python_version(),
        "machine": f"{platform.machine()} x{os.cpu_count()}",
        "op": inputs.op,
        "ops_per_pass": inputs.ops_per_pass,
        "sizes": inputs.sizes,
        "timed_passes": len(walls),
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_op_share": tally.failed / tally.attempted,
        "problems": tally.problems,
        "fingerprint": list(tally.reference),
        "metrics": computed,
        **sections,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    suffix = ".trace.json" if traced else ".json"
    (args.out / f"{args.workload}{suffix}").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    report(record, [m["name"] for m in declared_metrics])
    return 0 if record["correct"] else 1


def report(record: Dict[str, Any], order: Sequence[str]) -> None:
    print(
        f"workload {record['workload']}  seed {record['seed']}  "
        f"backend {record['backend']}  python {record['python']}  "
        f"{record['machine']}"
    )
    print(
        f"  {record['ops_per_pass']} {record['op']}s per pass, "
        f"sizes {record['sizes']}, {record['timed_passes']} timed passes"
        + ("  [quick]" if record["quick"] else "")
    )
    for name in order:
        metric = record["metrics"][name]
        detail = metric.get("kind", "layer")
        if "q1" in metric:
            detail += (
                f"  n {metric['n']}, median {metric['median']:.6g}, "
                f"quartiles {metric['q1']:.6g} .. {metric['q3']:.6g}"
            )
        if metric.get("note"):
            detail += f"  ({metric['note']})"
        print(f"  {name:<42} {metric['value']:>14.6g} {metric['unit']:<9} {detail}")
    print(
        f"  failed_op_share = {record['failed_op_share']:.6g} "
        f"({record['failed']} of {record['attempted']} ops over all passes)"
    )
    for problem in record["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {
                "value": record["metrics"][name]["value"],
                "unit": record["metrics"][name]["unit"],
            }
            for name in order
        },
    }))


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not PACKAGE_ROOT.is_dir():
        print(f"e2e: no program to measure: {PACKAGE_ROOT} is missing",
              file=sys.stderr)
        return 2
    declared = json.loads(DECLARATION.read_text(encoding="utf-8"))
    if args.all:
        return run_all(args, declared)
    names = [w["name"] for w in declared["workloads"]]
    if args.workload not in names:
        print(f"e2e: unknown workload {args.workload!r}; declared: {names}",
              file=sys.stderr)
        return 2
    select_backend(args.backend)
    if args.probe:
        return run_probe(args)
    return run_workload(args, declared)


if __name__ == "__main__":
    sys.exit(main())
