"""The perf contract: the end-to-end benchmark's exact counters, pinned.

    python benchmarks/perf_counters.py --check tests/golden/e2e_counters.json
    python benchmarks/perf_counters.py --update tests/golden/e2e_counters.json

What a run costs is gated as counts, not seconds.  Per ``BENCHMARK.json``
workload the golden file holds every count ``benchmarks/e2e/run.py
--workload W --seed 1 --quick --trace 0|1`` prints, plus the Python
calls of one warmed-up run with the flight recorder off and on (the
storm, three scenarios).  All repeat exactly, so ``--check`` fails on any
``!=`` the way a scenario digest does (``MISMATCH vs golden``,
``UNRECORDED``, ``MISSING from the run``) and a deliberate change is
``--update`` plus a reviewable diff; ``--update`` measures twice and
writes nothing if the readings differ (``NONREPEATING``) or a workload
fails its own output checks.
"""

import argparse
import cProfile
import json
import platform
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import ExitStack
from functools import partial
from itertools import chain
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))
RUN = REPO_ROOT / "benchmarks" / "e2e" / "run.py"
#: With every ``<layer>.self_share``, all run.py prints that is no count.
TIMED = {"setup_s", "ops_per_s", "peak_rss_mb",
         "sim.digest.inclusive_share", "trace.overhead_ratio"}
#: Frames and builtins the interpreter chooses (3.12 inlines comprehensions):
#: compared only under the golden's ``major.minor``, never reported equal.
INTERPRETER_BOUND = (".calls_per_op", ".total_calls")
#: Fast path, view changes, WAL + checkpoints: all the recorder's paths.
RECORDER_SCENARIOS = ("fast-path-clean", "slow-leader", "durable-recovery")
PYTHON = "%s %d.%d" % (platform.python_implementation(), *sys.version_info[:2])
NOT_COMPARED = "not compared (interpreter-bound)"
PASSING = ("ok", NOT_COMPARED)


def recorder_counters():
    """Python calls of one warmed-up run, flight recorder off and on."""
    from repro.experiments import catalog
    from repro.obs.recorder import FlightRecorder
    from repro.scenarios.library import get_scenario
    from repro.scenarios.runner import run_scenario

    storm = partial(catalog.broadcast_storm, *catalog.E21_QUICK_STORM)
    pairs = {"broadcast_storm": (
        lambda: storm() > 0, lambda: storm(catalog.recorder_sim_net) > 0)}
    for name in RECORDER_SCENARIOS:
        spec = get_scenario(name)
        pairs[name] = (
            lambda spec=spec: run_scenario(spec).trace_digest,
            lambda spec=spec: run_scenario(
                spec, recorder=FlightRecorder()).trace_digest,
        )
    counters = {}
    for name, pair in pairs.items():
        did = set()
        for variant, run in zip(("off", "on"), pair):
            run()  # warm-up: lazy imports and per-type memos are not its cost
            profile = cProfile.Profile()
            did.add(profile.runcall(run))
            # Not pstats' total_calls: pstats keys by (file, line, name),
            # which every namedtuple __new__ and dataclass __init__ shares,
            # and keeps whichever of them the allocator ordered last.
            counters[f"{name}.{variant}.total_calls"] = sum(
                entry.callcount for entry in profile.getstats())
        assert len(did) == 1, f"the recorder changed what {name} did"
    return counters


def measure():
    """One reading, ``({group: {name: value}}, problems)``: the four
    ``--trace 0`` run.py children at once, the recorder pairs meanwhile
    (counts ignore load), then the four ``--trace 1`` children one at a
    time.  A traced child checks a wall-clock share of its own profile
    (``OTHER_LIMIT`` in ``benchmarks/e2e/ledger.py``), which load from
    its siblings distorts."""
    declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in declared["workloads"]]
    with tempfile.TemporaryDirectory() as out, ExitStack() as reaped:
        def start(workload, trace):
            return workload, trace, reaped.enter_context(subprocess.Popen(
                [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
                 "--quick", "--trace", str(trace), "--out", out],
                stdout=subprocess.PIPE, text=True))

        untraced = [start(workload, 0) for workload in workloads]
        counters, problems = {"recorder": recorder_counters()}, []
        # Lazy: each traced child starts once the one before it is read.
        traced = (start(workload, 1) for workload in workloads)
        for workload, trace, child in chain(untraced, traced):
            lines = child.communicate()[0].strip().splitlines() or [""]
            printed = json.loads(lines[-1]) if lines[-1].startswith("{") else {}
            if child.returncode != 0 or not printed.get("correct"):
                problems.append(f"{workload} --trace {trace}: run.py exit "
                                f"{child.returncode}, its own checks FAILED")
                # Which ones: run.py prints one "CHECK FAILED:" line each.
                problems += [f"{workload} --trace {trace}: {line.strip()}"
                             for line in lines if "CHECK FAILED:" in line]
            counters.setdefault(workload, {}).update(
                (name, metric["value"])
                for name, metric in printed.get("metrics", {}).items()
                if name not in TIMED and not name.endswith(".self_share"))
    return counters, problems


def compare(expected, observed, difference, same_interpreter=True):
    """Every counter name on either side: how many got which status, and
    one line per failing name.  ``difference`` is what ``!=`` is called."""
    tally, failures = Counter(), []
    for group in sorted(set(expected) | set(observed)):
        want, got = expected.get(group, {}), observed.get(group, {})
        for name in sorted(set(want) | set(got)):
            if name not in got:
                status = "MISSING from the run"
            elif name not in want:
                status = "UNRECORDED"
            elif not same_interpreter and name.endswith(INTERPRETER_BOUND):
                status = NOT_COMPARED
            else:
                status = "ok" if want[name] == got[name] else difference
            tally[status] += 1
            if status not in PASSING:
                failures.append(f"{group:<20} {name:<42} {want.get(name, '-')}"
                                f" -> {got.get(name, '-')}  {status}")
    return tally, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    verb = parser.add_mutually_exclusive_group(required=True)
    verb.add_argument("--check", metavar="FILE")
    verb.add_argument("--update", metavar="FILE")
    args = parser.parse_args(argv)

    golden = args.check and json.loads(Path(args.check).read_text(encoding="utf-8"))
    counters, problems = measure()
    if golden:
        print(f"golden -> observed; recorded on {golden['python']}, this is {PYTHON}")
        tally, failures = compare(golden["counters"], counters, "MISMATCH vs golden",
                                  golden["python"] == PYTHON)
    else:
        again, more = measure()
        tally, failures = compare(counters, again, "NONREPEATING")
        problems += more
    problems += failures
    summary = ", ".join(f"{n} {status}" for status, n in sorted(tally.items()))
    print(*problems, summary, sep="\n")
    if args.update and not problems:
        record = {"python": PYTHON, "counters": counters}
        Path(args.update).write_text(
            json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {sum(tally.values())} counters to {args.update}")
    elif args.update:
        print("refusing to write golden counters: fix the failures above first "
              "(a nonrepeating counter would pin an arbitrary value)", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
