"""Reach: every function under ``src/repro`` that no entry point calls.

    python benchmarks/reach.py [--check FILE | --update FILE]

One ``cProfile.Profile`` is enabled around each entry point, run in this
process (``runpy``, its own ``sys.argv``, ``SystemExit`` caught): the
``BENCHMARK.json`` workloads at full size, every verb and documented
flag of the five CLIs (every experiment's claims at ``--quick`` among
them) and every example.  A function is reached when its
``(co_filename, co_firstlineno)`` shows up in ``profile.getstats()`` (a
decorated one starts at its first decorator).  FILE (``tests/golden/reach.json``) gives each
unreached function a one-line reason; ``--check`` fails on one without,
on a justified one that is reached, and on an entry point that exits
otherwise than listed; ``--update`` keeps the reasons and adds ``""``.
"""

import argparse
import ast
import contextlib
import cProfile
import io
import json
import os
import runpy
import sys
import tempfile
import traceback
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
RUN = REPO_ROOT / "benchmarks" / "e2e" / "run.py"


def definitions():
    """``{(file, first line): "repro/x.py::Class.name"}`` for every def
    under ``src/repro`` (nested defs are dotted under their parent)."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = child.decorator_list[0] if child.decorator_list else child
                found[(str(path), first.lineno)] = (
                    f"{path.relative_to(SRC).as_posix()}::{prefix}{child.name}")
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted((SRC / "repro").rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return found


def entries(tmp):
    """``(expected exit code, argv)`` per entry point, in order: later
    argv name files that earlier entries write under ``tmp``."""
    declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in declared["workloads"]:
        yield 0, [str(RUN), "--workload", workload["name"], "--seed", "1",
                  "--seconds", "0", "--trace", "0", "--out", f"{tmp}/e2e"]
    exp = ["-m", "repro.experiments"]
    yield 0, exp + ["list"]
    yield 0, exp + ["describe", "E13", "--grid"]
    yield 0, exp + ["run", "--all", "--quick", "--json", f"{tmp}/exp"]
    yield 0, exp + ["run", "E1", "--quick", "--filter", "f=2"]
    grids = f"{tmp}/exp/BENCH_experiments.json"
    yield 0, exp + ["diff", grids, grids]
    scen = ["-m", "repro.scenarios"]
    yield 0, scen + ["list"]
    yield 0, scen + ["run", "fast-path-clean", "durable-recovery", "--json"]
    yield 0, scen + ["run", "--all", "--metrics-out", f"{tmp}/metrics.json",
                     "--trace-out", f"{tmp}/trace.json", "--record-out", f"{tmp}/dumps"]
    yield 0, scen + ["digest", "--check", "tests/golden/scenario_digests.json"]
    yield 0, scen + ["digest", "--update", f"{tmp}/digests.json"]
    fuzz, corpus = ["-m", "repro.fuzz"], f"{tmp}/corpus.json"
    yield 0, fuzz + ["campaign", "--quiet", "--corpus-out", corpus,
                     "--json", f"{tmp}/campaign.json"]
    yield 0, fuzz + ["campaign", "--budget", "16", "--corpus-in", corpus,
                     "--max-seconds", "600", "--metrics-out",
                     f"{tmp}/fuzz-metrics.json", "--trace-out", f"{tmp}/fuzz-trace.json"]
    # The optimistic baseline's known agreement violation (ROADMAP item 1):
    # the one campaign that shrinks and dumps, and the dumps postmortem reads.
    yield 1, fuzz + ["campaign", "--protocols", "optimistic", "--budget", "400",
                     "--start", "1", "--quiet", "--record-out", f"{tmp}/violation"]
    key = json.loads(Path(corpus).read_text(encoding="utf-8"))["entries"][0]["key"]
    yield 0, fuzz + ["replay", key, "--corpus", corpus, "--record-out", f"{tmp}/replay",
                     "--metrics-out", f"{tmp}/replay-metrics.json",
                     "--trace-out", f"{tmp}/replay-trace.json"]
    yield 0, fuzz + ["corpus", "stats", "--corpus", corpus]
    yield 0, fuzz + ["corpus", "minimize", "--corpus", corpus, "--out", f"{tmp}/mini.json"]
    pm = ["-m", "repro.postmortem"]
    original = str(next(Path(tmp, "violation").glob("*-original.jsonl")))
    shrunk = original.replace("-original.jsonl", "-shrunk.jsonl")
    yield 0, pm + ["timeline", original, "--limit", "40"]
    yield 0, pm + ["slot", original, "0"]
    yield 0, pm + ["view", original, "1"]
    yield 0, pm + ["explain", original]
    yield 1, pm + ["diff", original, shrunk]
    lint = ["-m", "repro.lint"]
    yield 0, lint + ["src", "benchmarks", "examples", "--json", f"{tmp}/lint.json"]
    yield 0, lint + ["--list-rules"]
    for example in sorted((REPO_ROOT / "examples").glob("*.py")):
        yield 0, [str(example)]


def run(argv):
    """Run one entry point like ``python ARGV``; its exit code."""
    module = argv[0] == "-m"
    sys.argv, path = (argv[1:] if module else argv), sys.path[:]
    # What ``python`` puts first on the path: the cwd, or the script's dir.
    sys.path.insert(0, str(REPO_ROOT) if module else str(Path(argv[0]).parent))
    try:
        if module:
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as stop:
        return stop.code if isinstance(stop.code, int) else (0 if stop.code is None else 1)
    except Exception:  # reported with the entry's output
        traceback.print_exc()
        return 1
    finally:
        sys.path[:] = path
    return 0


def sweep():
    """``(unreached names, problems)`` over every entry point."""
    os.chdir(REPO_ROOT)  # the argv name repository paths relative to it
    sys.path.insert(0, str(SRC))
    saved_argv, problems = sys.argv, []
    profile = cProfile.Profile()
    with tempfile.TemporaryDirectory() as tmp:
        for expected, argv in entries(tmp):
            log = io.StringIO()
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                profile.enable()
                try:
                    code = run(argv)
                finally:
                    profile.disable()
                    sys.argv = saved_argv
            print(f"exit {code} (expect {expected}): {' '.join(argv)}", flush=True)
            if code != expected:
                problems.append(f"ENTRY FAILED: {' '.join(argv)} exited {code}, "
                                f"expected {expected}\n{log.getvalue()[-2000:]}")
    reached = {(str(Path(entry.code.co_filename).resolve()), entry.code.co_firstlineno)
               for entry in profile.getstats() if not isinstance(entry.code, str)}
    return sorted({name for where, name in definitions().items()
                   if where not in reached}), problems


def verdict(unreached, reasons):
    """What ``--check`` fails on: an unreached function without a reason,
    and a justified one that some entry point reaches."""
    return ([f"UNREACHED, NOT JUSTIFIED: {name}"
             for name in unreached if not reasons.get(name)]
            + [f"JUSTIFIED BUT REACHED: {name}"
               for name in sorted(set(reasons) - set(unreached))])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    verb = parser.add_mutually_exclusive_group()
    verb.add_argument("--check", metavar="FILE")
    verb.add_argument("--update", metavar="FILE")
    args = parser.parse_args(argv)

    path = Path(args.check or args.update or "-")
    reasons = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    unreached, problems = sweep()
    if args.update and not problems:
        record = {name: reasons.get(name, "") for name in unreached}
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", "utf-8")
        print(f"wrote {len(record)} unreached functions to {path}")
    elif args.check:
        problems += verdict(unreached, reasons)
    else:
        print(*unreached, sep="\n")
    print(*problems, f"{len(unreached)} unreached functions", sep="\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
