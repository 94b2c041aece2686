"""Smoke test of the end-to-end benchmark (collected by tier-1).

Runs every workload at ``--quick`` size in its own process (the harness
pins ``REPRO_ACCEL`` before ``import repro``, which must not leak into
the test process), checks that every output check passes, and guards
against schema drift: the metric and workload names the harness prints
must be exactly the ones ``BENCHMARK.json`` declares.
"""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
DECLARED = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")


def _load(module: str):
    spec = importlib.util.spec_from_file_location(
        f"e2e_{module}", HERE / f"{module}.py"
    )
    loaded = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loaded)
    return loaded


def _start(workload: str, out: Path, trace: int) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--quick", "--trace", str(trace), "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _finish(process: subprocess.Popen, section: str) -> None:
    stdout, stderr = process.communicate(timeout=60)
    assert process.returncode == 0, stdout + stderr
    last = json.loads(stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    printed = {name: m["unit"] for name, m in last["metrics"].items()}
    assert printed == declared


def test_every_workload_passes_its_checks_and_prints_declared_names(tmp_path):
    # Started together: the test checks outputs, not speed.
    timed = [_start(w, tmp_path, trace=0) for w in WORKLOADS]
    traced = _start("smr_steady", tmp_path, trace=1)
    for process in timed:
        _finish(process, "end_to_end")
    _finish(traced, "per_layer")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [f"{w}.json" for w in WORKLOADS] + ["smr_steady.trace.json"]
    )
    # A result set agrees with itself under the comparison tool.
    compared = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(tmp_path), str(tmp_path)],
        capture_output=True, text=True,
    )
    assert compared.returncode == 0, compared.stdout + compared.stderr
    assert "0 worse, 0 unresolved" in compared.stdout


def test_declaration_is_well_formed():
    names = [w["name"] for w in DECLARED["workloads"]]
    names += [m["name"] for m in DECLARED["end_to_end"]]
    names += [m["name"] for m in DECLARED["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names), names
    assert DECLARED["paths"] == ["benchmarks/e2e"]
    bounds = {m["name"]: m["bound"] for m in DECLARED["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    ledger = _load("ledger")
    for layer in ledger.LAYERS + (ledger.OTHER,):
        for suffix in ("self_share", "calls_per_op"):
            assert f"{layer}.{suffix}" in names


def test_every_source_file_maps_to_one_layer():
    ledger = _load("ledger")
    package = REPO_ROOT / "src" / "repro"
    for path in package.rglob("*.py"):
        assert ledger.layer_of(path, package) is not None, path
    assert ledger.layer_of(HERE / "run.py", package) is None
