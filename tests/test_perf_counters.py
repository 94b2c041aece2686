"""The perf contract: ``benchmarks/perf_counters.py`` and its golden file."""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "perf_counters.py"
GOLDEN = Path(__file__).parent / "golden" / "e2e_counters.json"
sys.path.insert(0, str(SCRIPT.parent))
import perf_counters  # noqa: E402


def test_head_costs_exactly_the_committed_counters():
    # A fresh process, as in CI: nothing this session imported is warm.
    command = [sys.executable, str(SCRIPT), "--check", str(GOLDEN)]
    done = subprocess.run(command, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr


@pytest.fixture
def gate(monkeypatch, tmp_path, capsys):
    """``main`` over canned readings, against a copy of the golden file."""
    golden = json.loads(GOLDEN.read_text())
    path = tmp_path / "golden.json"

    def run(verb, *readings, python=perf_counters.PYTHON):
        path.write_text(json.dumps(dict(golden, python=python)))
        queue = [(reading, []) for reading in readings]
        monkeypatch.setattr(perf_counters, "measure", lambda: queue.pop(0))
        code = perf_counters.main([verb, str(path)])
        return code, capsys.readouterr().out, json.loads(path.read_text())

    return golden["counters"], run


@pytest.mark.parametrize("name, value, said", [
    ("sim_events_per_op", 1e9, "{golden} -> 1000000000.0  MISMATCH vs golden"),
    ("core.calls_per_op", None, "{golden} -> -  MISSING from the run"),
    ("core.walks_per_op", 3.5, "- -> 3.5  UNRECORDED"),
])
def test_any_difference_fails_and_says_where(gate, name, value, said):
    counters, run = gate
    observed = copy.deepcopy(counters)
    observed["smr_steady"][name] = value
    if value is None:
        del observed["smr_steady"][name]
    code, out, _ = run("--check", observed)
    assert code == 1
    (line,) = [line for line in out.splitlines() if line.startswith("smr_steady")]
    golden = counters["smr_steady"].get(name)
    assert line.split()[1] == name and line.endswith(said.format(golden=golden))
    assert run("--check", counters)[0] == 0


def test_another_interpreter_compares_only_what_it_can(gate):
    counters, run = gate
    observed = copy.deepcopy(counters)
    observed["smr_steady"]["core.calls_per_op"] += 1
    observed["recorder"]["slow-leader.on.total_calls"] += 1
    code, out, _ = run("--check", observed, python="CPython 2.7")
    assert code == 0 and "84 not compared (interpreter-bound), 116 ok" in out
    observed["consensus_bound"]["msgs_per_op"] += 1
    code, out, _ = run("--check", observed, python="CPython 2.7")
    assert code == 1 and "msgs_per_op" in out and "core.calls_per_op" not in out


def test_update_writes_only_two_equal_readings(gate):
    counters, run = gate
    moved = copy.deepcopy(counters)
    moved["scenario_fuzz"]["fuzz.unique_signatures"] += 1
    code, out, written = run("--update", counters, moved)
    assert code == 1 and "fuzz.unique_signatures" in out and "NONREPEATING" in out
    assert written["counters"] == counters
    code, _, written = run("--update", moved, moved)
    assert code == 0 and written["counters"] == moved


def test_update_refuses_a_failing_workload(monkeypatch, tmp_path, capsys):
    fake = tmp_path / "run.py"
    fake.write_text(
        'print("  CHECK FAILED: ledger: other.self_share 0.03 > 0.02")\n'
        'print(\'{"correct": false, "metrics": {}}\'); raise SystemExit(1)')
    monkeypatch.setattr(perf_counters, "RUN", fake)
    monkeypatch.setattr(perf_counters, "recorder_counters", dict)
    assert perf_counters.main(["--update", str(tmp_path / "out.json")]) == 1
    out = capsys.readouterr().out
    assert "smr_steady --trace 1: run.py exit 1, its own checks FAILED" in out
    # The child's reasons are forwarded, labelled with the child they came from.
    assert ("smr_steady --trace 1: CHECK FAILED: ledger: other.self_share "
            "0.03 > 0.02") in out
    assert not (tmp_path / "out.json").exists()


def test_check_names_every_failed_check_of_every_child(monkeypatch, tmp_path, capsys):
    fake = tmp_path / "run.py"
    fake.write_text(
        'print("  CHECK FAILED: ledger: other.self_share 0.03 > 0.02")\n'
        'print("progress line")\n'
        'print("  CHECK FAILED: decided 3 of 4 slots")\n'
        'print(\'{"correct": false, "metrics": {}}\')')  # exit 0, still failed
    monkeypatch.setattr(perf_counters, "RUN", fake)
    monkeypatch.setattr(perf_counters, "recorder_counters", dict)
    assert perf_counters.main(["--check", str(GOLDEN)]) == 1
    out = capsys.readouterr().out
    for workload, trace in (("consensus_bound", 0), ("smr_steady", 1)):
        label = f"{workload} --trace {trace}"
        assert f"{label}: run.py exit 0, its own checks FAILED" in out
        assert f"{label}: CHECK FAILED: ledger: other.self_share 0.03 > 0.02" in out
        assert f"{label}: CHECK FAILED: decided 3 of 4 slots" in out
    assert "progress line" not in out
