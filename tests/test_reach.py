"""``tests/golden/reach.json`` justifies only functions that still exist.

The sweep itself (``benchmarks/reach.py --check``) runs every entry point
and is a CI job; this is its static half: a justified name that was
deleted or renamed fails here, without running anything.
"""

import json
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden" / "reach.json"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
import reach  # noqa: E402


def test_every_justified_function_is_still_defined():
    justified = json.loads(GOLDEN.read_text(encoding="utf-8"))
    defined = set(reach.definitions().values())
    assert sorted(set(justified) - defined) == []


def test_every_justification_gives_a_reason():
    justified = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [name for name, reason in justified.items() if not reason.strip()] == []


def test_a_decorated_def_starts_at_its_first_decorator(monkeypatch, tmp_path):
    package = tmp_path / "repro"
    package.mkdir()
    (package / "mod.py").write_text(
        "class A:\n"
        "    @property\n"
        "    @staticmethod\n"
        "    def p():\n"
        "        def inner():\n"
        "            pass\n"
        "def top():\n"
        "    pass\n",
        encoding="utf-8",
    )
    monkeypatch.setattr(reach, "SRC", tmp_path)
    where = str(package / "mod.py")
    assert reach.definitions() == {
        (where, 2): "repro/mod.py::A.p",
        (where, 5): "repro/mod.py::A.p.inner",
        (where, 7): "repro/mod.py::top",
    }


@pytest.mark.parametrize("body, code", [
    ("pass", 0),
    ("raise SystemExit(3)", 3),
    ("raise SystemExit()", 0),
    ("raise SystemExit('usage: ...')", 1),
    ("raise ValueError('boom')", 1),
], ids=["falls-off-the-end", "exit-code", "bare-exit", "exit-message", "exception"])
def test_run_reports_how_an_entry_point_ended(monkeypatch, tmp_path, body, code):
    script = tmp_path / "entry.py"
    script.write_text(body + "\n", encoding="utf-8")
    monkeypatch.setattr(sys, "argv", sys.argv[:])
    path = sys.path[:]
    assert reach.run([str(script)]) == code
    assert sys.path == path


def test_check_fails_on_an_unjustified_and_on_a_reached_entry():
    reasons = {"repro/a.py::stub": "interface stub", "repro/b.py::gone": "old"}
    assert reach.verdict(["repro/a.py::stub"], reasons) == [
        "JUSTIFIED BUT REACHED: repro/b.py::gone",
    ]
    assert reach.verdict(["repro/a.py::stub", "repro/c.py::new"], reasons) == [
        "UNREACHED, NOT JUSTIFIED: repro/c.py::new",
        "JUSTIFIED BUT REACHED: repro/b.py::gone",
    ]
    assert reach.verdict(["repro/a.py::stub"], {"repro/a.py::stub": "x"}) == []
