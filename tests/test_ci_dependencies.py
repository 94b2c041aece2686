"""Every CI job that runs pytest installs what the code it runs imports.

A job's pytest step collects test files (all of ``tests/`` when it names
no path), and those import ``src/``.  Each third-party top-level module
imported anywhere in ``src/`` or in the collected files under ``tests/``
must be named on the job's ``pip install`` line.  Standard-library
modules (``sys.stdlib_module_names``) and first-party ones (any module
or package under ``src/``, ``tests/`` or ``benchmarks/``) are left out.
The workflow is read as text, so the check needs nothing beyond the
standard library and no network.
"""

from __future__ import annotations

import ast
import re
import shlex
import sys
from pathlib import Path
from typing import Dict, List, Set

REPO_ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = REPO_ROOT / ".github" / "workflows" / "ci.yml"


def _jobs(text: str) -> Dict[str, List[str]]:
    """Job id -> the shell commands of its ``run:`` steps, one string
    per step (a ``run: |`` block joined into one)."""
    jobs: Dict[str, List[str]] = {}
    lines = text.splitlines()
    in_jobs, job, block, indent = False, None, None, 0
    for line in lines:
        stripped = line.strip()
        depth = len(line) - len(line.lstrip())
        if block is not None:
            if stripped and depth <= indent:
                jobs[job].append(" ".join(block))
                block = None
            else:
                if stripped:
                    block.append(stripped)
                continue
        if line.startswith("jobs:"):
            in_jobs = True
            continue
        if not in_jobs or not stripped or stripped.startswith("#"):
            continue
        match = re.fullmatch(r"  ([A-Za-z0-9_-]+):", line)
        if match:
            job = match.group(1)
            jobs[job] = []
            continue
        match = re.match(r"(?:- )?run:\s*(.*)", stripped)
        if match and job is not None:
            command = match.group(1)
            if command == "|":
                block, indent = [], depth
            else:
                jobs[job].append(command)
    if block is not None:
        jobs[job].append(" ".join(block))
    return jobs


def _installed(commands: List[str]) -> Set[str]:
    names: Set[str] = set()
    for command in commands:
        words = shlex.split(command)
        if "pip" in words and "install" in words:
            start = words.index("install") + 1
            names |= {_normal(w) for w in words[start:] if not w.startswith("-")}
    return names


def _pytest_targets(commands: List[str]) -> List[List[str]]:
    """The path arguments of each ``pytest`` / ``python -m pytest``
    invocation (``[]``: none)."""
    targets = []
    for command in commands:
        words = [w for w in shlex.split(command) if "=" not in w or w.startswith("-")]
        if words[:1] == ["pytest"]:
            args = words[1:]
        elif words[1:3] == ["-m", "pytest"]:
            args = words[3:]
        else:
            continue
        targets.append([a for a in args if not a.startswith("-")])
    return targets


def _normal(name: str) -> str:
    return re.split(r"[<>=\[;]", name, maxsplit=1)[0].lower().replace("-", "_")


def _first_party() -> Set[str]:
    names: Set[str] = set()
    for root in ("src", "tests", "benchmarks"):
        for path in (REPO_ROOT / root).rglob("*.py"):
            names.add(path.stem)
            names.update(
                part for part in path.relative_to(REPO_ROOT / root).parts[:-1]
            )
    return names


def _imports(path: Path) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module.split(".")[0])
    return names


def _third_party(paths) -> Set[str]:
    first_party = _first_party()
    names: Set[str] = set()
    for path in paths:
        names |= _imports(path)
    return {
        name
        for name in names
        if name not in sys.stdlib_module_names
        and name not in first_party
        and name != "__future__"
    }


def _collected_tests(targets: List[str]) -> Set[Path]:
    """The files under ``tests/`` that a pytest run over ``targets``
    imports: the named files, everything under a named directory, and
    each ``conftest.py`` on the way down (no target: all of ``tests/``)."""
    tests = REPO_ROOT / "tests"
    files: Set[Path] = set()
    for target in targets or ["."]:
        path = (REPO_ROOT / target).resolve()
        if path.is_dir():
            files.update(p for p in tests.rglob("*.py") if path in p.parents)
        elif tests in path.parents:
            files.add(path)
        for parent in path.parents:
            if parent == tests or tests in parent.parents:
                files.update(parent.glob("conftest.py"))
    return files


def test_workflow_parses_into_pytest_jobs():
    jobs = _jobs(WORKFLOW.read_text(encoding="utf-8"))
    pytest_jobs = {job for job, commands in jobs.items() if _pytest_targets(commands)}
    # The tier-1 job, and the property tests under the explore profile.
    assert {"test", "explore"} <= pytest_jobs
    assert _pytest_targets(jobs["test"]) == [[]]


def test_each_pytest_job_installs_what_it_imports():
    jobs = _jobs(WORKFLOW.read_text(encoding="utf-8"))
    src = set((REPO_ROOT / "src").rglob("*.py"))
    missing = {}
    for job, commands in jobs.items():
        targets = _pytest_targets(commands)
        if not targets:
            continue
        files = set(src)
        for paths in targets:
            files |= _collected_tests(paths)
        needed = {_normal(name) for name in _third_party(files)}
        absent = needed - _installed(commands)
        if absent:
            missing[job] = sorted(absent)
    assert missing == {}


def test_hypothesis_and_pytest_are_third_party_imports_of_tests():
    """The check sees the imports that once went undeclared."""
    needed = _third_party(_collected_tests([]))
    assert {"hypothesis", "pytest"} <= needed
