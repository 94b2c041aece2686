"""Lint engine: file discovery, rule dispatch, suppression."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from .base import LintContext
from .findings import Finding
from .modinfo import ModuleInfo, parse_module
from .quorum_model import DEFINITION_BASENAMES, build_model
from .rules import ALL_RULES
from .rules_dataflow import collect_signed_types
from .suppressions import apply_suppressions

#: Directories never linted even when nested under a requested path.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".venv", "node_modules"})


@dataclass
class LintResult:
    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0

    @property
    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for finding in self.findings:
            out[finding.rule] = out.get(finding.rule, 0) + 1
        return out

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def to_json(self) -> Dict[str, Any]:
        return {
            "version": 1,
            "tool": "repro.lint",
            "files_checked": self.files_checked,
            "findings": [f.to_json() for f in sorted(self.findings)],
            "counts": self.counts,
            "suppressed": self.suppressed,
            "exit_code": self.exit_code,
        }


def discover_files(paths: List[Path], root: Path) -> List[Path]:
    files: List[Path] = []
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            files.append(path)
        elif path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if not _SKIP_DIRS & set(sub.parts):
                    files.append(sub)
    return files


def run_lint(paths: List[Path], root: Optional[Path] = None) -> LintResult:
    """Lint ``paths`` (files or directory trees).

    ``root`` anchors the relative paths recorded in findings (defaults
    to the current working directory); keeping them relative makes the
    JSON output machine-independent.
    """
    root = root or Path.cwd()
    result = LintResult()
    modules: List[ModuleInfo] = []
    for file_path in discover_files(paths, root):
        try:
            rel = file_path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            rel = file_path.as_posix()
        info = parse_module(file_path, rel)
        if info is not None:
            modules.append(info)
    result.files_checked = len(modules)

    ctx = LintContext(
        model=build_model(
            [
                (info.tree, info.relpath)
                for info in modules
                if info.basename in DEFINITION_BASENAMES
            ]
        ),
        signed_types=collect_signed_types(modules),
        modules=modules,
    )

    raw: List[Finding] = []
    for info in modules:
        file_findings: List[Finding] = []
        for rule in ALL_RULES:
            file_findings.extend(rule.check(info, ctx))
        kept, meta, suppressed = apply_suppressions(info, file_findings)
        raw.extend(kept)
        raw.extend(meta)
        result.suppressed += suppressed
    result.findings = sorted(raw)
    return result
