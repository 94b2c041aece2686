"""Parsed-module container and shared AST helpers for lint rules."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

#: Directory names that hold protocol/simulation code whose behaviour is
#: pinned by the golden digests.  The D-series rules only fire inside
#: these (plus W-series inside smr/storage); Q/V rules use their own
#: scoping.
PROTOCOL_DIRS = frozenset(
    {"core", "sim", "smr", "baselines", "storage", "sync"}
)


@dataclass
class ModuleInfo:
    """One parsed source file handed to every rule."""

    path: Path
    relpath: str  # posix-style, stable across machines; used in findings
    source: str
    tree: ast.Module
    parents: dict = field(default_factory=dict)

    @property
    def segments(self) -> frozenset:
        return frozenset(Path(self.relpath).parts)

    def in_dirs(self, dirnames: frozenset) -> bool:
        return bool(self.segments & dirnames)

    @property
    def basename(self) -> str:
        return Path(self.relpath).name


def parse_module(path: Path, relpath: str) -> Optional[ModuleInfo]:
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError, ValueError):
        return None
    info = ModuleInfo(path=path, relpath=relpath, source=source, tree=tree)
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            info.parents[child] = parent
    return info


def context_of(info: ModuleInfo, node: ast.AST) -> str:
    """Dotted lexical context (``Class.method``) enclosing ``node``."""
    names: List[str] = []
    cur = info.parents.get(node)
    while cur is not None:
        if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(cur.name)
        cur = info.parents.get(cur)
    return ".".join(reversed(names)) or "<module>"


def enclosing_class(info: ModuleInfo, node: ast.AST) -> Optional[ast.ClassDef]:
    cur = info.parents.get(node)
    while cur is not None:
        if isinstance(cur, ast.ClassDef):
            return cur
        cur = info.parents.get(cur)
    return None


def call_name(node: ast.Call) -> str:
    """Last component of the called name (``a.b.c()`` -> ``c``)."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def dotted_name(node: ast.AST) -> str:
    """Render a Name/Attribute chain as ``a.b.c`` (best effort)."""
    parts: List[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
    else:
        parts.append("?")
    return ".".join(reversed(parts))
