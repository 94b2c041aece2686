"""Finding record shared by every lint rule."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location.

    ``context`` is the dotted lexical context (``Class.method`` or
    ``<module>``).
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    context: str = "<module>"

    def to_json(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "context": self.context,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message} [{self.context}]"
