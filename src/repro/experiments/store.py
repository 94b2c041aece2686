"""Versioned ``BENCH_*.json`` artifacts of experiment grids.

Every ``BENCH_*.json`` is one envelope (:func:`write_bench_json`): what
was measured on which interpreter and platform, around a ``results``
mapping.  ``write_experiment_json`` adds the ``experiment`` block (grid
digest, task count) and per-section ``columns`` + ``rows`` that make a
record a *grid artifact* — the only kind :func:`load_bench_json` reads
back and ``diff`` compares; any other record is rejected by type.
"""

from __future__ import annotations

import hashlib
import json
import platform
import time
from typing import Any, Dict, Iterable, List, Optional

from .runner import ExperimentResult

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "NotAGridArtifact",
    "aggregate_payload",
    "load_bench_json",
    "load_grid_payloads",
    "write_bench_json",
    "write_experiment_json",
]

#: Bump when the BENCH_*.json layout changes incompatibly.
BENCH_SCHEMA_VERSION = 2


def write_bench_json(
    path: str,
    bench: str,
    results: Dict[str, Any],
    meta: Optional[Dict[str, Any]] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Write one ``BENCH_<name>.json`` record.

    The envelope is deliberately small and stable: scripts diff the
    ``results`` mapping across commits, and the metadata says what
    hardware/interpreter produced the numbers.  ``extra`` merges
    additional top-level blocks (a grid artifact's ``experiment`` block).
    """
    payload: Dict[str, Any] = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "bench": bench,
        "created_unix": time.time(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "results": results,
    }
    if meta:
        payload["meta"] = meta
    if extra:
        payload.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload


class NotAGridArtifact(ValueError):
    """The record names no experiment grid, so there is nothing to diff."""


def _read_json(path: str) -> Any:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as error:
            raise ValueError(f"{path}: malformed JSON ({error})") from None


def _require_grid(exp: Any, path: str) -> None:
    """``exp`` — an artifact's ``experiment`` block or one entry of an
    aggregate — must say which grid it is and carry its digest."""
    if not (isinstance(exp, dict) and exp.get("id") and exp.get("grid_digest")):
        raise NotAGridArtifact(
            f"{path}: not an experiment-grid artifact "
            f"(no experiment id and grid_digest)"
        )


def _grid_artifact(payload: Any, path: str) -> Dict[str, Any]:
    version = payload.get("schema_version") if isinstance(payload, dict) else None
    if version != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported BENCH json schema {version!r} in {path} "
            f"(expected {BENCH_SCHEMA_VERSION})"
        )
    _require_grid(payload.get("experiment"), path)
    return payload


def load_bench_json(path: str) -> Dict[str, Any]:
    """Read one grid artifact back.

    Raises :class:`OSError` for an unreadable file, :class:`ValueError`
    for malformed JSON or an unknown ``schema_version``, and its
    subclass :class:`NotAGridArtifact` for a well-formed record that is
    not a grid artifact (a summary record, a bare envelope).
    """
    return _grid_artifact(_read_json(path), path)


def load_grid_payloads(path: str) -> List[Dict[str, Any]]:
    """What ``diff`` compares: the one payload of a grid artifact, or
    every entry of an aggregated ``BENCH_experiments.json`` (errors as
    for :func:`load_bench_json`)."""
    payload = _read_json(path)
    if isinstance(payload, dict) and "experiments" in payload:
        entries = list(payload["experiments"])
        for entry in entries:
            _require_grid(entry, path)
        return entries
    return [_grid_artifact(payload, path)]


def write_experiment_json(path: str, result: ExperimentResult) -> Dict[str, Any]:
    """One ``BENCH_<id>_<name>.json`` artifact for a finished grid run."""
    payload = result.to_payload()
    return write_bench_json(
        path,
        f"{result.spec.id}_{result.spec.name}",
        results=payload["sections"],
        meta={"source": "repro.experiments run", "quick": result.quick},
        extra={
            "experiment": {
                key: payload[key]
                for key in (
                    "id", "name", "title", "paper_ref", "quick",
                    "deterministic", "tasks_total", "wall_seconds",
                    "grid_digest",
                )
            }
        },
    )


def aggregate_payload(results: Iterable[ExperimentResult]) -> Dict[str, Any]:
    """The cross-experiment aggregate (``BENCH_experiments.json`` body)."""
    payloads = [result.to_payload() for result in results]
    h = hashlib.sha256()
    for payload in payloads:
        h.update(payload["id"].encode())
        h.update(payload["grid_digest"].encode())
    return {
        "experiments": payloads,
        "combined_digest": h.hexdigest(),
    }
