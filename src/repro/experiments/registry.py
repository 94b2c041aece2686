"""The experiment registry: one :class:`ExperimentSpec` per paper experiment.

Specs register at import time via :func:`register`; the canonical
entries live in :mod:`repro.experiments.catalog`, which this module loads
on the first lookup (the catalog imports this module to register).
"""

from __future__ import annotations

from typing import Dict, List

from .spec import ExperimentSpec

__all__ = ["register", "get_experiment", "all_experiments"]

_REGISTRY: Dict[str, ExperimentSpec] = {}
_ALIASES: Dict[str, str] = {}
_CATALOG_LOADED = False


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Add a spec to the registry (id and name must be unused)."""
    key = spec.id.upper()
    if key in _REGISTRY:
        raise ValueError(f"experiment id {spec.id!r} already registered")
    alias = spec.name.lower()
    if alias in _ALIASES:
        raise ValueError(f"experiment name {spec.name!r} already registered")
    _REGISTRY[key] = spec
    _ALIASES[alias] = key
    return spec


def _load_catalog() -> None:
    global _CATALOG_LOADED
    if not _CATALOG_LOADED:
        _CATALOG_LOADED = True
        from . import catalog  # noqa: F401  (registers every entry on import)


def get_experiment(id_or_name: str) -> ExperimentSpec:
    """Look up a spec by id (``E1``, case-insensitive) or name."""
    _load_catalog()
    key = id_or_name.upper()
    if key in _REGISTRY:
        return _REGISTRY[key]
    alias = id_or_name.lower()
    if alias in _ALIASES:
        return _REGISTRY[_ALIASES[alias]]
    known = ", ".join(
        f"{spec.id}/{spec.name}" for spec in all_experiments()
    )
    raise KeyError(f"unknown experiment {id_or_name!r}; known: {known}")


def all_experiments() -> List[ExperimentSpec]:
    """Every registered spec, ordered by numeric experiment id."""
    _load_catalog()

    def sort_key(spec: ExperimentSpec):
        tail = spec.id[1:]
        return (int(tail) if tail.isdigit() else 10_000, spec.id)

    return sorted(_REGISTRY.values(), key=sort_key)
