"""The per-layer ledger: attribute a traced pass's time and calls.

The traced pass runs under ``cProfile``.  A *layer* is one of this
repository's modules; a function belongs to the layer its source file
lies in (by directory — :func:`layer_of`), except for the handful of
functions that implement the run-loop stop predicate, which form the
cross-cutting layer ``harness.stop_predicate``
(:data:`STOP_PREDICATE`).

A layer's **self time** is the summed ``tottime`` of its functions plus
the self time of everything foreign — C builtins and standard-library
functions — charged to the layer that called it (transitively, split
by the profile's per-caller-edge times when several layers call the same
foreign function).  Time no declared layer owns lands in ``other``; the
traced run fails when that exceeds :data:`OTHER_LIMIT`, so a new package
cannot silently escape the ledger.

Call counts are the profile's exact ``ncalls`` and repeat exactly.
Self-time *shares* are of **traced** time: ``cProfile`` taxes every
Python call but not the work inside C code, so call-heavy layers look
larger than they are untraced (see ``trace.overhead_ratio``).
"""

from __future__ import annotations

import importlib
from pathlib import Path, PurePath
from types import CodeType
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

#: (filename, first line, function name) — how pstats keys a function.
FuncKey = Tuple[str, int, str]

STOP_LAYER = "harness.stop_predicate"
OTHER = "other"
OTHER_LIMIT = 0.02

#: The layers the ledger declares (``BENCHMARK.json`` lists two metrics
#: for each).  ``backend`` is ``src/repro/_core`` — metric names may not
#: start with an underscore; ``sim`` is split by file.
LAYERS: Tuple[str, ...] = (
    "sim.events", "sim.network", "sim.process", "sim.trace", "sim.digest",
    "sim.runner", "backend", "crypto", "core", "baselines", "byzantine",
    "sync", "smr", "storage", "scenarios", "fuzz", "obs", STOP_LAYER,
)

#: Functions whose work is evaluating "is the run over yet?" after every
#: simulated event, as ``module``, dotted path to the function.  Nested
#: code (genexprs, lambdas) inside each is included.
STOP_PREDICATE: Tuple[Tuple[str, str], ...] = (
    ("repro.smr.client", "SMRClient.all_completed"),
    ("repro.smr.client", "SMRClient.completed_count"),
    ("repro.scenarios.adapters", "PacedSMRClient.all_completed"),
    ("repro.scenarios.runner", "run_scenario._run_complete"),
    ("repro.sim.trace", "TraceRecorder.all_decided"),
    ("repro.sim.runner", "Cluster.run_until_decided.<lambda>"),
)

#: Exact call counters: name -> (path suffix under src/repro, function).
COUNTED_CALLS: Dict[str, Tuple[str, str]] = {
    "payload_size": ("_core/pure.py", "payload_size"),
    "canonical_bytes": ("_core/pure.py", "canonical_bytes"),
    "general_sends": ("sim/network.py", "_send_general"),
    "timers_set": ("sim/process.py", "set_timer"),
    "signs": ("crypto/keys.py", "sign"),
    "wal_appends": ("storage/wal.py", "append"),
    "wal_truncations": ("storage/wal.py", "truncate_upto"),
    "checkpoints": ("storage/checkpoint.py", "install_stable"),
}


def layer_of(path: PurePath, package_root: PurePath) -> Optional[str]:
    """The layer a source file belongs to, by directory; ``None`` when
    the file is not under ``package_root`` (``src/repro``)."""
    try:
        parts = path.relative_to(package_root).parts
    except ValueError:
        return None
    if len(parts) == 1:
        return "repro"
    if parts[0] == "sim":
        return "sim." + PurePath(parts[1]).stem
    if parts[0] == "_core":
        return "backend"
    return parts[0]


# ----------------------------------------------------------------------
# The stop-predicate table -> profile keys
# ----------------------------------------------------------------------


def _nested_codes(code: CodeType) -> Iterable[CodeType]:
    yield code
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from _nested_codes(const)


def _resolve_code(module_name: str, dotted: str) -> Optional[CodeType]:
    """The code object ``dotted`` names inside ``module_name``: attribute
    steps while there is an object to ask, nested-code steps after."""
    target: Any = importlib.import_module(module_name)
    steps = dotted.split(".")
    while steps and not isinstance(target, CodeType):
        target = getattr(target, steps[0], None)
        if target is None:
            return None
        steps.pop(0)
        if isinstance(target, property):
            target = target.fget
        target = getattr(target, "__code__", target)
    for step in steps:
        target = next(
            (c for c in target.co_consts
             if isinstance(c, CodeType) and c.co_name == step),
            None,
        )
        if target is None:
            return None
    return target if isinstance(target, CodeType) else None


def stop_predicate_keys() -> Tuple[Set[FuncKey], List[str]]:
    """Profile keys of the stop-predicate functions, and the table
    entries that no longer resolve (deleted by a fix: reported, not
    fatal)."""
    keys: Set[FuncKey] = set()
    missing: List[str] = []
    for module_name, dotted in STOP_PREDICATE:
        code = _resolve_code(module_name, dotted)
        if code is None:
            missing.append(f"{module_name}:{dotted}")
            continue
        for nested in _nested_codes(code):
            keys.add((nested.co_filename, nested.co_firstlineno, nested.co_name))
    return keys, missing


# ----------------------------------------------------------------------
# Attribution
# ----------------------------------------------------------------------


class Ledger:
    """Self time and calls per layer for one profile."""

    def __init__(self, stats: Dict[FuncKey, Any], package_root: Path) -> None:
        self._stats = stats
        self._root = PurePath(package_root)
        self._stop_keys, self.unresolved = stop_predicate_keys()
        self._owner_memo: Dict[FuncKey, Dict[str, float]] = {}
        self.self_seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self._attribute()

    def _own_layer(self, func: FuncKey) -> Optional[str]:
        """The declared layer ``func`` itself belongs to (``other`` for
        an undeclared repro package), or ``None`` when it is foreign."""
        if func in self._stop_keys:
            return STOP_LAYER
        layer = layer_of(PurePath(func[0]), self._root)
        if layer is None:
            return None
        return layer if layer in LAYERS else OTHER

    def _owners(self, func: FuncKey, stack: Set[FuncKey]) -> Dict[str, float]:
        """Which layers pay for ``func``'s self time, as weights.

        A repro function pays for itself.  A foreign one is paid for by
        its callers, in proportion to the time the profile saw on each
        caller edge; edges that lead back into the walk (recursion, e.g.
        ``dataclasses.asdict``) carry no information and are skipped.
        Empty when nobody informative called it (the profile's root).
        """
        own = self._own_layer(func)
        if own is not None:
            return {own: 1.0}
        memo = self._owner_memo.get(func)
        if memo is not None:
            return memo
        callers = self._stats[func][4] if func in self._stats else {}
        stack.add(func)
        weighted = [
            (edge[2], self._owners(caller, stack))
            for caller, edge in callers.items()
            if caller not in stack
        ]
        stack.discard(func)
        # An edge whose walk found nothing but the cycle it came from
        # says nothing about who pays; the informative edges decide.
        weighted = [(weight, owners) for weight, owners in weighted if owners]
        total = sum(weight for weight, _ in weighted)
        shares: Dict[str, float] = {}
        for weight, owners in weighted:
            scale = weight / total if total > 0 else 1.0 / len(weighted)
            for layer, share in owners.items():
                shares[layer] = shares.get(layer, 0.0) + scale * share
        if not stack:
            # Only a walk that started here saw all of its callers.
            self._owner_memo[func] = shares
        return shares

    def _attribute(self) -> None:
        for func, (_, ncalls, tottime, _, _) in self._stats.items():
            own = self._own_layer(func)
            if own is not None:
                self.calls[own] = self.calls.get(own, 0) + ncalls
            owners = self._owners(func, set()) or {OTHER: 1.0}
            for layer, share in owners.items():
                self.self_seconds[layer] = (
                    self.self_seconds.get(layer, 0.0) + tottime * share
                )

    # -- reads ----------------------------------------------------------

    @property
    def total_seconds(self) -> float:
        return sum(self.self_seconds.values())

    def share(self, layer: str) -> float:
        total = self.total_seconds
        return self.self_seconds.get(layer, 0.0) / total if total else 0.0

    def function(self, suffix: str, name: str) -> Tuple[int, int, float]:
        """``(primitive calls, total calls, cumulative seconds)`` summed
        over functions called ``name`` in the file ``src/repro/<suffix>``
        (recursive functions: primitive = top-level calls)."""
        wanted = str(self._root / suffix)
        primitive = total = 0
        cumulative = 0.0
        for (filename, _, func_name), entry in self._stats.items():
            if func_name == name and filename == wanted:
                primitive += entry[0]
                total += entry[1]
                cumulative += entry[3]
        return primitive, total, cumulative

    def metrics(self, ops: int, sends: int) -> Dict[str, float]:
        """Every profile-derived per-layer metric."""
        out: Dict[str, float] = {}
        for layer in LAYERS + (OTHER,):
            out[f"{layer}.self_share"] = self.share(layer)
            out[f"{layer}.calls_per_op"] = self.calls.get(layer, 0) / ops
        counted = {
            key: self.function(*where) for key, where in COUNTED_CALLS.items()
        }
        for key in ("payload_size", "canonical_bytes"):
            out[f"backend.{key}_calls_per_op"] = counted[key][0] / ops
            out[f"backend.{key}_nodes_per_op"] = counted[key][1] / ops
        digest_seconds = self.function("sim/digest.py", "trace_digest")[2]
        total = self.total_seconds
        out["sim.digest.inclusive_share"] = (
            digest_seconds / total if total else 0.0
        )
        out["sim.network.general_send_share"] = (
            counted["general_sends"][1] / sends if sends else 0.0
        )
        out["sim.process.timers_set_per_op"] = counted["timers_set"][1] / ops
        out["crypto.signs_per_op"] = counted["signs"][1] / ops
        out["storage.wal_appends_per_op"] = counted["wal_appends"][1] / ops
        out["storage.wal_truncations_per_kop"] = (
            1000.0 * counted["wal_truncations"][1] / ops
        )
        out["storage.checkpoints_per_kop"] = (
            1000.0 * counted["checkpoints"][1] / ops
        )
        return out

    def table(self) -> List[Dict[str, Any]]:
        """Layers by descending self time (for the trace file / README)."""
        rows = [
            {
                "layer": layer,
                "self_seconds": seconds,
                "self_share": self.share(layer),
                "calls": self.calls.get(layer, 0),
            }
            for layer, seconds in self.self_seconds.items()
        ]
        return sorted(rows, key=lambda row: -row["self_seconds"])
