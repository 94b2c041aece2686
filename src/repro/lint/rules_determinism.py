"""D-series rules: determinism of protocol and simulation code.

Golden scenario digests pin every simulated execution byte-for-byte.
Anything that reads ambient entropy (wall clock, OS randomness, the
process-global ``random`` module) or leaks memory-layout order
(``set`` iteration into a message/digest path, ``id()`` into a hash)
breaks that contract non-reproducibly.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from .base import LintContext, Rule
from .findings import Finding
from .modinfo import (
    PROTOCOL_DIRS,
    ModuleInfo,
    call_name,
    context_of,
    dotted_name,
)

#: D-rules also cover ``scenarios/`` and ``fuzz/`` — specs, adapters,
#: the generator and the mutators feed the deterministic runs directly
#: (seeded workload generation, fault schedules), so the same
#: entropy/order discipline applies.
D_SCOPE = PROTOCOL_DIRS | {"scenarios", "fuzz"}

#: Calls that read wall clocks or OS entropy.  Matched as suffixes of
#: the dotted call name so both ``time.monotonic()`` and
#: ``datetime.datetime.now()`` hit.
_ENTROPY_SUFFIXES = (
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
    "os.urandom",
    "os.getrandom",
    "uuid.uuid1",
    "uuid.uuid4",
    "random.SystemRandom",
)
_ENTROPY_BARE = frozenset(
    {"urandom", "getrandom", "uuid1", "uuid4", "SystemRandom",
     "perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns",
     "token_bytes", "token_hex", "token_urlsafe"}
)

#: Order-sensitive sinks: message emission and digest construction.
_SINKS = frozenset(
    {"send", "broadcast", "sign", "canonical_bytes", "sha256", "blake2b",
     "md5", "sha1", "state_digest", "trace_digest", "cluster_digest",
     "digest", "hexdigest"}
)

#: Order-insensitive consumers — a set flowing through these is fine.
_SANITIZERS = frozenset(
    {"sorted", "sum", "min", "max", "len", "any", "all", "set",
     "frozenset", "Counter"}
)

_DIGEST_SINKS = frozenset(
    {"sha256", "blake2b", "md5", "sha1", "canonical_bytes", "sign",
     "hash", "state_digest", "trace_digest", "cluster_digest"}
)


def _imports_random_module(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == "random" for alias in node.names):
                return True
    return False


def _imported_bare_entropy(tree: ast.Module) -> Set[str]:
    """Bare names imported from entropy modules (``from os import
    urandom``), so unqualified calls can be matched without guessing."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in (
            "os", "uuid", "secrets", "time", "random", "datetime"
        ):
            for alias in node.names:
                if alias.name in _ENTROPY_BARE or node.module == "secrets":
                    names.add(alias.asname or alias.name)
    return names


class WallClockRule(Rule):
    id = "D101"
    title = "no wall clock or OS entropy in protocol code"
    rationale = (
        "Golden digests require runs to be byte-identical; wall-clock "
        "reads and OS randomness differ per run. Use the simulated "
        "clock (event time) and seeded generators."
    )
    bad = "timestamp = time.time()"
    good = "timestamp = self.now  # simulated event-loop time"

    def check(self, info: ModuleInfo, ctx: LintContext) -> List[Finding]:
        if not info.in_dirs(D_SCOPE):
            return []
        findings: List[Finding] = []
        bare = _imported_bare_entropy(info.tree)
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            hit: Optional[str] = None
            if dotted.startswith("secrets."):
                hit = dotted
            elif any(
                dotted == suffix or dotted.endswith("." + suffix)
                for suffix in _ENTROPY_SUFFIXES
            ):
                hit = dotted
            elif isinstance(node.func, ast.Name) and node.func.id in bare:
                hit = node.func.id
            if hit is not None:
                findings.append(
                    Finding(
                        path=info.relpath,
                        line=node.lineno,
                        col=node.col_offset,
                        rule=self.id,
                        message=(
                            f"call to {hit}() reads wall clock/OS entropy in "
                            "deterministic protocol code; use the simulated "
                            "clock or a seeded generator"
                        ),
                        context=context_of(info, node),
                    )
                )
        return findings


class GlobalRandomRule(Rule):
    id = "D102"
    title = "no process-global random module calls"
    rationale = (
        "Module-level random.* draws share hidden global state across "
        "components and runs; thread an explicitly seeded "
        "random.Random from the scenario/sim seed instead."
    )
    bad = "delay = random.uniform(0.0, jitter)"
    good = "delay = self._rng.uniform(0.0, jitter)  # rng = Random(seed)"

    def check(self, info: ModuleInfo, ctx: LintContext) -> List[Finding]:
        if not info.in_dirs(D_SCOPE):
            return []
        if not _imports_random_module(info.tree):
            return []
        findings: List[Finding] = []
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "random"
                and func.attr not in ("Random", "SystemRandom")
            ):
                findings.append(
                    Finding(
                        path=info.relpath,
                        line=node.lineno,
                        col=node.col_offset,
                        rule=self.id,
                        message=(
                            f"random.{func.attr}() uses the process-global "
                            "generator; use an explicitly seeded "
                            "random.Random instance"
                        ),
                        context=context_of(info, node),
                    )
                )
        return findings


def _is_set_expr(node: ast.AST, set_names: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = call_name(node)
        if name in ("set", "frozenset"):
            return True
        if name == "keys" and isinstance(node.func, ast.Attribute):
            # dict.keys() views are set-like; iterate the dict itself
            # (insertion order) or sorted(d) instead.
            return True
        return False
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor)
    ):
        return _is_set_expr(node.left, set_names) or _is_set_expr(
            node.right, set_names
        )
    if isinstance(node, ast.Name):
        return node.id in set_names
    return False


def _local_set_names(scope: ast.AST) -> Set[str]:
    """Names assigned from syntactically set-typed expressions inside
    ``scope`` (one pass; no fixpoint — locality is the documented
    contract of D103)."""
    names: Set[str] = set()
    for _ in range(2):  # second pass catches  a = {...}; b = a | other
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign) and _is_set_expr(node.value, names):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if _is_set_expr(node.value, names) and isinstance(
                    node.target, ast.Name
                ):
                    names.add(node.target.id)
    return names


def _contains_sink(node: ast.AST) -> Optional[ast.Call]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and call_name(sub) in _SINKS:
            return sub
    return None


def _unsorted_set_comprehensions(
    node: ast.AST, set_names: Set[str]
) -> List[ast.AST]:
    """Comprehension/For nodes under ``node`` iterating a set-typed
    expression, skipping subtrees rooted at order-insensitive calls."""
    hits: List[ast.AST] = []

    def walk(sub: ast.AST) -> None:
        if isinstance(sub, ast.Call) and call_name(sub) in _SANITIZERS:
            return
        if isinstance(
            sub, (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp)
        ):
            for gen in sub.generators:
                if _is_set_expr(gen.iter, set_names):
                    hits.append(gen.iter)
        for child in ast.iter_child_nodes(sub):
            walk(child)

    walk(node)
    return hits


class SetOrderRule(Rule):
    id = "D103"
    title = "no set iteration reaching a send/broadcast/digest"
    rationale = (
        "set and dict-keys iteration order depends on hash seeding and "
        "insertion history; if it reaches a message send or digest the "
        "golden traces diverge. Wrap the iterable in sorted()."
    )
    bad = "for pid in peers_set: net.send(pid, msg)"
    good = "for pid in sorted(peers_set): net.send(pid, msg)"

    def check(self, info: ModuleInfo, ctx: LintContext) -> List[Finding]:
        if not info.in_dirs(D_SCOPE):
            return []
        findings: List[Finding] = []
        scopes: List[ast.AST] = [info.tree]
        scopes.extend(
            n
            for n in ast.walk(info.tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        seen: Set[int] = set()
        for scope in scopes:
            set_names = _local_set_names(scope)
            for node in ast.iter_child_nodes(scope):
                self._check_stmts(node, set_names, info, findings, seen)
        return findings

    def _check_stmts(
        self,
        node: ast.AST,
        set_names: Set[str],
        info: ModuleInfo,
        findings: List[Finding],
        seen: Set[int],
    ) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # handled as its own scope
        if isinstance(node, ast.For) and _is_set_expr(node.iter, set_names):
            sink = _contains_sink(node)
            if sink is not None and id(node) not in seen:
                seen.add(id(node))
                findings.append(self._finding(info, node.iter, call_name(sink)))
        if isinstance(node, ast.Call) and call_name(node) in _SINKS:
            for hit in _unsorted_set_comprehensions(node, set_names):
                if id(hit) not in seen:
                    seen.add(id(hit))
                    findings.append(self._finding(info, hit, call_name(node)))
        for child in ast.iter_child_nodes(node):
            self._check_stmts(child, set_names, info, findings, seen)

    def _finding(
        self, info: ModuleInfo, node: ast.AST, sink: str
    ) -> Finding:
        return Finding(
            path=info.relpath,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            rule=self.id,
            message=(
                "iteration over a set/dict-keys expression reaches "
                f"order-sensitive sink {sink}(); wrap the iterable in "
                "sorted()"
            ),
            context=context_of(info, node),
        )


class IdInDigestRule(Rule):
    id = "D104"
    title = "no id() feeding hashes or digests"
    rationale = (
        "id() is a memory address — different every run. Hash stable "
        "identities (pids, slots, canonical bytes) instead."
    )
    bad = "digest = sha256(str(id(msg)).encode())"
    good = "digest = sha256(canonical_bytes(msg))"

    def check(self, info: ModuleInfo, ctx: LintContext) -> List[Finding]:
        if not info.in_dirs(D_SCOPE):
            return []
        findings: List[Finding] = []
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call):
                continue
            if call_name(node) not in _DIGEST_SINKS:
                continue
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                for sub in ast.walk(arg):
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Name)
                        and sub.func.id == "id"
                        and len(sub.args) == 1
                    ):
                        findings.append(
                            Finding(
                                path=info.relpath,
                                line=sub.lineno,
                                col=sub.col_offset,
                                rule=self.id,
                                message=(
                                    f"id() feeds {call_name(node)}(); memory "
                                    "addresses vary per run — hash a stable "
                                    "identity instead"
                                ),
                                context=context_of(info, sub),
                            )
                        )
        return findings


class FreshSetMembershipRule(Rule):
    id = "D105"
    title = "no membership test against a freshly built set"
    rationale = (
        "`x in set(xs)` rebuilds the set on every evaluation — O(n) "
        "per test inside comprehensions and loops. Hoist it into a "
        "precomputed frozenset."
    )
    bad = "live = [p for p in pids if p not in set(spec.faulty_pids)]"
    good = "faulty = frozenset(spec.faulty_pids)\nlive = [p for p in pids if p not in faulty]"

    def check(self, info: ModuleInfo, ctx: LintContext) -> List[Finding]:
        if not info.in_dirs(D_SCOPE):
            return []
        findings: List[Finding] = []
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Compare):
                continue
            for op, comparator in zip(node.ops, node.comparators):
                if not isinstance(op, (ast.In, ast.NotIn)):
                    continue
                if isinstance(comparator, ast.Call) and call_name(
                    comparator
                ) in ("set", "frozenset"):
                    findings.append(
                        Finding(
                            path=info.relpath,
                            line=comparator.lineno,
                            col=comparator.col_offset,
                            rule=self.id,
                            message=(
                                "membership test rebuilds "
                                f"{call_name(comparator)}(...) at every "
                                "evaluation; hoist into a precomputed "
                                "frozenset"
                            ),
                            context=context_of(info, comparator),
                        )
                    )
        return findings


DETERMINISM_RULES = [
    WallClockRule(),
    GlobalRandomRule(),
    SetOrderRule(),
    IdInDigestRule(),
    FreshSetMembershipRule(),
]
