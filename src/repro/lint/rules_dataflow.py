"""V- and W-series rules: per-function dataflow walks.

V301 (verify-before-use): a handler method receiving a *signed* payload
(a class declaring a ``signature``/``cert``/``signatures`` field) must
pass it through ``KeyRegistry.verify`` / ``verify_all`` or a
``*_valid``/``*_acceptable`` certificate validator before any statement
mutates replica state using that payload.

W401/W402 (WAL ordering): in decide paths, the decided-state store must
be dominated by the corresponding ``wal.append_decide``; WAL truncation
must be dominated by checkpoint persistence.  Replay loops that iterate
the WAL itself are exempt — their values are already durable.

Both walks are intra-procedural over the statement list in source
order: simple by design, precise enough for the handler idioms this
codebase uses (early-return guards, then mutate).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from .base import LintContext, Rule
from .findings import Finding
from .modinfo import ModuleInfo, call_name, dotted_name

#: Field names that mark a message class as signed/certified.
SIGNED_FIELDS = frozenset({"signature", "cert", "signatures"})

#: Method-name shapes treated as message handlers.
_HANDLER_PREFIXES = ("_handle_", "_record_", "_on_")

#: Final-attribute shapes treated as state mutation when fed the
#: unverified payload.
_MUTATOR_EXACT = frozenset(
    {"add", "append", "appendleft", "extend", "insert", "setdefault",
     "remove", "discard", "pop", "push", "write"}
)
_MUTATOR_PREFIXES = (
    "record", "install", "apply", "adopt", "store", "append", "update",
    "set_", "add_", "insert", "push", "write",
)

_VERIFY_ATTRS = frozenset({"verify", "verify_all"})
_VERIFY_SUFFIXES = ("_valid", "_acceptable", "_validate")
_VERIFY_NAMES = frozenset({"validate", "verify_certificate", "check_signature"})

V_SCOPE = frozenset({"smr", "storage", "core", "sync"})
W_SCOPE = frozenset({"smr", "storage"})


def collect_signed_types(modules: List[ModuleInfo]) -> frozenset:
    """Class names declaring a signature/cert field, across all linted
    modules — the V-rule's definition of 'signed payload type'."""
    names: Set[str] = set()
    for info in modules:
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                target: Optional[ast.expr] = None
                if isinstance(item, ast.AnnAssign):
                    target = item.target
                elif isinstance(item, ast.Assign) and len(item.targets) == 1:
                    target = item.targets[0]
                if (
                    isinstance(target, ast.Name)
                    and target.id in SIGNED_FIELDS
                ):
                    names.add(node.name)
                    break
    return frozenset(names)


def _annotation_names(ann: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for sub in ast.walk(ann):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value.strip())
    return names


def _is_handler(func: ast.FunctionDef) -> bool:
    return func.name.startswith(_HANDLER_PREFIXES)


def _references(node: ast.AST, names: Set[str]) -> bool:
    return any(
        isinstance(sub, ast.Name) and sub.id in names
        for sub in ast.walk(node)
    )


def _contains_verification(stmt: ast.stmt) -> bool:
    for sub in ast.walk(stmt):
        if not isinstance(sub, ast.Call):
            continue
        if (
            isinstance(sub.func, ast.Attribute)
            and sub.func.attr in _VERIFY_ATTRS
        ):
            return True
        name = call_name(sub)
        if name in _VERIFY_NAMES or name.endswith(_VERIFY_SUFFIXES):
            return True
    return False


def _mutator_attr(attr: str) -> bool:
    plain = attr.lstrip("_")
    return plain in _MUTATOR_EXACT or plain.startswith(_MUTATOR_PREFIXES)


def _mutations_using(
    stmt: ast.stmt, params: Set[str], own_handlers: Set[str]
) -> Iterator[ast.AST]:
    """Yield nodes in ``stmt`` that mutate self-state using a monitored
    parameter.  ``own_handlers`` are sibling handler methods — a plain
    ``self._handle_x(payload)`` call is delegation, not mutation."""
    for sub in ast.walk(stmt):
        if isinstance(sub, (ast.Assign, ast.AugAssign)):
            targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
            for target in targets:
                if _targets_self_state(target) and _references(sub, params):
                    yield sub
                    break
        elif isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
            chain = dotted_name(sub.func)
            if not chain.startswith("self."):
                continue
            parts = chain.split(".")
            if len(parts) == 2 and parts[1] in own_handlers:
                continue  # delegation to a sibling handler
            if _mutator_attr(sub.func.attr) and any(
                _references(arg, params)
                for arg in list(sub.args) + [kw.value for kw in sub.keywords]
            ):
                yield sub


def _targets_self_state(target: ast.AST) -> bool:
    cur = target
    while isinstance(cur, (ast.Subscript, ast.Attribute)):
        if isinstance(cur, ast.Attribute) and isinstance(cur.value, ast.Name):
            return cur.value.id == "self"
        cur = cur.value
    return False


def _iter_stmts(body: List[ast.stmt]) -> Iterator[ast.stmt]:
    """Pre-order statement walk in source order, not descending into
    nested function definitions."""
    for stmt in body:
        yield stmt
        for field in ("body", "orelse", "finalbody"):
            sub = getattr(stmt, field, None)
            if sub and not isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                yield from _iter_stmts(sub)
        for handler in getattr(stmt, "handlers", []) or []:
            yield from _iter_stmts(handler.body)


class VerifyBeforeUseRule(Rule):
    id = "V301"
    title = "signed payload used before verification"
    rationale = (
        "A Byzantine sender forges unverified payloads; state mutated "
        "before KeyRegistry.verify / a certificate validator runs is "
        "attacker-controlled."
    )
    bad = "def _record_vote(self, sender, vote: CheckpointVote):\n    self._votes[vote.slot] = vote  # before verify"
    good = "if not self._registry.verify(vote.signature, payload):\n    return\nself._votes[vote.slot] = vote"

    def check(self, info: ModuleInfo, ctx: LintContext) -> List[Finding]:
        if not info.in_dirs(V_SCOPE):
            return []
        findings: List[Finding] = []
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            own_handlers = {
                item.name
                for item in node.body
                if isinstance(item, ast.FunctionDef) and _is_handler(item)
            }
            for item in node.body:
                if not isinstance(item, ast.FunctionDef) or not _is_handler(item):
                    continue
                params = {
                    arg.arg
                    for arg in item.args.args + item.args.kwonlyargs
                    if arg.annotation is not None
                    and _annotation_names(arg.annotation) & ctx.signed_types
                }
                if not params:
                    continue
                verified = False
                for stmt in _iter_stmts(item.body):
                    if _contains_verification(stmt):
                        verified = True
                    if verified:
                        break
                    for mutation in _mutations_using(stmt, params, own_handlers):
                        findings.append(
                            Finding(
                                path=info.relpath,
                                line=mutation.lineno,
                                col=mutation.col_offset,
                                rule=self.id,
                                message=(
                                    f"{node.name}.{item.name} mutates state "
                                    f"using signed payload ({', '.join(sorted(params))}) "
                                    "before any verify/validator call"
                                ),
                                context=f"{node.name}.{item.name}",
                            )
                        )
                        break  # one finding per handler is enough
                    else:
                        continue
                    break
        return findings


class WalDecideRule(Rule):
    id = "W401"
    title = "decide effect not dominated by WAL append"
    rationale = (
        "A decided slot recorded in memory before wal.append_decide is "
        "lost on crash, breaking recovery; replay loops reading the WAL "
        "itself are exempt."
    )
    bad = "self._decided[slot] = value\nself.storage.wal.append_decide(slot, value)"
    good = "self.storage.wal.append_decide(slot, value)\nself._decided[slot] = value"

    def check(self, info: ModuleInfo, ctx: LintContext) -> List[Finding]:
        if not info.in_dirs(W_SCOPE):
            return []
        findings: List[Finding] = []
        for node in ast.walk(info.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            self._walk(node.body, False, False, info, findings)
        return findings

    def _walk(
        self,
        body: List[ast.stmt],
        appended: bool,
        wal_derived: bool,
        info: ModuleInfo,
        findings: List[Finding],
    ) -> bool:
        for stmt in body:
            if self._contains_append(stmt):
                appended = True
            exempt = wal_derived
            if isinstance(stmt, ast.For) and self._wal_sourced(stmt.iter):
                exempt = True
            for store in self._decided_stores(stmt):
                if not appended and not exempt:
                    findings.append(
                        Finding(
                            path=info.relpath,
                            line=store.lineno,
                            col=store.col_offset,
                            rule=self.id,
                            message=(
                                "decided-state store is not preceded by "
                                "wal.append_decide in this function; crash "
                                "here loses the decision"
                            ),
                            context=f"<{info.basename}>",
                        )
                    )
            for field in ("body", "orelse", "finalbody"):
                sub = getattr(stmt, field, None)
                if sub and not isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    appended = self._walk(sub, appended, exempt, info, findings)
            for handler in getattr(stmt, "handlers", []) or []:
                appended = self._walk(
                    handler.body, appended, exempt, info, findings
                )
        return appended

    @staticmethod
    def _contains_append(stmt: ast.stmt) -> bool:
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Call) and isinstance(
                sub.func, ast.Attribute
            ):
                if sub.func.attr == "append_decide":
                    return True
                if sub.func.attr == "append" and "wal" in dotted_name(
                    sub.func
                ):
                    return True
        return False

    @staticmethod
    def _wal_sourced(node: ast.AST) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and sub.attr == "wal":
                return True
            if isinstance(sub, ast.Call) and call_name(sub) == "decides":
                return True
        return False

    @staticmethod
    def _decided_stores(stmt: ast.stmt) -> Iterator[ast.AST]:
        targets: List[ast.AST] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, ast.AugAssign):
            targets = [stmt.target]
        for target in targets:
            if (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Attribute)
                and target.value.attr in ("_decided", "decided")
                and isinstance(target.value.value, ast.Name)
                and target.value.value.id == "self"
            ):
                yield target


class WalTruncateRule(Rule):
    id = "W402"
    title = "WAL truncation not dominated by checkpoint persistence"
    rationale = (
        "Truncating the WAL before the covering checkpoint is durable "
        "can lose both on crash; persist/install the checkpoint first."
    )
    bad = "self.wal.truncate_upto(cp.slot)\nself._checkpoint = cp"
    good = "self._checkpoint = cp\nself._persist_checkpoint()\nself.wal.truncate_upto(cp.slot)"

    def check(self, info: ModuleInfo, ctx: LintContext) -> List[Finding]:
        if not info.in_dirs(W_SCOPE):
            return []
        findings: List[Finding] = []
        for node in ast.walk(info.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name == "truncate_upto":
                continue  # the definition itself
            persisted = False
            for stmt in _iter_stmts(node.body):
                if self._persists_checkpoint(stmt):
                    persisted = True
                for trunc in self._truncate_calls(stmt):
                    if not persisted:
                        findings.append(
                            Finding(
                                path=info.relpath,
                                line=trunc.lineno,
                                col=trunc.col_offset,
                                rule=self.id,
                                message=(
                                    "wal truncation is not preceded by "
                                    "checkpoint persistence in this function"
                                ),
                                context=f"<{info.basename}>.{node.name}",
                            )
                        )
        return findings

    @staticmethod
    def _persists_checkpoint(stmt: ast.stmt) -> bool:
        for sub in ast.walk(stmt):
            if isinstance(sub, (ast.Assign, ast.AugAssign)):
                targets = (
                    sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and "checkpoint" in target.attr
                    ):
                        return True
            if isinstance(sub, ast.Call) and "checkpoint" in call_name(sub):
                return True
        return False

    @staticmethod
    def _truncate_calls(stmt: ast.stmt) -> Iterator[ast.Call]:
        for sub in ast.walk(stmt):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "truncate_upto"
            ):
                yield sub


DATAFLOW_RULES = [VerifyBeforeUseRule(), WalDecideRule(), WalTruncateRule()]
