"""Tests for ``repro.lint`` — fixture-driven per-rule checks, the
suppression machinery, JSON schema stability, and the
self-application gate (the repo's own tree must lint clean).

Each rule gets at least one failing and one passing fixture, written
into a tmp tree laid out like the real package (``smr/``, ``sim/``,
...) so the rules' directory scoping is exercised too.
"""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.lint import run_lint
from repro.lint.cli import main as lint_main
from repro.lint.rules import RULES_BY_ID

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint_tree(tmp_path: Path, files: dict):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return run_lint([tmp_path], root=tmp_path)


def rules_found(result):
    return sorted(f.rule for f in result.findings)


# ----------------------------------------------------------------------
# D-series
# ----------------------------------------------------------------------

class TestD101WallClock:
    def test_fails_on_wall_clock(self, tmp_path):
        result = lint_tree(tmp_path, {
            "sim/clock.py": (
                "import time\n"
                "def stamp():\n"
                "    return time.time()\n"
            ),
        })
        assert rules_found(result) == ["D101"]

    def test_fails_on_datetime_and_urandom(self, tmp_path):
        result = lint_tree(tmp_path, {
            "smr/meta.py": (
                "import datetime, os\n"
                "def meta():\n"
                "    return datetime.datetime.now(), os.urandom(8)\n"
            ),
        })
        assert rules_found(result) == ["D101", "D101"]

    def test_passes_on_simulated_clock(self, tmp_path):
        result = lint_tree(tmp_path, {
            "sim/clock.py": (
                "def stamp(self):\n"
                "    return self.now\n"
            ),
        })
        assert result.findings == []

    def test_out_of_scope_dir_not_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {
            "analysis/prof.py": (
                "import time\n"
                "def stamp():\n"
                "    return time.time()\n"
            ),
        })
        assert result.findings == []


class TestD102GlobalRandom:
    def test_fails_on_module_level_draw(self, tmp_path):
        result = lint_tree(tmp_path, {
            "sim/net.py": (
                "import random\n"
                "def jitter():\n"
                "    return random.uniform(0.0, 1.0)\n"
            ),
        })
        assert rules_found(result) == ["D102"]

    def test_passes_on_seeded_instance(self, tmp_path):
        result = lint_tree(tmp_path, {
            "sim/net.py": (
                "import random\n"
                "def jitter(seed):\n"
                "    rng = random.Random(seed)\n"
                "    return rng.uniform(0.0, 1.0)\n"
            ),
        })
        assert result.findings == []


class TestD103SetOrder:
    def test_fails_on_set_iteration_into_send(self, tmp_path):
        result = lint_tree(tmp_path, {
            "smr/bcast.py": (
                "def go(net, peers):\n"
                "    targets = set(peers)\n"
                "    for pid in targets:\n"
                "        net.send(pid, 'm')\n"
            ),
        })
        assert rules_found(result) == ["D103"]

    def test_fails_on_set_comprehension_into_digest(self, tmp_path):
        result = lint_tree(tmp_path, {
            "smr/dig.py": (
                "def dig(sha256, votes):\n"
                "    return sha256(b''.join(v.raw for v in set(votes)))\n"
            ),
        })
        assert rules_found(result) == ["D103"]

    def test_passes_with_sorted_wrapper(self, tmp_path):
        result = lint_tree(tmp_path, {
            "smr/bcast.py": (
                "def go(net, peers):\n"
                "    targets = set(peers)\n"
                "    for pid in sorted(targets):\n"
                "        net.send(pid, 'm')\n"
            ),
        })
        assert result.findings == []

    def test_passes_when_no_sink_in_loop(self, tmp_path):
        result = lint_tree(tmp_path, {
            "smr/count.py": (
                "def tally(votes):\n"
                "    total = 0\n"
                "    for v in set(votes):\n"
                "        total += 1\n"
                "    return total\n"
            ),
        })
        assert result.findings == []


class TestD104IdInDigest:
    def test_fails_on_id_into_hash(self, tmp_path):
        result = lint_tree(tmp_path, {
            "smr/dig.py": (
                "import hashlib\n"
                "def dig(msg):\n"
                "    return hashlib.sha256(str(id(msg)).encode())\n"
            ),
        })
        assert rules_found(result) == ["D104"]

    def test_passes_on_stable_identity(self, tmp_path):
        result = lint_tree(tmp_path, {
            "smr/dig.py": (
                "import hashlib\n"
                "def dig(msg):\n"
                "    return hashlib.sha256(msg.canonical().encode())\n"
            ),
        })
        assert result.findings == []


class TestD105FreshSetMembership:
    def test_fails_on_fresh_set_membership(self, tmp_path):
        result = lint_tree(tmp_path, {
            "scenarios/adapt.py": (
                "def live(pids, faulty):\n"
                "    return [p for p in pids if p not in set(faulty)]\n"
            ),
        })
        assert rules_found(result) == ["D105"]

    def test_passes_on_hoisted_frozenset(self, tmp_path):
        result = lint_tree(tmp_path, {
            "scenarios/adapt.py": (
                "def live(pids, faulty):\n"
                "    down = frozenset(faulty)\n"
                "    return [p for p in pids if p not in down]\n"
            ),
        })
        assert result.findings == []


# ----------------------------------------------------------------------
# Q-series
# ----------------------------------------------------------------------

class TestQ201QuorumLiteral:
    def test_fails_on_rederived_majority(self, tmp_path):
        result = lint_tree(tmp_path, {
            "smr/q.py": (
                "def stable(votes, f):\n"
                "    return len(votes) >= 2 * f + 1\n"
            ),
        })
        assert rules_found(result) == ["Q201"]
        assert "majority_correct" in result.findings[0].message

    def test_fails_on_rederived_paper_bound(self, tmp_path):
        result = lint_tree(tmp_path, {
            "experiments/grid.py": (
                "def size(f, t):\n"
                "    return max(3 * f + 2 * t - 1, 3 * f + 1)\n"
            ),
        })
        assert rules_found(result) == ["Q201"]
        assert "min_processes_fast_bft" in result.findings[0].message

    def test_passes_on_named_call(self, tmp_path):
        result = lint_tree(tmp_path, {
            "smr/q.py": (
                "from repro.core.quorums import majority_correct\n"
                "def stable(votes, f):\n"
                "    return len(votes) >= majority_correct(f)\n"
            ),
        })
        assert result.findings == []

    def test_range_sweep_not_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {
            "experiments/sweep.py": (
                "def cells(f):\n"
                "    return [c for c in range(f + 1)]\n"
            ),
        })
        assert result.findings == []

    def test_config_class_is_definition_site(self, tmp_path):
        result = lint_tree(tmp_path, {
            "baselines/x.py": (
                "class XConfig:\n"
                "    @property\n"
                "    def quorum(self):\n"
                "        return 2 * self.f + 1\n"
            ),
        })
        assert result.findings == []

    def test_stays_in_sync_with_linted_definitions(self, tmp_path):
        # A definitions module in the linted tree extends the model: the
        # client's literal is reported against the *current* name, so a
        # rename in config.py automatically renames the suggestion.
        result = lint_tree(tmp_path, {
            "shard/config.py": (
                "class ShardConfig:\n"
                "    @property\n"
                "    def shard_quorum(self):\n"
                "        return 4 * self.f + 2\n"
            ),
            "shard/router.py": (
                "def route(f):\n"
                "    return 4 * f + 2\n"
            ),
        })
        assert rules_found(result) == ["Q201"]
        assert "ShardConfig.shard_quorum" in result.findings[0].message


class TestQ202UnknownThreshold:
    def test_fails_on_unknown_threshold_form(self, tmp_path):
        result = lint_tree(tmp_path, {
            "smr/q.py": (
                "def need(n, f):\n"
                "    return 2 * n - 3 * f\n"
            ),
        })
        assert rules_found(result) == ["Q202"]

    def test_complexity_products_not_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {
            "benchmarks_like/b.py": (
                "def messages(n):\n"
                "    return n * n\n"
            ),
        })
        assert result.findings == []

    def test_simple_counting_not_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {
            "smr/peers.py": (
                "def others(n):\n"
                "    return n - 1\n"
            ),
        })
        assert result.findings == []


# ----------------------------------------------------------------------
# V-series
# ----------------------------------------------------------------------

_SIGNED_TYPE = (
    "class Vote:\n"
    "    slot: int\n"
    "    signature: object\n"
)


class TestV301VerifyBeforeUse:
    def test_fails_on_mutation_before_verify(self, tmp_path):
        result = lint_tree(tmp_path, {
            "smr/h.py": (
                _SIGNED_TYPE +
                "class Replica:\n"
                "    def _handle_vote(self, sender: int, vote: Vote) -> None:\n"
                "        self._votes[vote.slot] = vote\n"
            ),
        })
        assert rules_found(result) == ["V301"]

    def test_fails_on_mutating_call_before_verify(self, tmp_path):
        result = lint_tree(tmp_path, {
            "smr/h.py": (
                _SIGNED_TYPE +
                "class Replica:\n"
                "    def _record_vote(self, sender: int, vote: Vote) -> None:\n"
                "        self._tracker.record_vote(sender, vote)\n"
            ),
        })
        assert rules_found(result) == ["V301"]

    def test_passes_with_verify_guard(self, tmp_path):
        result = lint_tree(tmp_path, {
            "smr/h.py": (
                _SIGNED_TYPE +
                "class Replica:\n"
                "    def _handle_vote(self, sender: int, vote: Vote) -> None:\n"
                "        if not self._registry.verify(vote.signature, b'p'):\n"
                "            return\n"
                "        self._votes[vote.slot] = vote\n"
            ),
        })
        assert result.findings == []

    def test_delegation_to_sibling_handler_is_not_mutation(self, tmp_path):
        result = lint_tree(tmp_path, {
            "smr/h.py": (
                _SIGNED_TYPE +
                "class Replica:\n"
                "    def _handle_vote(self, sender: int, vote: Vote) -> None:\n"
                "        self._record_vote(sender, vote)\n"
                "    def _record_vote(self, sender: int, vote: Vote) -> None:\n"
                "        if not self._registry.verify(vote.signature, b'p'):\n"
                "            return\n"
                "        self._votes[vote.slot] = vote\n"
            ),
        })
        assert result.findings == []

    def test_unannotated_payload_not_monitored(self, tmp_path):
        result = lint_tree(tmp_path, {
            "smr/h.py": (
                "class Replica:\n"
                "    def on_message(self, sender, payload):\n"
                "        self._last[sender] = payload\n"
            ),
        })
        assert result.findings == []


# ----------------------------------------------------------------------
# W-series
# ----------------------------------------------------------------------

class TestW401WalDecide:
    def test_fails_when_store_precedes_append(self, tmp_path):
        result = lint_tree(tmp_path, {
            "smr/d.py": (
                "class R:\n"
                "    def adopt(self, slot, value):\n"
                "        self._decided[slot] = value\n"
                "        self.storage.wal.append_decide(slot, value)\n"
            ),
        })
        assert rules_found(result) == ["W401"]

    def test_passes_when_append_dominates(self, tmp_path):
        result = lint_tree(tmp_path, {
            "smr/d.py": (
                "class R:\n"
                "    def adopt(self, slot, value):\n"
                "        if self.storage is not None:\n"
                "            self.storage.wal.append_decide(slot, value)\n"
                "        self._decided[slot] = value\n"
            ),
        })
        assert result.findings == []

    def test_wal_replay_loop_is_exempt(self, tmp_path):
        result = lint_tree(tmp_path, {
            "smr/d.py": (
                "class R:\n"
                "    def rebuild(self):\n"
                "        for slot, value in self.storage.wal.decides():\n"
                "            self._decided[slot] = value\n"
            ),
        })
        assert result.findings == []


class TestW402WalTruncate:
    def test_fails_when_truncate_precedes_checkpoint(self, tmp_path):
        result = lint_tree(tmp_path, {
            "storage/s.py": (
                "class S:\n"
                "    def install(self, cp):\n"
                "        self.wal.truncate_upto(cp.slot)\n"
                "        self._checkpoint = cp\n"
            ),
        })
        assert rules_found(result) == ["W402"]

    def test_passes_when_checkpoint_persisted_first(self, tmp_path):
        result = lint_tree(tmp_path, {
            "storage/s.py": (
                "class S:\n"
                "    def install(self, cp):\n"
                "        self._checkpoint = cp\n"
                "        self._persist_checkpoint()\n"
                "        return self.wal.truncate_upto(cp.slot)\n"
            ),
        })
        assert result.findings == []


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------

class TestSuppressions:
    def test_justified_suppression_silences_finding(self, tmp_path):
        result = lint_tree(tmp_path, {
            "sim/clock.py": (
                "import time\n"
                "def stamp():\n"
                "    return time.time()  # lint: ignore[D101]: report metadata only\n"
            ),
        })
        assert result.findings == []
        assert result.suppressed == 1

    def test_missing_justification_is_sup001(self, tmp_path):
        result = lint_tree(tmp_path, {
            "sim/clock.py": (
                "import time\n"
                "def stamp():\n"
                "    return time.time()  # lint: ignore[D101]\n"
            ),
        })
        assert rules_found(result) == ["SUP001"]
        assert result.suppressed == 1

    def test_standalone_comment_covers_next_line(self, tmp_path):
        result = lint_tree(tmp_path, {
            "sim/clock.py": (
                "import time\n"
                "def stamp():\n"
                "    # lint: ignore[D101]: report metadata only\n"
                "    return time.time()\n"
            ),
        })
        assert result.findings == []
        assert result.suppressed == 1

    def test_unused_suppression_is_sup002(self, tmp_path):
        result = lint_tree(tmp_path, {
            "sim/clean.py": (
                "def add(a, b):\n"
                "    return a + b  # lint: ignore[D101]: stale\n"
            ),
        })
        assert rules_found(result) == ["SUP002"]

    def test_wrong_rule_id_does_not_suppress(self, tmp_path):
        result = lint_tree(tmp_path, {
            "sim/clock.py": (
                "import time\n"
                "def stamp():\n"
                "    return time.time()  # lint: ignore[Q201]: wrong id\n"
            ),
        })
        assert sorted(rules_found(result)) == ["D101", "SUP002"]


# ----------------------------------------------------------------------
# JSON schema + CLI
# ----------------------------------------------------------------------

class TestJsonAndCli:
    def test_json_schema_is_stable(self, tmp_path):
        result = lint_tree(tmp_path, {
            "sim/clock.py": "import time\ndef f():\n    return time.time()\n",
        })
        payload = result.to_json()
        assert set(payload) == {
            "version", "tool", "files_checked", "findings", "counts",
            "suppressed", "exit_code",
        }
        assert payload["version"] == 1
        assert payload["tool"] == "repro.lint"
        assert payload["exit_code"] == 1
        (finding,) = payload["findings"]
        assert set(finding) == {
            "rule", "path", "line", "col", "message", "context",
        }
        assert finding["path"] == "sim/clock.py"

    def test_cli_exit_codes_and_json_file(self, tmp_path, capsys):
        bad = tmp_path / "sim"
        bad.mkdir()
        (bad / "clock.py").write_text(
            "import time\ndef f():\n    return time.time()\n"
        )
        out = tmp_path / "lint-out.json"
        code = lint_main([str(tmp_path), "--json", str(out)])
        assert code == 1
        assert json.loads(out.read_text())["counts"] == {"D101": 1}

        (bad / "clock.py").write_text("def f(self):\n    return self.now\n")
        assert lint_main([str(tmp_path), "--json", str(out)]) == 0
        assert json.loads(out.read_text())["findings"] == []

    def test_cli_missing_path_is_usage_error(self):
        assert lint_main(["definitely/not/a/path"]) == 2

    def test_cli_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULES_BY_ID:
            assert rule_id in out


# ----------------------------------------------------------------------
# Self-application: the repo's own tree must lint clean
# ----------------------------------------------------------------------

class TestSelfApplication:
    def test_repo_tree_is_clean(self):
        result = run_lint(
            [REPO_ROOT / "src", REPO_ROOT / "benchmarks", REPO_ROOT / "examples"],
            root=REPO_ROOT,
        )
        assert result.findings == [], "\n".join(
            f.render() for f in result.findings
        )
        assert result.files_checked > 100

    def test_reintroduced_violation_is_caught(self, tmp_path):
        # The acceptance check from the issue: a 2f+1 literal in a
        # replica file and an unsorted set-broadcast must fail the lint.
        result = lint_tree(tmp_path, {
            "smr/replica.py": (
                "def stable(votes, f):\n"
                "    return len(votes) >= 2 * f + 1\n"
                "def gossip(net, peers):\n"
                "    for pid in set(peers):\n"
                "        net.broadcast(pid)\n"
            ),
        })
        assert rules_found(result) == ["D103", "Q201"]
