"""What one consensus instance costs in messages, predicted in closed form.

Every family here sends a fixed number of messages of each type for a
given ``n`` and fault pattern, whatever the delays, so
``messages_by_type`` is a formula, and a message the formula does not
predict fails the test.  A message a process sends itself (the leader's
own proposal, its own ack) is counted like any other, in every family,
so the families compare like for like; a deployment would not put those
``n`` to ``2n`` copies on a wire.

* **vanilla fbft, no fault:** n ``Propose`` + n² ``Ack``.  Required by
  the paper: the fast path is the leader's broadcast and one all-to-all
  ack round (Section 3.1, Figure 1a).
* **vanilla fbft, silent view-1 leader:** n(n − 1) ``WishMessage`` +
  n ``Propose`` + n(n − 1) ``Ack`` + (n − 2) ``Vote`` + n ``CertRequest``
  + (n − 1) ``CertAck``.  The n − 1 correct processes each broadcast one
  wish and one ack; each but the view-2 leader sends it a vote (the
  leader keeps its own); every correct process answers the certificate
  request.  The votes and the ``CertRequest`` / ``CertAck`` round trip
  are the paper's (Section 3.2: the round trip is the price of a
  progress certificate whose size does not grow with the view).  The
  wishes are not: the paper assumes a view synchronizer and does not
  count it, and this repo's (``repro.sync``, all-to-all wish
  amplification) is the largest term.  The paper asks the leader to
  contact at least 2f + 1 certifiers and to use f + 1 answers; the
  leader broadcasts and every correct process answers.
* **generalized fbft at n = 3f + 1, t = 1, s silent non-leaders:**
  n ``Propose`` + (n − s)·n each of ``Ack``, ``AckSig`` and ``Commit``.
  Required by Appendix A: each correct process signs its ack in a
  separate ``AckSig`` (so signing never delays the fast path) and
  broadcasts ``Commit(cc)`` once it holds a commit certificate, whether
  or not the fast path has already decided.  Each ``Commit`` carries the
  certificate only, so the value travels once per copy.
* **pbft:** n ``PrePrepare`` + n² ``Prepare`` + n² ``PBFTCommit``, that
  is n + 2n².  Castro–Liskov's count leaves out the primary's prepare;
  this baseline's primary sends one like every replica.
* **FaB:** n ``FabPropose`` + n² ``FabAccept``, that is n + n²: FaB's
  two-step common case with every process in every role.

Summed over the 200 instances of the end-to-end benchmark's
``consensus_bound`` workload, the forms give 81,850 messages, its
``msgs_per_op`` of 409.25 per instance exactly.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.core.config import ProtocolConfig
from repro.scenarios.runner import run_scenario

REPO_ROOT = Path(__file__).resolve().parents[1]


def _workloads():
    """``benchmarks/e2e/workloads.py``, which is not a package."""
    name = "e2e_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, REPO_ROOT / "benchmarks" / "e2e" / "workloads.py"
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses resolve their module
        spec.loader.exec_module(module)
    return sys.modules[name]


def predicted(spec) -> dict:
    """The closed form of the module docstring for ``spec``'s family and
    fault pattern, as ``messages_by_type``."""
    n = spec.n
    silent = {role.pid for role in spec.byzantine}
    assert all(role.behavior == "silent" for role in spec.byzantine)
    if spec.protocol == "pbft":
        assert not silent
        return {"PrePrepare": n, "Prepare": n * n, "PBFTCommit": n * n}
    if spec.protocol == "fab":
        assert not silent
        return {"FabPropose": n, "FabAccept": n * n}
    assert spec.protocol == "fbft"
    config = ProtocolConfig(n=n, f=spec.f, t=spec.f if spec.t is None else spec.t)
    if config.is_vanilla and not silent:
        return {"Propose": n, "Ack": n * n}
    if config.is_vanilla:
        assert silent == {config.leader_of(1)}
        return {
            "WishMessage": n * (n - 1),
            "Propose": n,
            "Ack": n * (n - 1),
            "Vote": n - 2,
            "CertRequest": n,
            "CertAck": n - 1,
        }
    assert config.t == 1 and n == 3 * config.f + 1
    assert config.leader_of(1) not in silent
    live = n - len(silent)
    return {"Propose": n, "Ack": live * n, "AckSig": live * n, "Commit": live * n}


CONSENSUS_BOUND = _workloads().make_inputs(
    "consensus_bound", seed=1, quick=False, repo_root=REPO_ROOT
)


@pytest.mark.parametrize(
    "spec", [item.spec for item in CONSENSUS_BOUND.items], ids=lambda spec: spec.name
)
def test_instance_sends_its_closed_form(spec):
    result = run_scenario(spec)
    assert result.ok and result.decided
    assert result.messages_by_type == predicted(spec)


def test_forms_sum_to_consensus_bound_msgs_per_op():
    specs = [item.spec for item in CONSENSUS_BOUND.items]
    total = sum(sum(predicted(spec).values()) for spec in specs)
    assert (len(specs), total) == (200, 81_850)
    assert total / len(specs) == 409.25
