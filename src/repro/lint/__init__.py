"""``repro.lint`` — a protocol-aware static analyzer for this repository.

The repo's correctness story rests on invariants no off-the-shelf tool
checks:

* **Determinism** (D-series): the golden trace digests
  (``tests/golden/scenario_digests.json``) pin every simulated execution
  byte-for-byte, so protocol/sim code must never read wall clocks or OS
  entropy, never draw from the process-global ``random`` module, never
  let unordered ``set`` iteration reach a ``send``/``broadcast``/digest,
  and never feed ``id()`` into a digest.
* **Quorum arithmetic** (Q-series): thresholds derived from the paper's
  ``n >= 3f + 2t - 1`` bound must flow through the *named* properties in
  :mod:`repro.core.config` / :mod:`repro.core.quorums` — a hand-rolled
  ``2*f + 1`` drifts silently when the model changes.  The rule checks
  expressions *structurally against the definitions* (the named
  properties are parsed and canonicalized), so renaming a property keeps
  the lint in sync automatically.
* **Verify-before-use** (V-series): a signed payload delivered to a
  replica handler must pass through :meth:`KeyRegistry.verify` or a
  certificate validator before it mutates replica state.
* **WAL ordering** (W-series): decide effects must follow the
  write-ahead append, and WAL truncation must follow checkpoint
  persistence.

Run it as ``python -m repro.lint [paths ...] [--json FILE]``; see
:mod:`repro.lint.cli`.  The one way to silence a finding is inline, with ``# lint: ignore[RULE]: justification`` — the
justification is mandatory (a bare suppression is itself a finding,
``SUP001``), and a suppression that suppresses nothing is flagged too
(``SUP002``).

Built on stdlib :mod:`ast` only — no new dependencies.
"""

from .engine import LintResult, run_lint
from .findings import Finding
from .rules import ALL_RULES, rule_table

__all__ = ["ALL_RULES", "Finding", "LintResult", "rule_table", "run_lint"]
