"""Fault-schedule fuzzing: one generator, one campaign loop, one CLI.

* :mod:`~repro.fuzz.generator` — the seeded blind generator
  (:func:`generate_scenario`, survivable schedules only) and the
  pair-preserving shrinker (:func:`shrink_spec`);
* :mod:`~repro.fuzz.signature` — a deterministic execution-coverage
  signature (views reached, fast-vs-slow path, partition shapes,
  checkpoint/catchup activity, bucketed message counts, oracle outcomes
  and *near-miss margins*) bucketed so noise is not novelty;
* :mod:`~repro.fuzz.corpus` — signature-novel specs persisted as
  canonical JSON, with energy-weighted scheduling and greedy set-cover
  minimization;
* :mod:`~repro.fuzz.mutators` — splice/perturb operators over
  :class:`~repro.scenarios.spec.ScenarioSpec`, including plenum-style
  per-payload-type delay-rule stashers;
* :mod:`~repro.fuzz.campaign` — the round loop: sharded fleet execution
  with deterministic merge (serial == sharded, byte-identical report
  digests), dual seed/wall-clock budgets, shrinking of failures.  Guided
  mode mutates an energy-weighted corpus (the AFL loop over scenarios);
  blind mode (:func:`run_blind`) walks consecutive generator seeds;
* ``python -m repro.fuzz campaign|replay|corpus`` — the CLI.
"""

from .campaign import (
    CampaignConfig,
    CampaignFailure,
    CampaignReport,
    run_blind,
    run_campaign,
)
from .corpus import Corpus, CorpusEntry
from .generator import generate_scenario, shrink_spec
from .mutators import MUTATORS, PAYLOAD_TYPES, mutate
from .signature import signature_features, signature_key

__all__ = [
    "CampaignConfig",
    "CampaignFailure",
    "CampaignReport",
    "Corpus",
    "CorpusEntry",
    "MUTATORS",
    "PAYLOAD_TYPES",
    "generate_scenario",
    "mutate",
    "run_blind",
    "run_campaign",
    "shrink_spec",
    "signature_features",
    "signature_key",
]
