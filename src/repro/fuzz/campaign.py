"""The coverage-guided campaign engine.

A campaign is rounds of scenario executions over a shared corpus:

* **cold start** — the first ``warmup`` runs (and a small
  ``fresh_fraction`` forever after) come from the blind generator,
  :func:`~repro.fuzz.generator.generate_scenario`, seeding the corpus
  with baseline behaviors; ``mode="blind"`` (:func:`run_blind`) draws
  only from it;
* **warm loop** — every other run mutates an energy-weighted corpus pick
  (:mod:`repro.fuzz.mutators`), replacing fresh draws once the corpus
  knows something;
* **admission** — a run whose coverage signature contains any feature no
  corpus entry covers earns a corpus slot
  (:meth:`~repro.fuzz.corpus.Corpus.consider`);
* **fleet execution** — each round's batch can be sharded over worker
  processes; shard outcomes merge back in input order, so a sharded
  campaign is byte-identical to a serial one (same corpus + seed +
  budget ⇒ identical report digest);
* **oracle gate** — failing runs are shrunk to minimal reproducers in
  the parent (deterministically) and reported; CI fails the campaign on
  any oracle violation.

Budgets are dual: a seed budget (``budget`` executions) and an optional
wall-clock budget (``max_seconds``, checked between rounds with an
injectable clock).  The report records which limit fired; the report
digest covers only deterministic content, so budget-stopped campaigns
reproduce exactly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from random import Random
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..scenarios.runner import ScenarioResult, run_scenario
from ..scenarios.spec import ScenarioSpec
from .corpus import Corpus
from .generator import DEFAULT_FUZZ_PROTOCOLS, generate_scenario, shrink_spec
from .mutators import mutate
from .signature import signature_features, signature_key

__all__ = [
    "CampaignConfig",
    "CampaignFailure",
    "CampaignReport",
    "outcome_of",
    "run_blind",
    "run_campaign",
]


@dataclass(frozen=True)
class CampaignConfig:
    """Knobs of one campaign; everything that shapes its determinism."""

    budget: int = 256  #: total scenario executions (the seed budget)
    start_seed: int = 0  #: blind-generator stream start + campaign rng seed
    protocols: Tuple[str, ...] = DEFAULT_FUZZ_PROTOCOLS
    mode: str = "guided"  #: ``"guided"`` (corpus mutation) or ``"blind"``
    shards: int = 1  #: worker processes per round (1 = in-process)
    round_size: int = 8  #: executions per round (shard-count independent)
    #: Pure generator draws before mutation kicks in.  Generous on
    #: purpose: fresh draws are cheap novelty early (the generator's
    #: input diversity translates directly to behavior diversity until
    #: it saturates, around ~200 draws), and mutation only pays once the
    #: corpus spans enough behaviors to launch from.
    warmup: int = 64
    fresh_fraction: float = 0.25  #: lasting trickle of blind exploration
    max_seconds: Optional[float] = None  #: wall-clock budget (None = off)
    shrink: bool = True  #: shrink failing specs to minimal reproducers


@dataclass
class CampaignFailure:
    """One oracle-violating run, with its shrunk reproducer."""

    origin: str
    spec: Dict[str, Any]
    shrunk: Dict[str, Any]
    failures: Tuple[str, ...]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "origin": self.origin,
            "failures": list(self.failures),
            "reproducer": self.shrunk,
            "original": self.spec,
        }


@dataclass
class CampaignReport:
    """Everything one campaign produced, digest-stable."""

    mode: str
    budget: int
    start_seed: int
    protocols: Tuple[str, ...]
    round_size: int
    warmup: int
    executed: int = 0
    stopped_by: str = "budget"  #: ``"budget"`` or ``"max-seconds"``
    signatures: List[str] = field(default_factory=list)  #: first-seen order
    trajectory: List[Dict[str, Any]] = field(default_factory=list)
    corpus_stats: Dict[str, Any] = field(default_factory=dict)
    failures: List[CampaignFailure] = field(default_factory=list)
    #: Wall-clock cost; reported but excluded from the digest.
    elapsed_seconds: Optional[float] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def unique_signatures(self) -> int:
        return len(self.signatures)

    def to_dict(self) -> Dict[str, Any]:
        """Deterministic content only (wall clock rides outside)."""
        return {
            "mode": self.mode,
            "budget": self.budget,
            "start_seed": self.start_seed,
            "protocols": list(self.protocols),
            "round_size": self.round_size,
            "warmup": self.warmup,
            "executed": self.executed,
            "stopped_by": self.stopped_by,
            "unique_signatures": self.unique_signatures,
            "signatures": list(self.signatures),
            "trajectory": list(self.trajectory),
            "corpus": dict(self.corpus_stats),
            "failures": [failure.to_dict() for failure in self.failures],
        }

    @property
    def digest(self) -> str:
        """SHA-256 over the canonical report: equal digests mean the
        campaigns executed identically (serial or sharded alike)."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def summary(self) -> str:
        lines = [
            f"campaign [{self.mode}]: {self.executed}/{self.budget} runs "
            f"({self.stopped_by} limit), {self.unique_signatures} unique "
            f"signatures, corpus {self.corpus_stats.get('entries', 0)} "
            f"entries / {self.corpus_stats.get('features', 0)} features",
            f"digest: {self.digest[:16]} — "
            + ("all oracles passed" if self.ok else f"{len(self.failures)} FAILURES"),
        ]
        if self.elapsed_seconds is not None:
            lines.append(f"elapsed: {self.elapsed_seconds}s wall clock")
        for failure in self.failures:
            lines.append(f"  {failure.origin}: {'; '.join(failure.failures)}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Fleet execution
# ----------------------------------------------------------------------


def outcome_of(result: ScenarioResult) -> Dict[str, Any]:
    """The shard-transportable slice of a result the campaign needs."""
    return {
        "ok": result.ok,
        "failures": [str(verdict) for verdict in result.failures],
        "coverage": result.coverage,
        "events": result.events_processed,
        "trace_digest": result.trace_digest,
    }


def _run_shard(payload: Tuple[int, List[ScenarioSpec]]):
    """Worker: run one contiguous slice of the round's batch."""
    base, specs = payload
    return base, [outcome_of(run_scenario(spec)) for spec in specs]


def _execute(
    specs: Sequence[ScenarioSpec],
    shards: int,
    run: Callable[[ScenarioSpec], ScenarioResult],
) -> List[Dict[str, Any]]:
    """Run a batch, optionally sharded; outcomes always in input order.

    Sharding slices the batch contiguously and merges shard outputs by
    slice offset — the merge is deterministic regardless of which worker
    finishes first.  A custom ``run`` callable forces the in-process
    path (it may close over test state that cannot cross a fork).
    """
    if shards <= 1 or len(specs) <= 1 or run is not run_scenario:
        return [outcome_of(run(spec)) for spec in specs]
    import multiprocessing

    shards = min(shards, len(specs))
    chunk = (len(specs) + shards - 1) // shards
    payloads = [
        (base, list(specs[base:base + chunk]))
        for base in range(0, len(specs), chunk)
    ]
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "fork" if "fork" in methods else None
    )
    merged: List[Optional[Dict[str, Any]]] = [None] * len(specs)
    with context.Pool(processes=shards) as pool:
        for base, outcomes in pool.imap_unordered(_run_shard, payloads):
            for offset, outcome in enumerate(outcomes):
                merged[base + offset] = outcome
    return [outcome for outcome in merged if outcome is not None]


# ----------------------------------------------------------------------
# The campaign loop
# ----------------------------------------------------------------------


def run_campaign(
    config: CampaignConfig,
    corpus: Optional[Corpus] = None,
    run: Callable[[ScenarioSpec], ScenarioResult] = run_scenario,
    clock: Optional[Callable[[], float]] = None,
    on_progress: Optional[Callable[[str, Dict[str, Any]], None]] = None,
) -> CampaignReport:
    """Run one campaign over (and growing) ``corpus``.

    Fully deterministic for a given ``(corpus, config)`` when the seed
    budget is what stops it; the wall-clock budget (``max_seconds``)
    necessarily truncates at a machine-dependent round boundary.
    """
    corpus = corpus if corpus is not None else Corpus()
    rng = Random(f"campaign/{config.mode}/{config.start_seed}")
    report = CampaignReport(
        mode=config.mode,
        budget=config.budget,
        start_seed=config.start_seed,
        protocols=tuple(config.protocols),
        round_size=config.round_size,
        warmup=config.warmup,
    )
    started_at = None
    if config.max_seconds is not None:
        if clock is None:
            from .clock import wall_clock as clock
        started_at = clock()
    seen: set = set()
    next_seed = config.start_seed
    mutated_count = 0
    while report.executed < config.budget:
        if (
            started_at is not None
            and clock() - started_at >= config.max_seconds
        ):
            report.stopped_by = "max-seconds"
            break
        count = min(config.round_size, config.budget - report.executed)
        batch: List[Tuple[str, ScenarioSpec]] = []
        for offset in range(count):
            index = report.executed + offset
            use_mutation = (
                config.mode == "guided"
                and index >= config.warmup
                and corpus.entries
                and rng.random() >= config.fresh_fraction
            )
            mutant = None
            if use_mutation:
                base = corpus.choose(rng)
                mutant = mutate(
                    base.scenario(),
                    rng,
                    corpus,
                    name=f"fuzz-mutant-{index}",
                )
            if mutant is None:
                spec = generate_scenario(next_seed, protocols=config.protocols)
                batch.append((f"seed:{next_seed}", spec))
                next_seed += 1
            else:
                spec, op_name = mutant
                batch.append((f"mutant:{index}/{op_name}", spec))
                mutated_count += 1
        features_before = len(corpus.feature_counts)
        outcomes = _execute([spec for _, spec in batch], config.shards, run)
        for (origin, spec), outcome in zip(batch, outcomes):
            features = signature_features(outcome["coverage"])
            key = signature_key(features)
            if key not in seen:
                seen.add(key)
                report.signatures.append(key)
            corpus.consider(
                spec,
                features,
                key,
                origin=origin,
                ok=outcome["ok"],
                executions=outcome["events"],
            )
            if on_progress is not None:
                on_progress(origin, outcome)
            if not outcome["ok"]:
                shrunk = spec
                if config.shrink:
                    shrunk = shrink_spec(spec, lambda s: not run(s).ok)
                report.failures.append(
                    CampaignFailure(
                        origin=origin,
                        spec=spec.to_dict(),
                        shrunk=shrunk.to_dict(),
                        failures=tuple(outcome["failures"]),
                    )
                )
        report.executed += count
        report.trajectory.append(
            {
                "round": len(report.trajectory) + 1,
                "executed": report.executed,
                "mutants": mutated_count,
                "corpus_entries": len(corpus.entries),
                "features": len(corpus.feature_counts),
                "unique_signatures": len(report.signatures),
                "new_features": len(corpus.feature_counts) - features_before,
            }
        )
    report.corpus_stats = corpus.stats()
    if started_at is not None:
        report.elapsed_seconds = round(clock() - started_at, 3)
    return report


def run_blind(
    budget: int,
    start_seed: int = 0,
    protocols: Sequence[str] = DEFAULT_FUZZ_PROTOCOLS,
    shards: int = 1,
    run: Callable[[ScenarioSpec], ScenarioResult] = run_scenario,
) -> CampaignReport:
    """The control arm: same budget, fresh generator draws only.

    Shares the campaign loop (and its signature accounting) with the
    guided mode, so "guided finds strictly more unique signatures than
    blind under an equal budget" compares exactly one variable — whether
    the corpus steers generation.
    """
    return run_campaign(
        CampaignConfig(
            budget=budget,
            start_seed=start_seed,
            protocols=tuple(protocols),
            mode="blind",
            shards=shards,
            shrink=False,
        ),
        run=run,
    )
