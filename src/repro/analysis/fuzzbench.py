"""Campaign measurement for the coverage-guided fuzzer (experiment E19).

The claim under test: at an equal seed budget, the coverage-guided
campaign (:func:`repro.fuzz.run_campaign`) discovers strictly more
unique coverage signatures than the blind fuzzer walking fresh
generator seeds.  Both arms share one loop and one signature function
(:func:`repro.fuzz.run_blind` is ``run_campaign`` in ``"blind"`` mode),
so the comparison isolates exactly one variable — whether the corpus
steers generation.

Guidance needs runway: fresh generator draws are near-free novelty
until the generator's input diversity saturates (~200 draws), so below
``MIN_GUIDED_BUDGET`` the two arms are statistically tied and the
strict inequality is not claimed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Sequence, Tuple

from ..fuzz import CampaignConfig, CampaignReport, run_blind, run_campaign
from ..fuzz.generator import DEFAULT_FUZZ_PROTOCOLS

__all__ = ["MIN_GUIDED_BUDGET", "FuzzComparison", "compare_campaigns"]

#: Smallest budget at which the guided arm's advantage is asserted.
MIN_GUIDED_BUDGET = 256


@dataclass
class FuzzComparison:
    """Guided and blind campaign reports over the same budget and seeds."""

    budget: int
    start_seed: int
    guided: CampaignReport
    blind: CampaignReport

    def compare_rows(self) -> List[List[Any]]:
        """One row per arm for the experiment's ``compare`` section."""
        rows = []
        for report in (self.guided, self.blind):
            rows.append(
                [
                    report.mode,
                    self.budget,
                    self.start_seed,
                    report.executed,
                    report.unique_signatures,
                    report.corpus_stats.get("entries", 0),
                    report.corpus_stats.get("features", 0),
                    len(report.failures),
                ]
            )
        return rows

    def trajectory_rows(self) -> List[List[Any]]:
        """Per-round discovery curves for both arms (``trajectory``)."""
        rows = []
        for report in (self.guided, self.blind):
            for point in report.trajectory:
                rows.append(
                    [
                        report.mode,
                        self.budget,
                        point["round"],
                        point["executed"],
                        point["unique_signatures"],
                        point["corpus_entries"],
                        point["mutants"],
                    ]
                )
        return rows


def compare_campaigns(
    budget: int,
    start_seed: int = 0,
    protocols: Sequence[str] = DEFAULT_FUZZ_PROTOCOLS,
    round_size: int = 8,
) -> FuzzComparison:
    """Run both arms over the same budget and seed stream."""
    guided = run_campaign(
        CampaignConfig(
            budget=budget,
            start_seed=start_seed,
            protocols=tuple(protocols),
            round_size=round_size,
            shrink=False,
        )
    )
    blind = run_blind(
        budget, start_seed=start_seed, protocols=tuple(protocols)
    )
    return FuzzComparison(
        budget=budget, start_seed=start_seed, guided=guided, blind=blind
    )
