"""Measurement and reporting utilities for the experiment suite."""

from .fuzzbench import (
    MIN_GUIDED_BUDGET,
    FuzzComparison,
    compare_campaigns,
)
from .grids import (
    GridComparison,
    compare_grid_payloads,
    format_experiment_payload,
)
from .metrics import Stats
from .report import format_scenario_results, format_table

__all__ = [
    "FuzzComparison",
    "GridComparison",
    "MIN_GUIDED_BUDGET",
    "Stats",
    "compare_campaigns",
    "compare_grid_payloads",
    "format_experiment_payload",
    "format_scenario_results",
    "format_table",
]
