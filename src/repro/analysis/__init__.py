"""Measurement and reporting utilities for the experiment suite."""

from .comparison import PROTOCOLS, ProtocolSpec, build_protocol
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
from .metrics import (
    CatchupResult,
    CommonCaseResult,
    MonitorTailResult,
    Stats,
    ThroughputResult,
    repeat_latency,
    run_catchup,
    run_common_case,
    run_monitor_tail,
    run_smr_throughput,
    smr_instance_factory,
)
from .report import format_scenario_results, format_table

__all__ = [
    "CatchupResult",
    "CommonCaseResult",
    "FuzzComparison",
    "GridComparison",
    "MIN_GUIDED_BUDGET",
    "MonitorTailResult",
    "PROTOCOLS",
    "ProtocolSpec",
    "Stats",
    "ThroughputResult",
    "build_protocol",
    "compare_campaigns",
    "compare_grid_payloads",
    "format_experiment_payload",
    "format_scenario_results",
    "format_table",
    "repeat_latency",
    "run_catchup",
    "run_common_case",
    "run_monitor_tail",
    "run_smr_throughput",
    "smr_instance_factory",
]
